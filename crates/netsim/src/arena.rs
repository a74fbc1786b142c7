//! Struct-of-arrays storage for active flows.
//!
//! The settlement and water-filling loops touch `remaining`/`rate`/path
//! data for many flows per event; splitting the old `ActiveFlow` struct
//! into parallel arrays keeps those loops cache-linear, and the inline
//! [`PathVec`] avoids a heap indirection for the common ≤3-link route
//! produced by [`crate::Fabric::route`].
//!
//! Slots are recycled through a free list exactly like the old
//! `Vec<Option<ActiveFlow>>` slab; `live` flags plus per-slot `epoch`
//! counters let the engine lazily invalidate heap entries that reference
//! a reassigned slot.

use crate::flow::FlowId;
use crate::link::LinkId;
use crate::time::SimTime;

/// Links stored inline before spilling to the heap. Fabric routes are at
/// most `src_up, trunk/switch, dst_down` — three links.
const INLINE_LINKS: usize = 3;

/// A flow's path: inline up to [`INLINE_LINKS`] entries, heap-spilled
/// beyond that.
#[derive(Debug, Clone, Default)]
pub(crate) struct PathVec {
    len: u8,
    inline: [LinkId; INLINE_LINKS],
    spill: Vec<LinkId>,
}

impl PathVec {
    pub fn from_vec(path: Vec<LinkId>) -> Self {
        if path.len() <= INLINE_LINKS {
            let mut inline = [LinkId(0); INLINE_LINKS];
            inline[..path.len()].copy_from_slice(&path);
            PathVec {
                len: path.len() as u8,
                inline,
                spill: Vec::new(),
            }
        } else {
            PathVec {
                len: u8::MAX,
                inline: [LinkId(0); INLINE_LINKS],
                spill: path,
            }
        }
    }

    #[inline]
    pub fn as_slice(&self) -> &[LinkId] {
        if self.len == u8::MAX {
            &self.spill
        } else {
            &self.inline[..self.len as usize]
        }
    }

    #[inline]
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Struct-of-arrays arena of flows past their latency phase.
///
/// Every array is indexed by slot; `live[slot]` gates validity. Iteration
/// order is never derived from the arena itself — callers iterate via the
/// id-keyed `id_to_slot` map or explicitly id-sorted slot lists so float
/// summation order stays deterministic.
#[derive(Debug, Default)]
pub(crate) struct FlowArena {
    pub ids: Vec<u64>,
    pub tokens: Vec<u64>,
    /// Bytes left at `anchor`.
    pub remaining: Vec<f64>,
    /// Current max-min rate, bytes per nanosecond.
    pub rate: Vec<f64>,
    /// Per-flow ceiling, bytes per nanosecond.
    pub rate_cap: Vec<f64>,
    /// Per-flow settlement anchor.
    pub anchor: Vec<SimTime>,
    pub path: Vec<PathVec>,
    /// Positions of this flow inside each path link's `link_flows` list,
    /// parallel to `path` (membership maintenance).
    pub link_pos: Vec<PathVec2>,
    /// Bumped whenever `rate` is reassigned or the slot is recycled;
    /// stale finish/prediction heap entries compare epochs to skip.
    pub epoch: Vec<u32>,
    /// Component-walk visitation stamp (scratch).
    pub visit: Vec<u32>,
    pub live: Vec<bool>,
    free: Vec<u32>,
}

/// Companion inline vec of `u32` positions, same shape as [`PathVec`].
#[derive(Debug, Clone, Default)]
pub(crate) struct PathVec2 {
    len: u8,
    inline: [u32; INLINE_LINKS],
    spill: Vec<u32>,
}

impl PathVec2 {
    fn with_len(n: usize) -> Self {
        if n <= INLINE_LINKS {
            PathVec2 {
                len: n as u8,
                inline: [0; INLINE_LINKS],
                spill: Vec::new(),
            }
        } else {
            PathVec2 {
                len: u8::MAX,
                inline: [0; INLINE_LINKS],
                spill: vec![0; n],
            }
        }
    }

    #[inline]
    pub fn as_slice(&self) -> &[u32] {
        if self.len == u8::MAX {
            &self.spill
        } else {
            &self.inline[..self.len as usize]
        }
    }

    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [u32] {
        if self.len == u8::MAX {
            &mut self.spill
        } else {
            &mut self.inline[..self.len as usize]
        }
    }
}

impl FlowArena {
    /// Insert a flow, recycling a free slot when available. The slot's
    /// epoch survives recycling so heap entries from the previous tenant
    /// stay invalid.
    pub fn insert(
        &mut self,
        id: FlowId,
        token: u64,
        bytes: f64,
        rate_cap: f64,
        path: PathVec,
        now: SimTime,
    ) -> u32 {
        let npath = path.as_slice().len();
        match self.free.pop() {
            Some(slot) => {
                let s = slot as usize;
                self.ids[s] = id.0;
                self.tokens[s] = token;
                self.remaining[s] = bytes;
                self.rate[s] = 0.0;
                self.rate_cap[s] = rate_cap;
                self.anchor[s] = now;
                self.path[s] = path;
                self.link_pos[s] = PathVec2::with_len(npath);
                self.epoch[s] = self.epoch[s].wrapping_add(1);
                self.live[s] = true;
                slot
            }
            None => {
                let slot = self.ids.len() as u32;
                self.ids.push(id.0);
                self.tokens.push(token);
                self.remaining.push(bytes);
                self.rate.push(0.0);
                self.rate_cap.push(rate_cap);
                self.anchor.push(now);
                self.path.push(path);
                self.link_pos.push(PathVec2::with_len(npath));
                self.epoch.push(0);
                self.visit.push(0);
                self.live.push(true);
                slot
            }
        }
    }

    /// Release a slot back to the free list and invalidate heap entries
    /// referencing it.
    pub fn remove(&mut self, slot: u32) {
        let s = slot as usize;
        debug_assert!(self.live[s], "double free of arena slot {slot}");
        self.live[s] = false;
        self.epoch[s] = self.epoch[s].wrapping_add(1);
        self.free.push(slot);
    }

    /// Number of allocated slots (live + free) — slab growth diagnostic.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn capacity_slots(&self) -> usize {
        self.ids.len()
    }

    /// Number of free-listed slots.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn free_slots(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    #[test]
    fn pathvec_inline_and_spill() {
        let short = PathVec::from_vec(vec![LinkId(3), LinkId(9)]);
        assert_eq!(short.as_slice(), &[LinkId(3), LinkId(9)]);
        assert!(!short.is_empty());
        let empty = PathVec::from_vec(vec![]);
        assert!(empty.is_empty());
        let long = PathVec::from_vec((0..5).map(LinkId).collect());
        assert_eq!(long.as_slice().len(), 5);
        assert_eq!(long.as_slice()[4], LinkId(4));
    }

    #[test]
    fn slots_recycle_and_epochs_advance() {
        let mut arena = FlowArena::default();
        let a = arena.insert(
            FlowId(0),
            1,
            10.0,
            f64::INFINITY,
            PathVec::from_vec(vec![LinkId(0)]),
            SimTime(0),
        );
        let e0 = arena.epoch[a as usize];
        arena.remove(a);
        let b = arena.insert(
            FlowId(1),
            2,
            20.0,
            f64::INFINITY,
            PathVec::from_vec(vec![]),
            SimTime(5),
        );
        assert_eq!(a, b, "freed slot must be reused");
        assert!(arena.epoch[b as usize] > e0, "epoch invalidates old refs");
        assert_eq!(arena.capacity_slots(), 1);
        assert_eq!(arena.free_slots(), 0);
        assert_eq!(arena.anchor[b as usize], SimTime(5));
    }
}
