//! Struct-of-arrays storage for active flows, and the two indexes the
//! engine keeps beside it: a slot-indexed heap and an id-indexed window.
//!
//! The settlement and water-filling loops touch `remaining`/`rate`/path
//! data for many flows per event; splitting the old `ActiveFlow` struct
//! into parallel arrays keeps those loops cache-linear, and the inline
//! [`PathVec`] avoids a heap indirection for the common ≤3-link route
//! produced by [`crate::Fabric::route`].
//!
//! One arena slot carries a whole twin group: `mult` logical flows that
//! were activated in the same batch with identical path, bytes and rate
//! cap, and therefore share one rate, anchor and remaining byte count for
//! their whole life. The group's members are flow entries, each standing
//! for [`Member::count`] logical flows, chained in id order through the
//! [`FlowWindow`]; the slot's `ids` entry is the lowest live member.
//!
//! Slots are recycled through a free list. [`SlotHeap`] keeps at most one
//! key per slot and updates it in place, so heap entries never go stale.

use std::collections::VecDeque;

use crate::flow::{FlowId, FlowSpec};
use crate::link::LinkId;
use crate::time::SimTime;

/// Links stored inline before spilling to the heap. Fabric routes are at
/// most `src_up, trunk/switch, dst_down` — three links.
const INLINE_LINKS: usize = 3;

/// One entry per path link — a flow's route, or its positions in those
/// links' flow lists: inline up to [`INLINE_LINKS`] entries, heap-spilled
/// beyond that.
#[derive(Debug, Clone, Default)]
pub(crate) struct InlineVec<T> {
    len: u8,
    inline: [T; INLINE_LINKS],
    spill: Vec<T>,
}

/// A flow's route.
pub(crate) type PathVec = InlineVec<LinkId>;

impl<T: Copy + Default> InlineVec<T> {
    /// `n` default entries, allocating only when `n` exceeds the inline
    /// capacity.
    #[expect(clippy::cast_possible_truncation, reason = "n <= INLINE_LINKS here")]
    fn with_len(n: usize) -> Self {
        let inline = [T::default(); INLINE_LINKS];
        if n <= INLINE_LINKS {
            InlineVec {
                len: n as u8,
                inline,
                spill: Vec::new(),
            }
        } else {
            InlineVec {
                len: u8::MAX,
                inline,
                spill: vec![T::default(); n],
            }
        }
    }

    pub fn from_vec(items: Vec<T>) -> Self {
        if items.len() <= INLINE_LINKS {
            let mut v = Self::with_len(items.len());
            v.inline[..items.len()].copy_from_slice(&items);
            v
        } else {
            InlineVec {
                len: u8::MAX,
                inline: [T::default(); INLINE_LINKS],
                spill: items,
            }
        }
    }

    #[inline]
    pub fn as_slice(&self) -> &[T] {
        if self.len == u8::MAX {
            &self.spill
        } else {
            &self.inline[..self.len as usize]
        }
    }

    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        if self.len == u8::MAX {
            &mut self.spill
        } else {
            &mut self.inline[..self.len as usize]
        }
    }

    #[inline]
    #[cfg_attr(not(test), expect(dead_code, reason = "test-only diagnostic"))]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Key under which same-batch activations are merged into one twin
/// group: `[bytes, rate-cap bits, links 0–1, link 2 and path length]`.
/// `None` for paths longer than [`INLINE_LINKS`], which never merge.
pub(crate) fn twin_key(path: &[LinkId], bytes: u64, rate_cap: f64) -> Option<[u64; 4]> {
    if path.len() > INLINE_LINKS {
        return None;
    }
    let link = |j: usize| path.get(j).map_or(0, |l| u64::from(l.0));
    Some([
        bytes,
        rate_cap.to_bits(),
        link(0) | link(1) << 32,
        link(2) | (path.len() as u64) << 32,
    ])
}

/// Struct-of-arrays arena of flows past their latency phase.
///
/// Every array is indexed by slot; `live[slot]` gates validity. Iteration
/// order is never derived from the arena itself — callers iterate via the
/// id-indexed [`FlowWindow`] or explicitly id-sorted slot lists so float
/// summation order stays deterministic.
#[derive(Debug, Default)]
pub(crate) struct FlowArena {
    /// Lowest live member id of the slot's twin group.
    pub ids: Vec<u64>,
    /// Twin multiplicity: live logical flows sharing the slot (the sum of
    /// its members' counts).
    pub mult: Vec<u32>,
    /// Bytes left at `anchor`, per member.
    pub remaining: Vec<f64>,
    /// Current max-min rate per member, bytes per nanosecond.
    pub rate: Vec<f64>,
    /// Per-member ceiling, bytes per nanosecond.
    pub rate_cap: Vec<f64>,
    /// Settlement anchor.
    pub anchor: Vec<SimTime>,
    pub path: Vec<PathVec>,
    /// Positions of this slot inside each path link's `link_flows` list,
    /// parallel to `path` (membership maintenance).
    pub link_pos: Vec<InlineVec<u32>>,
    /// Component-walk visitation stamp (scratch).
    pub visit: Vec<u32>,
    pub live: Vec<bool>,
    free: Vec<u32>,
}

impl FlowArena {
    /// Insert a one-member group of `mult` logical flows, recycling a free
    /// slot when available.
    #[expect(clippy::cast_possible_truncation, reason = "u32 slots by design")]
    pub fn insert(
        &mut self,
        id: FlowId,
        mult: u32,
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
                self.mult[s] = mult;
                self.remaining[s] = bytes;
                self.rate[s] = 0.0;
                self.rate_cap[s] = rate_cap;
                self.anchor[s] = now;
                self.path[s] = path;
                self.link_pos[s] = InlineVec::with_len(npath);
                self.live[s] = true;
                slot
            }
            None => {
                let slot = self.ids.len() as u32;
                self.ids.push(id.0);
                self.mult.push(mult);
                self.remaining.push(bytes);
                self.rate.push(0.0);
                self.rate_cap.push(rate_cap);
                self.anchor.push(now);
                self.path.push(path);
                self.link_pos.push(InlineVec::with_len(npath));
                self.visit.push(0);
                self.live.push(true);
                slot
            }
        }
    }

    /// Release a slot back to the free list.
    pub fn remove(&mut self, slot: u32) {
        let s = slot as usize;
        debug_assert!(self.live[s], "double free of arena slot {slot}");
        self.live[s] = false;
        self.free.push(slot);
    }

    /// Number of allocated slots (live + free) — slab growth diagnostic.
    #[cfg_attr(not(test), expect(dead_code, reason = "test-only diagnostic"))]
    pub fn capacity_slots(&self) -> usize {
        self.ids.len()
    }

    /// Number of free-listed slots.
    #[cfg_attr(not(test), expect(dead_code, reason = "test-only diagnostic"))]
    pub fn free_slots(&self) -> usize {
        self.free.len()
    }
}

/// Heap index marking a slot with no entry.
const ABSENT: u32 = u32::MAX;

/// Binary min-heap holding at most one key per arena slot, updated in
/// place: setting a slot's key moves its one entry, removing a slot
/// deletes it, so no entry is ever stale. Ties order by slot.
#[derive(Debug)]
pub(crate) struct SlotHeap<K> {
    heap: Vec<(K, u32)>,
    /// Heap index of each slot's entry, or [`ABSENT`].
    pos: Vec<u32>,
}

impl<K> Default for SlotHeap<K> {
    fn default() -> Self {
        SlotHeap {
            heap: Vec::new(),
            pos: Vec::new(),
        }
    }
}

#[expect(clippy::cast_possible_truncation, reason = "one per u32 arena slot")]
impl<K: Copy + Ord> SlotHeap<K> {
    /// The smallest `(key, slot)` entry.
    #[inline]
    pub fn peek(&self) -> Option<(K, u32)> {
        self.heap.first().copied()
    }

    /// Insert `slot` with `key`, or move its existing entry to `key`.
    pub fn set(&mut self, slot: u32, key: K) {
        let s = slot as usize;
        if s >= self.pos.len() {
            self.pos.resize(s + 1, ABSENT);
        }
        let i = self.pos[s];
        if i == ABSENT {
            self.heap.push((key, slot));
            self.pos[s] = (self.heap.len() - 1) as u32;
            self.sift_up(self.heap.len() - 1);
        } else {
            let i = i as usize;
            self.heap[i].0 = key;
            let i = self.sift_up(i);
            self.sift_down(i);
        }
    }

    /// Delete `slot`'s entry, if it has one.
    pub fn remove(&mut self, slot: u32) {
        let s = slot as usize;
        let Some(&i) = self.pos.get(s) else {
            return;
        };
        if i == ABSENT {
            return;
        }
        let i = i as usize;
        self.pos[s] = ABSENT;
        let last = self.heap.len() - 1;
        if i != last {
            self.heap.swap(i, last);
            self.heap.pop();
            self.pos[self.heap[i].1 as usize] = i as u32;
            let i = self.sift_up(i);
            self.sift_down(i);
        } else {
            self.heap.pop();
        }
    }

    fn sift_up(&mut self, mut i: usize) -> usize {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[i] >= self.heap[parent] {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
        i
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let left = 2 * i + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let child = if right < self.heap.len() && self.heap[right] < self.heap[left] {
                right
            } else {
                left
            };
            if self.heap[child] >= self.heap[i] {
                break;
            }
            self.swap(i, child);
            i = child;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a].1 as usize] = a as u32;
        self.pos[self.heap[b].1 as usize] = b as u32;
    }
}

/// An active flow's entry in the [`FlowWindow`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Member {
    /// Arena slot of the flow's twin group.
    pub slot: u32,
    /// Caller token from the flow's spec.
    pub token: u64,
    /// Logical flows the entry stands for.
    pub count: u32,
    /// Next member of the same twin group, in id order.
    pub next: Option<u64>,
}

/// Where a started flow is in its life.
#[derive(Debug)]
enum FlowState {
    /// In its latency phase.
    Pending(FlowSpec),
    /// Cancelled in its latency phase: its queued `FlowStart` is a no-op.
    Tombstone,
    /// Transferring.
    Active(Member),
    /// Finished or cancelled.
    Done,
}

/// Per-flow state in a dense window indexed by flow id. Ids are handed
/// out sequentially, and the window drops its finished prefix, so it
/// spans only the ids from the oldest unfinished flow onwards.
#[derive(Debug, Default)]
pub(crate) struct FlowWindow {
    /// Id of `states[0]`.
    base: u64,
    states: VecDeque<FlowState>,
    pending: usize,
    tombstones: usize,
    active: usize,
}

impl FlowWindow {
    /// Register a started flow in its latency phase; returns its id.
    pub fn start(&mut self, spec: FlowSpec) -> FlowId {
        self.states.push_back(FlowState::Pending(spec));
        self.pending += 1;
        FlowId(self.base + self.states.len() as u64 - 1)
    }

    #[expect(clippy::cast_possible_truncation, reason = "i < states.len()")]
    fn index(&self, id: u64) -> Option<usize> {
        let i = id.checked_sub(self.base)?;
        (i < self.states.len() as u64).then_some(i as usize)
    }

    /// End `id`'s latency phase. Returns its spec with the entry now
    /// active (token set, slot left for [`FlowWindow::member_mut`]), or
    /// `None` when the flow was tombstoned.
    pub fn activate(&mut self, id: FlowId) -> Option<FlowSpec> {
        let i = self.index(id.0)?;
        match std::mem::replace(&mut self.states[i], FlowState::Done) {
            FlowState::Pending(spec) => {
                self.states[i] = FlowState::Active(Member {
                    slot: u32::MAX,
                    token: spec.token,
                    count: spec.count,
                    next: None,
                });
                self.pending -= 1;
                self.active += 1;
                Some(spec)
            }
            other => {
                debug_assert!(
                    matches!(other, FlowState::Tombstone),
                    "FlowStart for a flow that was not pending: {other:?}"
                );
                self.tombstones -= 1;
                self.trim();
                None
            }
        }
    }

    /// The index of `id`'s entry while it is in its latency phase and
    /// short enough to twin ([`twin_key`]).
    fn growable_index(&self, id: FlowId) -> Option<usize> {
        let i = self.index(id.0)?;
        matches!(&self.states[i], FlowState::Pending(spec) if spec.path.len() <= INLINE_LINKS)
            .then_some(i)
    }

    /// True while [`FlowWindow::grow_pending`] would grow `id`'s entry.
    pub fn growable(&self, id: FlowId) -> bool {
        self.growable_index(id).is_some()
    }

    /// Add `by` logical flows to `id`'s entry while it is still in its
    /// latency phase and short enough to twin ([`twin_key`]). `false`,
    /// changing nothing, otherwise.
    pub fn grow_pending(&mut self, id: FlowId, by: u32) -> bool {
        let Some(i) = self.growable_index(id) else {
            return false;
        };
        if let FlowState::Pending(spec) = &mut self.states[i] {
            spec.count += by;
        }
        true
    }

    /// Tombstone a flow still in its latency phase. `false` when `id` is
    /// not pending.
    pub fn cancel_pending(&mut self, id: FlowId) -> bool {
        let Some(i) = self.index(id.0) else {
            return false;
        };
        if !matches!(self.states[i], FlowState::Pending(_)) {
            return false;
        }
        self.states[i] = FlowState::Tombstone;
        self.pending -= 1;
        self.tombstones += 1;
        true
    }

    /// The active flow `id`, if it is one.
    #[inline]
    pub fn member(&self, id: u64) -> Option<&Member> {
        match self.states.get(self.index(id)?) {
            Some(FlowState::Active(m)) => Some(m),
            _ => None,
        }
    }

    #[inline]
    pub fn member_mut(&mut self, id: u64) -> Option<&mut Member> {
        let i = self.index(id)?;
        match &mut self.states[i] {
            FlowState::Active(m) => Some(m),
            _ => None,
        }
    }

    /// Mark the active flow `id` finished or cancelled.
    pub fn retire(&mut self, id: u64) {
        if let Some(i) = self.index(id) {
            if matches!(self.states[i], FlowState::Active(_)) {
                self.states[i] = FlowState::Done;
                self.active -= 1;
                self.trim();
            }
        }
    }

    fn trim(&mut self) {
        while matches!(self.states.front(), Some(FlowState::Done)) {
            self.states.pop_front();
            self.base += 1;
        }
    }

    /// Active flows in id order.
    pub fn active(&self) -> impl Iterator<Item = (FlowId, &Member)> + '_ {
        self.states
            .iter()
            .enumerate()
            .filter_map(move |(i, st)| match st {
                FlowState::Active(m) => Some((FlowId(self.base + i as u64), m)),
                _ => None,
            })
    }

    /// Flows in their latency phase.
    pub fn pending_count(&self) -> usize {
        self.pending
    }

    /// Tombstoned `FlowStart`s still queued.
    pub fn tombstone_count(&self) -> usize {
        self.tombstones
    }

    /// Flows past their latency phase and not yet finished or cancelled.
    pub fn active_count(&self) -> usize {
        self.active
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{SimDuration, SimTime};

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
    fn slots_recycle() {
        let mut arena = FlowArena::default();
        let a = arena.insert(
            FlowId(0),
            1,
            10.0,
            f64::INFINITY,
            PathVec::from_vec(vec![LinkId(0)]),
            SimTime(0),
        );
        arena.mult[a as usize] = 3;
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
        assert_eq!(arena.capacity_slots(), 1);
        assert_eq!(arena.free_slots(), 0);
        assert_eq!(arena.anchor[b as usize], SimTime(5));
        assert_eq!(
            arena.mult[b as usize], 2,
            "a recycled slot takes its entry's count"
        );
    }

    #[test]
    fn twin_keys_separate_paths_bytes_and_caps() {
        let p = [LinkId(1), LinkId(2)];
        let k = twin_key(&p, 100, 1.0);
        assert_eq!(k, twin_key(&p, 100, 1.0));
        assert_ne!(k, twin_key(&p[..1], 100, 1.0));
        assert_ne!(k, twin_key(&[LinkId(2), LinkId(1)], 100, 1.0));
        assert_ne!(k, twin_key(&p, 101, 1.0));
        assert_ne!(k, twin_key(&p, 100, 2.0));
        assert_ne!(twin_key(&[], 1, 1.0), twin_key(&[LinkId(0)], 1, 1.0));
        assert_eq!(twin_key(&[LinkId(0); 4], 1, 1.0), None);
    }

    #[test]
    fn slot_heap_updates_in_place() {
        let mut h = SlotHeap::default();
        for (slot, key) in [(0u32, 50u64), (1, 20), (2, 70), (3, 10), (4, 40)] {
            h.set(slot, key);
        }
        assert_eq!(h.peek(), Some((10, 3)));
        h.set(3, 90); // move the minimum down
        assert_eq!(h.peek(), Some((20, 1)));
        h.set(2, 5); // and another one up
        assert_eq!(h.peek(), Some((5, 2)));
        h.remove(2);
        h.remove(2); // absent: no-op
        h.remove(9); // never seen: no-op
        let mut order = Vec::new();
        while let Some((k, s)) = h.peek() {
            order.push((k, s));
            h.remove(s);
        }
        assert_eq!(order, vec![(20, 1), (40, 4), (50, 0), (90, 3)]);
    }

    #[test]
    fn slot_heap_matches_a_sorted_reference() {
        let mut h = SlotHeap::default();
        let mut reference: Vec<Option<u64>> = vec![None; 32];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..4000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let slot = (state % 32) as u32;
            if state & 3 == 0 {
                h.remove(slot);
                reference[slot as usize] = None;
            } else {
                let key = (state >> 20) % 100;
                h.set(slot, key);
                reference[slot as usize] = Some(key);
            }
            let want = reference
                .iter()
                .enumerate()
                .filter_map(|(s, k)| k.map(|k| (k, s as u32)))
                .min();
            assert_eq!(h.peek(), want);
        }
    }

    #[test]
    fn window_tracks_states_and_drops_its_finished_prefix() {
        let spec = |token| FlowSpec::direct(1, SimDuration::ZERO, 1.0, token);
        let mut w = FlowWindow::default();
        let ids: Vec<FlowId> = (0..4).map(|t| w.start(spec(t))).collect();
        assert_eq!(ids, vec![FlowId(0), FlowId(1), FlowId(2), FlowId(3)]);
        assert_eq!(w.pending_count(), 4);
        assert!(w.cancel_pending(ids[1]));
        assert!(!w.cancel_pending(ids[1]), "already tombstoned");
        assert_eq!(w.tombstone_count(), 1);
        assert_eq!(w.activate(ids[0]).map(|s| s.token), Some(0));
        assert!(w.activate(ids[1]).is_none(), "tombstoned start is a no-op");
        assert_eq!(w.activate(ids[2]).map(|s| s.token), Some(2));
        w.member_mut(2).expect("active").slot = 7;
        let active: Vec<(FlowId, u32)> = w.active().map(|(id, m)| (id, m.slot)).collect();
        assert_eq!(active, vec![(FlowId(0), u32::MAX), (FlowId(2), 7)]);
        assert_eq!(
            (w.pending_count(), w.active_count(), w.tombstone_count()),
            (1, 2, 0)
        );
        w.retire(0);
        assert_eq!(w.states.len(), 2, "ids 0 and 1 are done and dropped");
        assert!(w.member(0).is_none() && w.member(1).is_none());
        assert_eq!(w.member(2).map(|m| m.slot), Some(7));
        w.retire(2);
        assert!(w.activate(ids[3]).is_some());
        w.retire(3);
        assert!(w.states.is_empty());
        assert_eq!(w.start(spec(9)), FlowId(4), "ids keep counting");
    }
}
