//! Hierarchical timer-wheel event queue with a far-future overflow level.
//!
//! Replaces the old global `BinaryHeap<QueuedEvent>`: pops are strictly
//! ordered by `(time, seq)` — byte-identical to the heap's earliest-first,
//! insertion-order-on-ties contract — but inserts and pops are O(1)
//! amortized instead of O(log n), and the wheel never compares more than
//! a handful of entries per pop.
//!
//! Layout: [`LEVELS`] levels of [`SLOTS`] slots each. Level `l` buckets
//! events by bits `[6l, 6(l+1))` of their nanosecond timestamp, so level 0
//! resolves single nanoseconds and the top level spans
//! `64^LEVELS` ≈ 68.7 simulated seconds from the current clock. Events
//! beyond that horizon — far-future fault schedules, parked-flow
//! prediction clamps — go to a binary-heap overflow level and migrate
//! into the wheel when the clock approaches them.
//!
//! Determinism: every pop returns the globally smallest `(time, seq)`
//! pair. A level-0 slot resolves one nanosecond, so all its entries
//! share one timestamp; the slot is kept sorted by seq and a pop takes
//! its head, however many same-instant events it holds. Cascades
//! preserve entries verbatim and the overflow heap orders by the same
//! key, so no ordering depends on insertion batching or wheel geometry.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// log2 of the slot count per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Number of wheel levels; beyond `64^LEVELS` ns from the clock events
/// overflow to the heap level.
const LEVELS: usize = 6;
/// Bits of timestamp covered by the wheel.
const WHEEL_BITS: u32 = SLOT_BITS * LEVELS as u32;

/// One queued event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Entry<T> {
    /// Absolute timestamp in nanoseconds.
    pub time: u64,
    /// Global insertion sequence — the deterministic tiebreak.
    pub seq: u64,
    /// Caller payload.
    pub item: T,
}

impl<T: Eq> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl<T: Eq> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Hierarchical timer wheel ordered by `(time, seq)`.
#[derive(Debug)]
pub(crate) struct EventQueue<T> {
    /// `levels[l][s]`: events whose level-`l` tick is `s` within the
    /// current level-`l+1` window. Level-0 slots are sorted by seq.
    levels: Vec<Vec<VecDeque<Entry<T>>>>,
    /// Per-level slot-occupancy bitmaps (bit `s` set ⇔ slot non-empty).
    occupied: [u64; LEVELS],
    /// Events at or beyond `clock + 64^LEVELS`.
    overflow: BinaryHeap<Reverse<Entry<T>>>,
    /// Events *below* `clock`: [`EventQueue::peek`] advances the wheel
    /// clock to the stashed minimum, so the caller may legitimately push
    /// events between its own (earlier) logical clock and the wheel
    /// clock afterwards. Every entry here is strictly smaller than every
    /// wheel/overflow entry, so the front heap drains first. It is not
    /// necessarily small: a caller that peeks the head to order it
    /// against another event source, then pushes events at its earlier
    /// instant, feeds it. The simulator's event loop consults
    /// [`EventQueue::head_bound`] first and peeks only when the bound
    /// does not decide: on its two-cluster PG1 reference iteration that
    /// serves 7% of pops from here, against 49% when it always peeks.
    front: BinaryHeap<Reverse<Entry<T>>>,
    /// Lower bound on every *wheel/overflow* event's timestamp; advances
    /// on pops and cascades, never beyond the next wheel event.
    clock: u64,
    /// Entries in the wheel levels (excluding overflow).
    in_wheel: usize,
    /// One-slot peek buffer: a popped-but-unconsumed entry. Always the
    /// global minimum while present.
    stash: Option<Entry<T>>,
}

impl<T: Copy + Eq + std::fmt::Debug> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue {
            levels: (0..LEVELS)
                .map(|_| (0..SLOTS).map(|_| VecDeque::new()).collect())
                .collect(),
            occupied: [0; LEVELS],
            overflow: BinaryHeap::new(),
            front: BinaryHeap::new(),
            clock: 0,
            in_wheel: 0,
            stash: None,
        }
    }
}

impl<T: Copy + Eq + std::fmt::Debug> EventQueue<T> {
    /// Total queued events.
    pub fn len(&self) -> usize {
        self.in_wheel + self.overflow.len() + self.front.len() + usize::from(self.stash.is_some())
    }

    /// True when no event is queued.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Queue an event. Times below the *wheel* clock are legal — a peek
    /// may have advanced the wheel ahead of the caller's logical now —
    /// and keep their raw timestamp via the `front` heap.
    pub fn push(&mut self, time: u64, seq: u64, item: T) {
        // Re-stash comparison on the raw key: the stash must stay the
        // global minimum.
        if let Some(st) = self.stash {
            if (time, seq) < (st.time, st.seq) {
                self.stash = Some(Entry { time, seq, item });
                self.insert_any(st);
                return;
            }
        }
        self.insert_any(Entry { time, seq, item });
    }

    /// Insert without assuming `e.time >= clock`: below-clock entries go
    /// to the front heap, everything else into the wheel or overflow.
    fn insert_any(&mut self, e: Entry<T>) {
        if e.time < self.clock {
            self.front.push(Reverse(e));
        } else {
            self.insert(e);
        }
    }

    fn insert(&mut self, e: Entry<T>) {
        let Some(level) = self.level_for(e.time) else {
            self.overflow.push(Reverse(e));
            return;
        };
        let slot = ((e.time >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        let bucket = &mut self.levels[level][slot];
        match bucket.back() {
            // Out-of-order seq (a re-inserted stash or a cascade) on a
            // level-0 slot: keep the slot sorted.
            Some(last) if level == 0 && last.seq > e.seq => {
                let at = bucket.partition_point(|x| x.seq < e.seq);
                bucket.insert(at, e);
            }
            _ => bucket.push_back(e),
        }
        self.occupied[level] |= 1u64 << slot;
        self.in_wheel += 1;
    }

    /// The lowest level whose current window contains `time`, or `None`
    /// for the overflow heap. Level `l` holds `time` when it shares the
    /// clock's level-`l+1` tick.
    fn level_for(&self, time: u64) -> Option<usize> {
        debug_assert!(time >= self.clock, "event time below queue clock");
        for l in 0..LEVELS {
            let shift = SLOT_BITS * (l as u32 + 1);
            if time >> shift == self.clock >> shift {
                return Some(l);
            }
        }
        None
    }

    /// A lower bound on the next pop's `(time, seq)`, computed without
    /// moving the wheel clock; `None` when the queue is empty. It is exact
    /// when the head is stashed, in `front` or in a level-0 slot, and the
    /// start of the head's slot window otherwise.
    pub fn head_bound(&self) -> Option<(u64, u64)> {
        if let Some(st) = self.stash {
            return Some((st.time, st.seq));
        }
        if let Some(Reverse(e)) = self.front.peek() {
            return Some((e.time, e.seq));
        }
        let overflow = self.overflow.peek().map(|Reverse(e)| (e.time, e.seq));
        if self.in_wheel == 0 {
            return overflow;
        }
        // The first occupied slot at/after the clock's tick on the lowest
        // such level holds the wheel minimum (see `pop_inner`).
        for l in 0..LEVELS {
            let shift = SLOT_BITS * l as u32;
            let tick = ((self.clock >> shift) & (SLOTS as u64 - 1)) as u32;
            let masked = self.occupied[l] & (!0u64).wrapping_shl(tick);
            if masked == 0 {
                continue;
            }
            let slot = masked.trailing_zeros() as usize;
            let wheel = match self.levels[l][slot].front() {
                Some(e) if l == 0 => (e.time, e.seq),
                _ => {
                    let upper = shift + SLOT_BITS;
                    (
                        ((self.clock >> upper) << upper) | ((slot as u64) << shift),
                        0,
                    )
                }
            };
            return Some(overflow.map_or(wheel, |o| o.min(wheel)));
        }
        overflow
    }

    /// Earliest `(time, seq)` without removing the event.
    pub fn peek(&mut self) -> Option<&Entry<T>> {
        if self.stash.is_none() {
            self.stash = self.pop_inner();
        }
        self.stash.as_ref()
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<Entry<T>> {
        if let Some(e) = self.stash.take() {
            return Some(e);
        }
        self.pop_inner()
    }

    fn pop_inner(&mut self) -> Option<Entry<T>> {
        // Front entries are strictly below the wheel clock, hence below
        // every wheel/overflow entry: they always drain first. The clock
        // is deliberately left alone.
        if let Some(Reverse(e)) = self.front.pop() {
            return Some(e);
        }
        loop {
            // Migrate overflow entries that now fit the wheel window, so
            // the wheel minimum is always the global minimum (any
            // overflow entry smaller than a wheel entry necessarily fits
            // the wheel's top-level window).
            while let Some(Reverse(top)) = self.overflow.peek() {
                if top.time >> WHEEL_BITS == self.clock >> WHEEL_BITS {
                    let Reverse(e) = self
                        .overflow
                        .pop()
                        .expect("overflow heap is non-empty: peek just returned an entry");
                    self.insert(e);
                } else {
                    break;
                }
            }
            if self.in_wheel == 0 {
                // Jump the clock straight to the far-future event.
                let Reverse(e) = self.overflow.pop()?;
                self.clock = e.time;
                return Some(e);
            }
            // Lowest level with an occupied slot at/after the clock's
            // tick in that level's current window. Earlier slots cannot
            // hold events ≥ clock (they would live at a higher level).
            let mut found = None;
            for l in 0..LEVELS {
                let tick = ((self.clock >> (SLOT_BITS * l as u32)) & (SLOTS as u64 - 1)) as u32;
                let masked = self.occupied[l] & (!0u64).wrapping_shl(tick);
                if masked != 0 {
                    found = Some((l, masked.trailing_zeros() as usize));
                    break;
                }
            }
            let (level, slot) = found.expect("wheel count positive but no occupied slot");
            if level == 0 {
                let bucket = &mut self.levels[0][slot];
                let e = bucket.pop_front().expect("occupied slot is non-empty");
                if bucket.is_empty() {
                    self.occupied[0] &= !(1u64 << slot);
                }
                self.in_wheel -= 1;
                self.clock = e.time;
                return Some(e);
            }
            // Cascade: rebase the clock to the slot's window start and
            // redistribute its entries to lower levels.
            let shift = SLOT_BITS * level as u32;
            let upper = SLOT_BITS * (level as u32 + 1);
            self.clock = ((self.clock >> upper) << upper) | ((slot as u64) << shift);
            let entries = std::mem::take(&mut self.levels[level][slot]);
            self.occupied[level] &= !(1u64 << slot);
            self.in_wheel -= entries.len();
            for e in entries {
                self.insert(e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut EventQueue<u32>) -> Vec<(u64, u64, u32)> {
        let mut out = Vec::new();
        while let Some(e) = q.pop() {
            out.push((e.time, e.seq, e.item));
        }
        out
    }

    #[test]
    fn orders_by_time_then_seq() {
        let mut q = EventQueue::default();
        q.push(50, 2, 0);
        q.push(10, 1, 1);
        q.push(50, 0, 2);
        q.push(10, 3, 3);
        assert_eq!(
            drain(&mut q),
            vec![(10, 1, 1), (10, 3, 3), (50, 0, 2), (50, 2, 0)]
        );
    }

    #[test]
    fn far_future_goes_through_overflow() {
        let mut q = EventQueue::default();
        q.push(1u64 << 40, 0, 7); // beyond the 2^36 wheel horizon
        q.push(5, 1, 8);
        q.push((1u64 << 40) + 3, 2, 9);
        assert_eq!(
            drain(&mut q),
            vec![(5, 1, 8), (1 << 40, 0, 7), ((1 << 40) + 3, 2, 9)]
        );
    }

    #[test]
    fn interleaved_push_pop_stays_sorted() {
        let mut q = EventQueue::default();
        q.push(100, 0, 0);
        q.push(200, 1, 1);
        assert_eq!(q.pop().unwrap().time, 100);
        // Pushes relative to the advanced clock land correctly.
        q.push(150, 2, 2);
        q.push(120, 3, 3);
        assert_eq!(drain(&mut q), vec![(120, 3, 3), (150, 2, 2), (200, 1, 1)]);
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::default();
        q.push(7, 0, 1);
        assert_eq!(q.peek().unwrap().time, 7);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().item, 1);
        assert!(q.peek().is_none());
    }

    #[test]
    fn push_below_stash_reorders() {
        let mut q = EventQueue::default();
        q.push(100, 0, 1);
        assert_eq!(q.peek().unwrap().time, 100); // stashes the 100
        q.push(100, 1, 2);
        q.push(60, 2, 3); // smaller than the stash
        assert_eq!(drain(&mut q), vec![(60, 2, 3), (100, 0, 1), (100, 1, 2)]);
    }

    #[test]
    fn pushes_between_consumed_time_and_wheel_clock_stay_ordered() {
        let mut q = EventQueue::default();
        q.push(10, 0, 1);
        q.push(500, 1, 2);
        assert_eq!(q.pop().unwrap().time, 10);
        // Peek advances the wheel clock to 500 while the consumer's
        // logical now is still 10.
        assert_eq!(q.peek().unwrap().time, 500);
        q.push(60, 2, 3); // below the stash: becomes the new minimum
        let e = q.pop().unwrap();
        assert_eq!((e.time, e.seq, e.item), (60, 2, 3));
        // Stash (500) went back in the wheel; more below-clock pushes.
        q.push(70, 3, 4);
        q.push(65, 4, 5);
        assert_eq!(q.len(), 3);
        assert_eq!(drain(&mut q), vec![(65, 4, 5), (70, 3, 4), (500, 1, 2)]);
    }

    #[test]
    fn matches_binary_heap_reference_on_pseudorandom_load() {
        // Deterministic LCG workload: interleave pushes and pops, compare
        // byte-for-byte with a BinaryHeap ordered by (time, seq).
        let mut q = EventQueue::default();
        let mut h: BinaryHeap<Reverse<Entry<u32>>> = BinaryHeap::new();
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut seq = 0u64;
        let mut clock = 0u64;
        for round in 0..2000 {
            // Push a burst with mixed near/far deltas.
            for _ in 0..(next() % 4) {
                let r = next();
                let delta = match r % 5 {
                    0 => r % 64,              // same level-0 window
                    1 => r % 4_096,           // level 1
                    2 => r % 1_000_000,       // microseconds
                    3 => r % 3_000_000_000,   // seconds
                    _ => r % 200_000_000_000, // beyond the wheel horizon
                };
                let t = clock + delta;
                q.push(t, seq, (round % 1024) as u32);
                h.push(Reverse(Entry {
                    time: t.max(clock),
                    seq,
                    item: (round % 1024) as u32,
                }));
                seq += 1;
            }
            if next() % 3 != 0 {
                let bound = q.head_bound();
                let a = q.pop();
                let b = h.pop().map(|Reverse(e)| e);
                assert_eq!(a, b, "divergence at round {round}");
                match (bound, a) {
                    (Some(bound), Some(e)) => assert!(bound <= (e.time, e.seq), "round {round}"),
                    (bound, e) => assert_eq!(bound.is_none(), e.is_none()),
                }
                if let Some(e) = a {
                    clock = e.time;
                }
            }
        }
        // Drain the remainder in lockstep.
        loop {
            let a = q.pop();
            let b = h.pop().map(|Reverse(e)| e);
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn same_instant_slot_pops_in_seq_order() {
        let mut q = EventQueue::default();
        for seq in [4, 1, 3] {
            q.push(9, seq, seq as u32);
        }
        // A stash displaced by a smaller push goes back out of order.
        assert_eq!(q.peek().map(|e| e.seq), Some(1));
        q.push(9, 0, 0);
        q.push(9, 2, 2);
        assert_eq!(q.head_bound(), Some((9, 0)));
        let seqs: Vec<u64> = drain(&mut q).iter().map(|e| e.1).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn head_bound_does_not_move_the_clock() {
        let mut q = EventQueue::default();
        assert_eq!(q.head_bound(), None);
        q.push(10, 0, 0);
        q.push(5_000, 1, 1);
        assert_eq!(q.pop().map(|e| e.time), Some(10));
        // The 5000 ns event sits on level 2; the bound is its slot
        // window's start, and asking for it leaves the clock at 10.
        assert_eq!(q.head_bound(), Some((4_096, 0)));
        q.push(20, 2, 2);
        assert_eq!(q.head_bound(), Some((20, 2)));
        assert!(
            q.front.is_empty(),
            "a push after a bound stays in the wheel"
        );
        assert_eq!(drain(&mut q), vec![(20, 2, 2), (5_000, 1, 1)]);
    }

    #[test]
    fn len_tracks_all_layers() {
        let mut q = EventQueue::default();
        assert!(q.is_empty());
        q.push(1, 0, 0);
        q.push(1u64 << 50, 1, 1);
        assert_eq!(q.len(), 2);
        q.peek();
        assert_eq!(q.len(), 2, "peek must not change the length");
        q.pop();
        q.pop();
        assert!(q.is_empty());
    }
}
