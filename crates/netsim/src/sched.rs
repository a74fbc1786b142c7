//! The simulator's event queue: a binary min-heap ordered by `(time, seq)`.
//!
//! `seq` is a global insertion counter, so `(time, seq)` is a unique total
//! order: events pop earliest first, same-instant events in insertion
//! order, and [`EventQueue::peek`] is always the exact next pop. Queues
//! stay small on the workloads the simulator serves (48–384 events on the
//! paper cells), where a heap's ~9 comparisons per operation beat any
//! bucketed scheme's re-inserts.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

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

/// Min-heap of events ordered by `(time, seq)`.
#[derive(Debug)]
pub(crate) struct EventQueue<T>(BinaryHeap<Reverse<Entry<T>>>);

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue(BinaryHeap::new())
    }
}

impl<T: Eq> EventQueue<T> {
    /// Total queued events.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Queue an event; `seq` must be unique across the queue's lifetime.
    pub fn push(&mut self, time: u64, seq: u64, item: T) {
        self.0.push(Reverse(Entry { time, seq, item }));
    }

    /// The earliest event, without removing it.
    pub fn peek(&self) -> Option<&Entry<T>> {
        self.0.peek().map(|Reverse(e)| e)
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<Entry<T>> {
        self.0.pop().map(|Reverse(e)| e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn orders_by_time_then_seq() {
        let mut q = EventQueue::default();
        q.push(50, 2, 0);
        q.push(10, 1, 1);
        q.push(50, 0, 2);
        q.push(10, 3, 3);
        let drained: Vec<_> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.time, e.seq, e.item))
            .collect();
        assert_eq!(
            drained,
            vec![(10, 1, 1), (10, 3, 3), (50, 0, 2), (50, 2, 0)]
        );
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::default();
        q.push(7, 0, 1);
        assert_eq!(q.peek().map(|e| e.time), Some(7));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|e| e.item), Some(1));
        assert!(q.peek().is_none());
    }

    proptest! {
        /// Random interleaved push/pop/peek sequences pop exactly what a
        /// `(time, seq)`-sorted `Vec` hands out, and `peek` always names
        /// the next pop. A step `(op, delta, n, spread)` pushes `n`
        /// events `delta` ns after the last popped time when `op < 2`
        /// (all at one instant unless `spread`), pops when `op == 2` and
        /// peeks when `op == 3`.
        #[test]
        fn matches_sorted_vec_reference(
            steps in prop::collection::vec(
                (
                    0u8..4,
                    prop_oneof![
                        0u64..64,
                        0u64..1_000_000,
                        0u64..3_000_000_000,
                        // Far future: beyond 2^36 ns, about 68.7 simulated seconds.
                        (1u64 << 36)..(1u64 << 42),
                    ],
                    1u64..6,
                    0u8..2,
                ),
                1..200,
            ),
        ) {
            let mut q = EventQueue::default();
            let mut reference: Vec<(u64, u64, u32)> = Vec::new();
            let (mut seq, mut now) = (0u64, 0u64);
            for (op, delta, n, spread) in steps {
                match op {
                    0 | 1 => {
                        for k in 1..=n {
                            let time = now + if spread == 1 { delta * k } else { delta };
                            let item = (seq % 997) as u32;
                            q.push(time, seq, item);
                            reference.push((time, seq, item));
                            seq += 1;
                        }
                        reference.sort_unstable_by(|a, b| b.cmp(a));
                    }
                    2 => {
                        let got = q.pop().map(|e| (e.time, e.seq, e.item));
                        prop_assert_eq!(got, reference.pop());
                        if let Some((time, _, _)) = got {
                            now = time;
                        }
                    }
                    _ => {
                        let got = q.peek().map(|e| (e.time, e.seq, e.item));
                        prop_assert_eq!(got, reference.last().copied());
                    }
                }
                prop_assert_eq!(q.len(), reference.len());
            }
            while let Some(want) = reference.pop() {
                prop_assert_eq!(q.pop().map(|e| (e.time, e.seq, e.item)), Some(want));
            }
            prop_assert!(q.pop().is_none());
        }
    }
}
