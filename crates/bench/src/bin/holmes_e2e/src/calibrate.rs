//! A fixed reference kernel, timed alongside the queries, that takes the
//! host's speed out of every reported time.
//!
//! Shared hosts change speed for minutes at a time. On the 2-vCPU KVM
//! guest (Intel Xeon) the bounds were set on, this kernel's CPU time
//! ranged from 13.5 ms to over 29 ms between runs. Other tenants contend
//! for the host's caches and memory, which slows the guest even when no
//! time is stolen from it and hits memory-bound code hardest. In one busy
//! stretch `paper_grid`'s wall-clock time metrics spread (IQR over median)
//! by up to 0.34 over ten runs. Scaled by this kernel, the same runs
//! spread by at most 0.073.
//!
//! The kernel never calls the library, so no library change can move it.
//! It has two halves. One does random read-modify-writes with dependent
//! loads over a 4 MiB table, which lies beyond L2 and feels
//! last-level-cache contention. The other is a small discrete-event loop
//! shaped like the simulator: a binary heap of timed events, a vector of
//! flows and a hash map of link loads. Each round of queries is scaled by
//! the kernel run just before it, so a burst that slows both cancels out.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;

use crate::clock::cpu_seconds;

/// The kernel's median time on the reference host when it is quiet.
/// Reported times are wall times scaled to this speed.
pub const REFERENCE_S: f64 = 0.0135;

const WORDS: usize = 1 << 19; // 4 MiB of u64
const TABLE_STEPS: u64 = 100_000;
const HEAP: usize = 4096;
const FLOWS: usize = 4096;
const LINKS: u32 = 256;
const EVENTS: usize = 60_000;

#[derive(Clone, Copy)]
struct Flow {
    rate: f64,
    left: f64,
    link: u32,
}

pub struct Kernel {
    table: Vec<u64>,
}

impl Kernel {
    pub fn new() -> Self {
        Kernel {
            table: (0..WORDS as u64).collect(),
        }
    }

    /// Run the kernel once; returns the CPU seconds it took.
    pub fn time(&mut self) -> f64 {
        let t0 = cpu_seconds();
        self.table_walk();
        event_loop();
        cpu_seconds() - t0
    }

    /// Scale `seconds`, measured while the kernel took `kernel_s`, to the
    /// reference host's speed.
    pub fn at_reference(seconds: f64, kernel_s: f64) -> f64 {
        seconds * REFERENCE_S / kernel_s
    }

    fn table_walk(&mut self) {
        let mut heap = BinaryHeap::with_capacity(HEAP + 1);
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for step in 0..TABLE_STEPS {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let i = (x >> 33) as usize % WORDS;
            let v = self.table[i].wrapping_add(x) ^ step;
            self.table[i] = v;
            // The next load's address depends on the value just written.
            heap.push(Reverse(self.table[v as usize % WORDS]));
            if heap.len() > HEAP {
                heap.pop();
            }
        }
        black_box(&self.table);
        black_box(&heap);
    }
}

fn event_loop() {
    let mut flows: Vec<Flow> = (0..FLOWS)
        .map(|i| Flow {
            rate: 1.0 + (i % 7) as f64,
            left: 1e6 + (i * 997 % FLOWS) as f64,
            link: (i as u32 * 31) % LINKS,
        })
        .collect();
    let mut load: HashMap<u32, u32> = HashMap::new();
    for f in &flows {
        *load.entry(f.link).or_default() += 1;
    }
    let mut events: BinaryHeap<Reverse<(u64, u32)>> = flows
        .iter()
        .enumerate()
        .map(|(i, f)| Reverse(((f.left / f.rate) as u64, i as u32)))
        .collect();
    let mut now = 0u64;
    for _ in 0..EVENTS {
        let Some(Reverse((t, i))) = events.pop() else {
            break;
        };
        let dt = t.saturating_sub(now) as f64;
        now = t;
        let f = &mut flows[i as usize];
        let sharers = f64::from(load.get(&f.link).copied().unwrap_or(1));
        f.left = 1e6 + dt * 0.5;
        f.rate = 1.0 + 8.0 / sharers;
        f.link = (f.link * 17 + 3) % LINKS;
        *load.entry(f.link).or_default() += 1;
        events.push(Reverse((now + (f.left / f.rate) as u64, i)));
    }
    black_box(&flows);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_cancels_a_uniformly_slower_host() {
        // A host twice as slow doubles both the query and the kernel.
        let quiet = Kernel::at_reference(0.010, REFERENCE_S);
        let slow = Kernel::at_reference(0.020, 2.0 * REFERENCE_S);
        assert!((quiet - 0.010).abs() < 1e-15);
        assert!((slow - quiet).abs() < 1e-15);
    }

    #[test]
    fn the_kernel_takes_measurable_time() {
        let mut k = Kernel::new();
        assert!(k.time() > 0.0);
    }
}
