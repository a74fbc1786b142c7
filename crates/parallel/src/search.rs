//! Exhaustive placement search over cluster orderings.
//!
//! [`crate::HolmesScheduler`] is a *heuristic*: concatenate clusters
//! fastest-NIC-first. This module searches every cluster permutation and
//! scores each candidate by the analytic data-parallel cost
//! ([`NicSelectionReport::dp_sync_cost_seconds`]) under one
//! [`PlacementWorkload`]: gradient sync plus compute-straggler skew, with
//! a bare `u64` gradient volume standing for the zero-FLOPs workload. One
//! entry, [`search_cluster_orders`], serves both pricing axes. It provides
//!
//! * the **reference oracle** for the guided branch-and-bound planner,
//!   [`crate::synthesize_placement`] (the equivalence tests assert the
//!   guided search returns the bit-identical winner on every small
//!   topology);
//! * an optimality check for the heuristic (the test suite proves the
//!   heuristic matches the exhaustive optimum on every paper topology).
//!
//! The winner is *canonical*: minimal cost (exact `f64` comparison), ties
//! broken toward the order that is lexicographically smallest after
//! relabeling clusters by [`crate::HolmesScheduler::cluster_order`]
//! position — so among equal-cost orders the heuristic's fastest-first
//! order wins, and every search strategy agrees on one winner.
//!
//! Permutations are *streamed*: one scratch buffer (Heap's algorithm, one
//! swap per step) fills fixed-size chunks that are scored with `par_iter`
//! and folded in candidate order, so exhaustive search stays
//! memory-bounded even when `M!` is astronomically large (though at that
//! scale you want [`crate::synthesize_placement`] instead). The winner never
//! depends on the thread count: `RAYON_NUM_THREADS=1` scores each chunk
//! serially in place and gives the same bits.

use holmes_topology::{ClusterId, Topology};
use rayon::prelude::*;

use crate::groups::GroupLayout;
use crate::nic_selection::NicSelectionReport;
use crate::scheduler::DeviceAssignment;
use crate::skew::PlacementWorkload;
use crate::synth::speed_rank_of;

/// Result of a placement search (exhaustive or guided).
#[derive(Debug, Clone)]
pub struct PlacementSearchResult {
    /// The winning cluster visit order.
    pub cluster_order: Vec<ClusterId>,
    /// The assignment induced by that order.
    pub assignment: DeviceAssignment,
    /// Its analytic DP synchronization cost (seconds).
    pub cost_seconds: f64,
    /// Number of complete plans scored (`M!` overflows `u32` at `M = 13`,
    /// hence `u64`).
    pub evaluated: u64,
}

/// Build the assignment that concatenates clusters in `order`.
pub fn assignment_for_order(topo: &Topology, order: &[ClusterId]) -> DeviceAssignment {
    let mut device_of = Vec::with_capacity(topo.device_count() as usize);
    for &cluster in order {
        device_of.extend(topo.cluster_ranks(cluster));
    }
    DeviceAssignment::from_permutation(device_of)
}

/// Score one complete cluster order: the plan-wide analytic DP cost under
/// `workload` — each DP group pays its gradient-sync cost *plus* its
/// compute-straggler skew at the workload's stage FLOPs.
///
/// Exhaustive search scores through it. Guided synthesis, its incumbent
/// included, folds the same per-group
/// [`crate::DpGroupNic::workload_cost_seconds`] through a memo keyed by
/// node pattern, so costs stay bit-comparable across strategies.
pub(crate) fn cost_of_order(
    topo: &Topology,
    layout: &GroupLayout,
    order: &[ClusterId],
    workload: PlacementWorkload,
) -> f64 {
    let assignment = assignment_for_order(topo, order);
    NicSelectionReport::analyze(topo, layout, &assignment).dp_sync_cost_seconds(topo, workload)
}

/// Iterative permutation generator over `0..n` (Heap's algorithm).
///
/// Yields each of the `n!` orderings exactly once, starting from the
/// identity, mutating a single scratch buffer with one swap per step.
/// `next_perm` lends a view of that buffer — no per-step allocation or
/// clone; callers that need to keep an ordering copy it out themselves.
pub(crate) struct Permutations {
    items: Vec<usize>,
    counters: Vec<usize>,
    i: usize,
    first: bool,
}

impl Permutations {
    pub(crate) fn new(n: usize) -> Self {
        Permutations {
            items: (0..n).collect(),
            counters: vec![0; n],
            i: 1,
            first: true,
        }
    }

    /// Advance to the next permutation, lending the internal buffer.
    /// Returns `None` once all `n!` orderings have been yielded.
    pub(crate) fn next_perm(&mut self) -> Option<&[usize]> {
        if self.first {
            self.first = false;
            return Some(&self.items);
        }
        while self.i < self.items.len() {
            if self.counters[self.i] < self.i {
                if self.i.is_multiple_of(2) {
                    self.items.swap(0, self.i);
                } else {
                    self.items.swap(self.counters[self.i], self.i);
                }
                self.counters[self.i] += 1;
                self.i = 1;
                return Some(&self.items);
            }
            self.counters[self.i] = 0;
            self.i += 1;
        }
        None
    }
}

/// Tracks the canonical winner across streamed candidates: minimal
/// `(cost, speed-rank-relabeled order)` under exact `f64` comparison and
/// lexicographic tie-break. Folding is order-independent, so the winner
/// does not depend on how candidates are chunked or scheduled.
struct CanonicalBest {
    rank_of: Vec<u16>,
    order: Vec<ClusterId>,
    canon: Vec<u16>,
    cost: f64,
}

impl CanonicalBest {
    fn new(rank_of: Vec<u16>) -> Self {
        CanonicalBest {
            rank_of,
            order: Vec::new(),
            canon: Vec::new(),
            cost: f64::INFINITY,
        }
    }

    fn canon_of(&self, order: &[ClusterId]) -> Vec<u16> {
        order.iter().map(|c| self.rank_of[c.0 as usize]).collect()
    }

    fn offer(&mut self, order: &[ClusterId], cost: f64) {
        use std::cmp::Ordering;
        match cost.total_cmp(&self.cost) {
            Ordering::Greater => {}
            Ordering::Less => {
                self.order = order.to_vec();
                self.canon = self.canon_of(order);
                self.cost = cost;
            }
            Ordering::Equal => {
                let canon = self.canon_of(order);
                if canon < self.canon {
                    self.order = order.to_vec();
                    self.canon = canon;
                    self.cost = cost;
                }
            }
        }
    }
}

/// Search every cluster ordering, scoring each against `workload` (a bare
/// `u64` gradient volume is the zero-FLOPs workload). Returns the canonical
/// winner (minimal cost, ties toward the fastest-first relabeled
/// lexicographic minimum).
#[expect(clippy::cast_possible_truncation, reason = "i < cluster_count()")]
pub fn search_cluster_orders(
    topo: &Topology,
    layout: &GroupLayout,
    workload: impl Into<PlacementWorkload>,
) -> PlacementSearchResult {
    /// Orders scored per parallel batch — bounds live memory at
    /// `CHUNK · M · size_of::<ClusterId>()` instead of `M!`.
    const CHUNK: usize = 1024;

    let workload = workload.into();
    let m = topo.cluster_count() as usize;
    let mut best = CanonicalBest::new(speed_rank_of(topo));
    let mut evaluated: u64 = 0;

    let mut perms = Permutations::new(m);
    let mut chunk: Vec<Vec<ClusterId>> = Vec::with_capacity(CHUNK);
    loop {
        chunk.clear();
        while chunk.len() < CHUNK {
            match perms.next_perm() {
                Some(perm) => chunk.push(perm.iter().map(|&i| ClusterId(i as u32)).collect()),
                None => break,
            }
        }
        if chunk.is_empty() {
            break;
        }
        let costs: Vec<f64> = chunk
            .par_iter()
            .map(|order| cost_of_order(topo, layout, order, workload))
            .collect();
        for (order, cost) in chunk.iter().zip(costs) {
            evaluated += 1;
            best.offer(order, cost);
        }
        if chunk.len() < CHUNK {
            break;
        }
    }
    let assignment = assignment_for_order(topo, &best.order);
    PlacementSearchResult {
        cluster_order: best.order,
        assignment,
        cost_seconds: best.cost,
        evaluated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degrees::ParallelDegrees;
    use crate::scheduler::HolmesScheduler;
    use holmes_topology::presets;

    const GRAD: u64 = 1 << 32; // 4 GiB, PG-scale

    fn layout_for(topo: &Topology, t: u32, p: u32) -> GroupLayout {
        GroupLayout::new(ParallelDegrees::infer_data(t, p, topo.device_count()).unwrap())
    }

    fn collect_perms(n: usize) -> Vec<Vec<usize>> {
        let mut perms = Permutations::new(n);
        let mut all = Vec::new();
        while let Some(p) = perms.next_perm() {
            all.push(p.to_vec());
        }
        all
    }

    #[test]
    fn permutations_enumerate_factorially() {
        assert_eq!(collect_perms(0).len(), 1);
        assert_eq!(collect_perms(1).len(), 1);
        assert_eq!(collect_perms(3).len(), 6);
        assert_eq!(collect_perms(4).len(), 24);
        // The first ordering is the identity.
        assert_eq!(
            Permutations::new(4).next_perm(),
            Some(&[0usize, 1, 2, 3][..])
        );
        // Each is a permutation of 0..n, and all are distinct.
        let all = collect_perms(4);
        for p in &all {
            let mut q = p.clone();
            q.sort_unstable();
            assert_eq!(q, vec![0, 1, 2, 3]);
        }
        let mut dedup = all.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len());
    }

    #[test]
    fn heuristic_matches_exhaustive_on_paper_topologies() {
        for (topo, p) in [
            (presets::hybrid_two_cluster(2), 2u32),
            (presets::table4_2r_2r_2ib(), 3),
            (presets::table4_2r_2ib_2ib(), 3),
            (presets::table4_4r_4ib_4ib(), 3),
        ] {
            let layout = layout_for(&topo, 1, p);
            let exhaustive = search_cluster_orders(&topo, &layout, GRAD);
            let heuristic = HolmesScheduler::assign(&topo);
            let heuristic_cost = NicSelectionReport::analyze(&topo, &layout, &heuristic)
                .dp_sync_cost_seconds(&topo, GRAD);
            assert!(
                heuristic_cost <= exhaustive.cost_seconds + 1e-9,
                "heuristic {heuristic_cost} vs exhaustive {}",
                exhaustive.cost_seconds
            );
        }
    }

    #[test]
    fn cost_ties_break_toward_the_fastest_first_order() {
        // On the aligned three-cluster preset every order costs the same
        // (each stage block is one cluster), so the canonical winner must
        // be the heuristic's fastest-first order, not the identity.
        let topo = presets::table4_2r_2ib_2ib(); // RoCE, IB, IB
        let layout = layout_for(&topo, 1, 3);
        let result = search_cluster_orders(&topo, &layout, GRAD);
        assert_eq!(result.cluster_order, HolmesScheduler::cluster_order(&topo));
        assert_eq!(
            result.cluster_order,
            vec![ClusterId(1), ClusterId(2), ClusterId(0)]
        );
    }

    #[test]
    fn search_beats_the_identity_order_when_identity_misaligns() {
        // 3 clusters, but p=2: some stage must span two clusters. The
        // search finds an order that minimizes the damage.
        let topo = presets::table4_2r_2ib_2ib(); // RoCE, IB, IB
        let layout = layout_for(&topo, 1, 2);
        let result = search_cluster_orders(&topo, &layout, GRAD);
        assert_eq!(result.evaluated, 6);
        // With p=2 over 3 clusters, each DP group (d=24) inevitably spans
        // a cluster boundary — no order can fully restore RDMA — but the
        // search must still never lose to the identity order.
        let identity = assignment_for_order(&topo, &[ClusterId(0), ClusterId(1), ClusterId(2)]);
        let identity_cost = NicSelectionReport::analyze(&topo, &layout, &identity)
            .dp_sync_cost_seconds(&topo, GRAD);
        assert!(result.cost_seconds <= identity_cost + 1e-12);
    }

    #[test]
    fn single_cluster_search_is_trivial() {
        let topo = presets::homogeneous(holmes_topology::NicType::InfiniBand, 4);
        let layout = layout_for(&topo, 1, 2);
        let result = search_cluster_orders(&topo, &layout, GRAD);
        assert_eq!(result.evaluated, 1);
        assert_eq!(result.cluster_order, vec![ClusterId(0)]);
    }
}
