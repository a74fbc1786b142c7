//! Automatic NIC Selection (§3.2).
//!
//! Holmes modifies NCCL/Megatron so that each data-parallel group is formed
//! from devices behind *one* NIC technology, letting the group communicate
//! over RDMA. This module implements the analysis side: given a layout and
//! a device assignment, classify every DP group, and score the plan's
//! data-parallel communication cost — the signal the Holmes planner uses to
//! choose between candidate assignments.

use holmes_netsim::algo::CollKind;
use holmes_topology::{NicType, Rank, Topology};

use crate::groups::GroupLayout;
use crate::scheduler::DeviceAssignment;
use crate::skew::PlacementWorkload;

/// Which all-reduce algorithm a data-parallel group should run — derived
/// from the group's NIC classification and cluster span, and matching the
/// upgrade rule the engine's builder applies when it emits collectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DpCollectiveAlgo {
    /// Flat ring entirely on one cluster's RDMA fabric.
    RingRdma,
    /// Flat ring over Ethernet (single cluster, no RDMA reachable).
    RingEthernet,
    /// Two-level hierarchical all-reduce
    /// ([`holmes_netsim::algo::hierarchical_all_reduce`]): the group
    /// straddles clusters, so intra-cluster phases ride RDMA and only the
    /// exchange phase crosses the slow trunk.
    HierarchicalTwoLevel,
}

/// Classification of one data-parallel group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DpGroupNic {
    /// Group index (row of `[DP]`).
    pub group: u32,
    /// Physical members.
    pub devices: Vec<Rank>,
    /// `Some(t)` when all members share NIC technology `t` *and* a single
    /// cluster (so RDMA is actually reachable); `None` when the group is
    /// forced down to Ethernet.
    pub rdma_nic: Option<NicType>,
    /// The collective algorithm selected for the group's gradient sync.
    pub algo: DpCollectiveAlgo,
    /// True when the group was downgraded to TCP by a re-planning pass
    /// ([`NicSelectionReport::replan`]): its members' NICs
    /// may still be mutually RDMA-compatible, but a failed NIC forces the
    /// whole group through the Ethernet fallback (paper §3.2).
    pub forced_tcp: bool,
}

impl DpGroupNic {
    /// Classify one data-parallel group from its physical member set:
    /// decide whether it can ride RDMA end-to-end and which collective
    /// algorithm its gradient sync should run.
    ///
    /// This is the *single* classification path: [`NicSelectionReport::analyze`]
    /// calls it per group, and the guided plan synthesizer
    /// ([`crate::synthesize_placement`]) calls it on partially-built plans — both must
    /// see bit-identical classifications for the search bound to be exact
    /// at completion.
    pub fn analyze_group(topo: &Topology, group: u32, devices: Vec<Rank>) -> Self {
        let rdma_nic = Self::classify(topo, &devices);
        let algo = if Self::spans_clusters(topo, &devices) {
            DpCollectiveAlgo::HierarchicalTwoLevel
        } else if rdma_nic.is_some() {
            DpCollectiveAlgo::RingRdma
        } else {
            DpCollectiveAlgo::RingEthernet
        };
        DpGroupNic {
            group,
            devices,
            rdma_nic,
            algo,
            forced_tcp: false,
        }
    }

    /// `Some(nic)` when the device set can use RDMA end-to-end: identical
    /// RDMA-capable NIC technology and a single switched cluster.
    fn classify(topo: &Topology, devices: &[Rank]) -> Option<NicType> {
        let first = devices.first()?;
        let nic = topo.nic_type_of(*first).ok()?;
        if !nic.supports_rdma() {
            return None;
        }
        let cluster = topo.coord(*first).ok()?.cluster;
        if !topo.clusters()[cluster.0 as usize].has_switch {
            return None;
        }
        for r in &devices[1..] {
            if topo.nic_type_of(*r).ok()? != nic || topo.coord(*r).ok()?.cluster != cluster {
                return None;
            }
        }
        Some(nic)
    }

    /// True when the group's members live in more than one cluster: the
    /// one test the engine's builder (hierarchical upgrade), this
    /// classifier and the estimator share. Out-of-range ranks count as no
    /// cluster.
    pub fn spans_clusters(topo: &Topology, devices: &[Rank]) -> bool {
        devices.split_first().is_some_and(|(&first, rest)| {
            let cluster = |r| topo.coord(r).map(|c| c.cluster).ok();
            rest.iter().any(|&r| cluster(r) != cluster(first))
        })
    }

    /// Write the *node pattern* of a member list into `pattern` (cleared
    /// first, so callers reuse one buffer): each member's global node
    /// index (`rank / G`), sorted. Every GPU of a node shares the node's
    /// GPU, NIC, Ethernet and intra-node link, so pricing reads a member
    /// only through its node, and a list built as ascending per-cluster
    /// blocks prices the same under any block order (DESIGN.md §10). Two
    /// such lists with one node pattern therefore have bit-equal
    /// [`DpGroupNic::workload_cost_seconds`]: guided synthesis memoizes
    /// group costs by this key, and the core planner dedupes its stage
    /// profiles by it.
    pub fn node_pattern(
        topo: &Topology,
        devices: impl IntoIterator<Item = Rank>,
        pattern: &mut Vec<u32>,
    ) {
        let gpus_per_node = topo.gpus_per_node().max(1);
        pattern.clear();
        pattern.extend(devices.into_iter().map(|r| r.0 / gpus_per_node));
        pattern.sort_unstable();
    }

    /// Analytic gradient-sync cost of this one group for `gradient_bytes`
    /// per rank, in seconds. Singleton groups synchronize nothing and cost
    /// exactly `0.0`.
    ///
    /// [`NicSelectionReport::dp_sync_cost_seconds`] max-folds this function
    /// plus each group's skew term (`+0.0` at zero stage FLOPs) over a
    /// plan's groups; the guided synthesizer folds the same per-group cost
    /// incrementally as groups become determined, so partial-plan
    /// bounds and full-plan costs are bit-identical (`f64::max` over
    /// non-negative finite values is fold-order independent).
    #[expect(clippy::expect_used, reason = "group members are ranks of `topo`")]
    pub fn sync_cost_seconds(&self, topo: &Topology, gradient_bytes: u64) -> f64 {
        if self.devices.len() <= 1 {
            return 0.0;
        }
        match self.algo {
            DpCollectiveAlgo::HierarchicalTwoLevel => holmes_netsim::algo::estimate_collective(
                topo,
                CollKind::HierarchicalAllReduce,
                &self.devices,
                gradient_bytes,
            ),
            DpCollectiveAlgo::RingRdma | DpCollectiveAlgo::RingEthernet => {
                // Ring over the group's device order: bottleneck hop
                // binds. Downgraded groups price every hop over the
                // Ethernet fallback even where the NICs are still
                // nominally RDMA-compatible.
                let (bw, lat) =
                    holmes_netsim::collective::ring_link(topo, &self.devices, self.forced_tcp)
                        .expect("candidate group members are ranks inside the topology");
                CollKind::AllReduce
                    .schedule(&self.devices, gradient_bytes, |_| 0)
                    .seconds_uniform(bw, lat)
            }
        }
    }

    /// Straggler tax of this group at `stage_flops` of per-device stage
    /// work: the gap between the slowest and fastest members' compute
    /// times. Every collective the group runs waits for its slowest
    /// member, so a generation-straddling group stretches each step by
    /// exactly this gap. Compute-uniform groups (identical profiles) and
    /// `stage_flops == 0.0` both yield exactly `+0.0`, keeping historical
    /// costs bit-identical.
    #[expect(clippy::expect_used, reason = "group members are ranks of `topo`")]
    pub fn straggler_skew_seconds(&self, topo: &Topology, stage_flops: f64) -> f64 {
        if self.devices.len() <= 1 || stage_flops <= 0.0 {
            return 0.0;
        }
        let mut slowest = 0.0f64;
        let mut fastest = f64::INFINITY;
        for &r in &self.devices {
            let t = topo
                .device(r)
                .expect("group members are ranks inside the topology")
                .gpu
                .compute_seconds(stage_flops);
            slowest = slowest.max(t);
            fastest = fastest.min(t);
        }
        slowest - fastest
    }

    /// Priced cost of this group under a [`PlacementWorkload`]:
    /// NIC-priced gradient sync plus the compute-skew straggler tax.
    /// With [`PlacementWorkload::gradient_only`] (or on any
    /// compute-uniform member set) the skew term is exactly `+0.0`, so
    /// the sum is bit-identical to [`DpGroupNic::sync_cost_seconds`].
    pub fn workload_cost_seconds(&self, topo: &Topology, workload: PlacementWorkload) -> f64 {
        self.sync_cost_seconds(topo, workload.gradient_bytes)
            + self.straggler_skew_seconds(topo, workload.stage_flops)
    }
}

/// Plan-wide Automatic NIC Selection report.
#[derive(Debug, Clone, PartialEq)]
pub struct NicSelectionReport {
    /// Per-group classification.
    pub groups: Vec<DpGroupNic>,
    /// Number of groups able to use RDMA.
    pub rdma_groups: u32,
    /// Number of groups forced down to Ethernet.
    pub ethernet_groups: u32,
}

impl NicSelectionReport {
    /// Analyze every data-parallel group of a plan.
    #[expect(clippy::cast_possible_truncation, reason = "at most one per device")]
    pub fn analyze(topo: &Topology, layout: &GroupLayout, assignment: &DeviceAssignment) -> Self {
        let mut groups = Vec::with_capacity(layout.dp_group_count() as usize);
        let mut rdma = 0u32;
        for i in 0..layout.dp_group_count() {
            let devices = assignment.map_group(layout.dp_group(i));
            let g = DpGroupNic::analyze_group(topo, i, devices);
            if g.rdma_nic.is_some() {
                rdma += 1;
            }
            groups.push(g);
        }
        let total = groups.len() as u32;
        NicSelectionReport {
            groups,
            rdma_groups: rdma,
            ethernet_groups: total - rdma,
        }
    }

    /// Fraction of groups able to use RDMA (1.0 = perfect selection).
    pub fn rdma_fraction(&self) -> f64 {
        let total = self.groups.len();
        if total == 0 {
            return 1.0;
        }
        f64::from(self.rdma_groups) / total as f64
    }

    /// Analytic per-iteration data-parallel synchronization cost in
    /// seconds, priced against a [`PlacementWorkload`]: the max over groups
    /// of each group's [`DpGroupNic::workload_cost_seconds`] — a ring
    /// all-reduce at the group's bottleneck pairwise bandwidth, or the
    /// hierarchical schedule's topology-aware fold when the group straddles
    /// clusters, plus the group's compute-straggler skew. A bare `u64`
    /// gradient volume is the zero-FLOPs workload, whose skew terms are
    /// exactly `+0.0`. Used by the planner to compare assignments cheaply.
    pub fn dp_sync_cost_seconds(
        &self,
        topo: &Topology,
        workload: impl Into<PlacementWorkload>,
    ) -> f64 {
        let workload = workload.into();
        self.groups.iter().fold(0.0f64, |worst, g| {
            worst.max(g.workload_cost_seconds(topo, workload))
        })
    }

    /// Re-plan *in place* under a typed [`crate::delta::TopologyDelta`]:
    /// every node the delta affects (NIC losses *and* node losses — a
    /// departing node's NIC is certainly unreachable) is treated as
    /// RDMA-incapable, and every data-parallel group touching one is
    /// downgraded to the TCP fallback (paper §3.2). Untouched groups keep
    /// their original classification (and cost) bit-for-bit; an empty delta
    /// returns the report unchanged.
    ///
    /// This is the cheap degraded-mode path: membership (and hence the
    /// placement) is kept fixed, only transports change. When the delta
    /// contains node losses or joins the plan's device set is stale, and
    /// the migration-aware [`crate::delta::replan_for_delta`] is the
    /// right tool; this in-place pass still prices the transport hit of
    /// continuing on the old placement until the migration lands.
    #[expect(clippy::cast_possible_truncation, reason = "at most one per device")]
    pub fn replan(
        &self,
        topo: &Topology,
        delta: &crate::delta::TopologyDelta,
        gradient_bytes: u64,
    ) -> ReplanOutcome {
        let gpus_per_node = topo.gpus_per_node().max(1);
        let node_of = |r: Rank| r.0 / gpus_per_node;
        let lost: std::collections::HashSet<u32> = delta.affected_nodes().into_iter().collect();
        let cost_before_seconds = self.dp_sync_cost_seconds(topo, gradient_bytes);
        let mut groups = Vec::with_capacity(self.groups.len());
        let mut downgraded_groups = Vec::new();
        let mut rdma = 0u32;
        for g in &self.groups {
            let mut ng = g.clone();
            let touched = g.devices.iter().any(|&r| lost.contains(&node_of(r)));
            if touched && !g.forced_tcp {
                // A spanning group loses its hierarchical schedule too:
                // the intra-cluster phases assumed homogeneous RDMA.
                ng.rdma_nic = None;
                ng.algo = DpCollectiveAlgo::RingEthernet;
                ng.forced_tcp = true;
                downgraded_groups.push(g.group);
            }
            if ng.rdma_nic.is_some() {
                rdma += 1;
            }
            groups.push(ng);
        }
        let total = groups.len() as u32;
        let report = NicSelectionReport {
            groups,
            rdma_groups: rdma,
            ethernet_groups: total - rdma,
        };
        let cost_after_seconds = report.dp_sync_cost_seconds(topo, gradient_bytes);
        ReplanOutcome {
            report,
            downgraded_groups,
            cost_before_seconds,
            cost_after_seconds,
        }
    }
}

/// Result of [`NicSelectionReport::replan`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReplanOutcome {
    /// The re-classified report on the degraded topology.
    pub report: NicSelectionReport,
    /// Groups downgraded from RDMA (or hierarchical) to the TCP
    /// fallback, in group order.
    pub downgraded_groups: Vec<u32>,
    /// Analytic DP sync cost before the loss, seconds.
    pub cost_before_seconds: f64,
    /// Analytic DP sync cost after the downgrade, seconds.
    pub cost_after_seconds: f64,
}

impl ReplanOutcome {
    /// Relative slowdown of data-parallel sync caused by the loss
    /// (1.0 = unchanged).
    pub fn slowdown(&self) -> f64 {
        if self.cost_before_seconds <= 0.0 {
            return 1.0;
        }
        self.cost_after_seconds / self.cost_before_seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degrees::ParallelDegrees;
    use crate::delta::TopologyDelta;
    use crate::scheduler::{HolmesScheduler, InterleavedScheduler};
    use holmes_topology::presets;

    fn layout_for(topo: &Topology, t: u32, p: u32) -> GroupLayout {
        GroupLayout::new(ParallelDegrees::infer_data(t, p, topo.device_count()).unwrap())
    }

    #[test]
    fn holmes_assignment_gives_all_rdma_groups_on_hybrid() {
        let topo = presets::hybrid_two_cluster(2);
        let layout = layout_for(&topo, 1, 2);
        let a = HolmesScheduler::assign(&topo);
        let report = NicSelectionReport::analyze(&topo, &layout, &a);
        assert_eq!(report.ethernet_groups, 0);
        assert_eq!(report.rdma_fraction(), 1.0);
        // One stage's groups are IB, the other's RoCE.
        let nics: std::collections::BTreeSet<_> =
            report.groups.iter().map(|g| g.rdma_nic).collect();
        assert!(nics.contains(&Some(NicType::InfiniBand)));
        assert!(nics.contains(&Some(NicType::RoCE)));
    }

    #[test]
    fn interleaved_assignment_breaks_every_group_on_hybrid() {
        let topo = presets::hybrid_two_cluster(2);
        let layout = layout_for(&topo, 1, 2);
        let a = InterleavedScheduler::assign(&topo);
        let report = NicSelectionReport::analyze(&topo, &layout, &a);
        // Each stage (16 logical ranks = 2 physical nodes) now mixes an IB
        // node and a RoCE node, so every DP group is heterogeneous.
        assert_eq!(report.rdma_groups, 0);
        assert_eq!(report.rdma_fraction(), 0.0);
    }

    #[test]
    fn ethernet_only_topology_has_no_rdma_groups() {
        let topo = presets::homogeneous(NicType::Ethernet, 4);
        let layout = layout_for(&topo, 1, 2);
        let a = HolmesScheduler::assign(&topo);
        let report = NicSelectionReport::analyze(&topo, &layout, &a);
        assert_eq!(report.rdma_groups, 0);
    }

    #[test]
    fn homogeneous_ib_topology_is_fully_rdma() {
        let topo = presets::homogeneous(NicType::InfiniBand, 4);
        let layout = layout_for(&topo, 1, 2);
        let a = HolmesScheduler::assign(&topo);
        let report = NicSelectionReport::analyze(&topo, &layout, &a);
        assert_eq!(report.rdma_fraction(), 1.0);
        assert!(report
            .groups
            .iter()
            .all(|g| g.rdma_nic == Some(NicType::InfiniBand)));
    }

    #[test]
    fn dp_cost_lower_for_holmes_than_interleaved() {
        let topo = presets::hybrid_two_cluster(2);
        let layout = layout_for(&topo, 1, 2);
        let grad = 1u64 << 30;
        let holmes = NicSelectionReport::analyze(&topo, &layout, &HolmesScheduler::assign(&topo));
        let inter =
            NicSelectionReport::analyze(&topo, &layout, &InterleavedScheduler::assign(&topo));
        let c_h = holmes.dp_sync_cost_seconds(&topo, grad);
        let c_i = inter.dp_sync_cost_seconds(&topo, grad);
        assert!(c_h < c_i, "holmes {c_h} vs interleaved {c_i}");
    }

    #[test]
    fn single_cluster_groups_select_flat_rings() {
        let topo = presets::homogeneous(NicType::InfiniBand, 4);
        let layout = layout_for(&topo, 1, 2);
        let a = HolmesScheduler::assign(&topo);
        let report = NicSelectionReport::analyze(&topo, &layout, &a);
        assert!(report
            .groups
            .iter()
            .all(|g| g.algo == DpCollectiveAlgo::RingRdma));
        let topo = presets::homogeneous(NicType::Ethernet, 4);
        let a = HolmesScheduler::assign(&topo);
        let report = NicSelectionReport::analyze(&topo, &layout_for(&topo, 1, 2), &a);
        assert!(report
            .groups
            .iter()
            .all(|g| g.algo == DpCollectiveAlgo::RingEthernet));
    }

    #[test]
    fn spanning_groups_select_hierarchical_and_score_below_flat_ring() {
        // p = 1 → every DP group covers all 32 devices of both clusters.
        let topo = presets::same_nic_two_clusters(NicType::InfiniBand, 2);
        let layout = layout_for(&topo, 1, 1);
        let a = HolmesScheduler::assign(&topo);
        let report = NicSelectionReport::analyze(&topo, &layout, &a);
        assert!(report
            .groups
            .iter()
            .all(|g| g.algo == DpCollectiveAlgo::HierarchicalTwoLevel));
        // The hierarchical score must beat the flat ring the old scorer
        // would have priced over the same (Ethernet-crossing) ring.
        let grad = 1u64 << 30;
        let hier = report.dp_sync_cost_seconds(&topo, grad);
        let g = &report.groups[0];
        let (bw, lat) = holmes_netsim::collective::ring_link(&topo, &g.devices, false).unwrap();
        let flat = CollKind::AllReduce
            .schedule(&g.devices, grad, |_| 0)
            .seconds_uniform(bw, lat);
        assert!(hier < flat, "hier {hier} vs flat {flat}");
    }

    #[test]
    fn replan_downgrades_only_groups_touching_the_lost_nic() {
        let topo = presets::hybrid_two_cluster(2);
        let layout = layout_for(&topo, 1, 2);
        let a = HolmesScheduler::assign(&topo);
        let report = NicSelectionReport::analyze(&topo, &layout, &a);
        assert_eq!(report.ethernet_groups, 0);
        let grad = 1u64 << 30;
        // Node 0 dies. Groups containing its ranks fall back to TCP.
        let outcome = report.replan(&topo, &TopologyDelta::nic_losses(&[0]), grad);
        assert!(!outcome.downgraded_groups.is_empty());
        let g0 = topo.gpus_per_node();
        for g in &outcome.report.groups {
            let touched = g.devices.iter().any(|&r| r.0 / g0 == 0);
            assert_eq!(g.forced_tcp, touched, "group {}", g.group);
            if touched {
                assert_eq!(g.algo, DpCollectiveAlgo::RingEthernet);
                assert_eq!(g.rdma_nic, None);
            }
        }
        // Some groups survive untouched on this layout.
        assert!(outcome.report.rdma_groups > 0);
        assert!(
            outcome.report.rdma_groups < report.rdma_groups,
            "loss must cost some groups their RDMA"
        );
        // TCP pricing makes the degraded plan strictly slower.
        assert!(
            outcome.cost_after_seconds > outcome.cost_before_seconds,
            "after {} vs before {}",
            outcome.cost_after_seconds,
            outcome.cost_before_seconds
        );
        assert!(outcome.slowdown() > 1.0);
    }

    #[test]
    fn replan_with_no_losses_is_identity() {
        let topo = presets::homogeneous(NicType::InfiniBand, 4);
        let layout = layout_for(&topo, 1, 2);
        let a = HolmesScheduler::assign(&topo);
        let report = NicSelectionReport::analyze(&topo, &layout, &a);
        let outcome = report.replan(&topo, &TopologyDelta::new(), 1 << 30);
        assert_eq!(outcome.report, report);
        assert!(outcome.downgraded_groups.is_empty());
        assert_eq!(outcome.slowdown(), 1.0);
    }

    #[test]
    fn replan_downgrades_spanning_groups_to_flat_ethernet() {
        let topo = presets::same_nic_two_clusters(NicType::InfiniBand, 2);
        let layout = layout_for(&topo, 1, 1);
        let a = HolmesScheduler::assign(&topo);
        let report = NicSelectionReport::analyze(&topo, &layout, &a);
        assert!(report
            .groups
            .iter()
            .all(|g| g.algo == DpCollectiveAlgo::HierarchicalTwoLevel));
        let outcome = report.replan(&topo, &TopologyDelta::nic_losses(&[1]), 1 << 30);
        assert!(outcome
            .report
            .groups
            .iter()
            .all(|g| g.algo == DpCollectiveAlgo::RingEthernet && g.forced_tcp));
        assert!(outcome.cost_after_seconds > outcome.cost_before_seconds);
    }

    #[test]
    fn singleton_dp_groups_cost_nothing() {
        let topo = presets::homogeneous(NicType::InfiniBand, 2);
        // d=1: t=8, p=2 over 16 devices.
        let layout = layout_for(&topo, 8, 2);
        let a = HolmesScheduler::assign(&topo);
        let report = NicSelectionReport::analyze(&topo, &layout, &a);
        assert_eq!(report.dp_sync_cost_seconds(&topo, 1 << 30), 0.0);
    }
}
