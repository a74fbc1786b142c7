//! Typed topology deltas and migration-aware re-planning.
//!
//! [`NicSelectionReport::replan`] handles the cheapest churn class — a
//! node losing its RDMA NIC — by downgrading the touched groups in place
//! (pass it [`TopologyDelta::nic_losses`]). Elastic training needs more:
//! nodes *leave* (preempted spot instances, announced drains) and *join*
//! (scale-up mid-run), and each of those changes the device count, so the
//! plan must be rebuilt, not patched. This module supplies the vocabulary
//! and the full path:
//!
//! * [`TopologyDelta`] — a typed batch of membership events
//!   ([`DeltaEvent`]: NIC loss, node loss, node join);
//! * [`TopologyDelta::apply`] — the post-churn [`Topology`] (losses
//!   removed, joins appended, lost NICs demoted to their Ethernet
//!   fallback);
//! * [`replan_for_delta`] — a migration-aware re-plan: the post-churn
//!   placement comes from guided branch-and-bound synthesis, and the
//!   optimizer-state migration the re-shard implies is priced by
//!   *simulating* the state transfers on the post-churn fabric, falling
//!   back to a checkpoint restore for shards with no surviving replica.

use std::collections::HashSet;

use holmes_netsim::{Fabric, FlowSpec, NetSim};
use holmes_topology::{Cluster, Node, Rank, Topology, TopologyError};

use crate::degrees::{DegreeError, ParallelDegrees};
use crate::groups::GroupLayout;
use crate::nic_selection::NicSelectionReport;
use crate::plan::ParallelPlan;
use crate::search::PlacementSearchResult;
use crate::skew::PlacementWorkload;
use crate::synth::GuidedPlanner;

/// One node-level membership event, expressed against the *pre-churn*
/// topology's global node indices (cluster-major, `rank / gpus_per_node`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaEvent {
    /// The node stays in the job but its RDMA NIC is gone: it can only
    /// reach peers over the Ethernet fallback (paper §3.2).
    NicLoss {
        /// Global node index.
        node: u32,
    },
    /// The node leaves the job (preemption or drain): its devices and
    /// links disappear from the topology.
    NodeLoss {
        /// Global node index.
        node: u32,
    },
    /// A node joins `cluster`, cloning the hardware profile of that
    /// cluster's first (pre-churn) node. Joins are appended at the end
    /// of the cluster after losses are applied.
    NodeJoin {
        /// Cluster index the new node lands in.
        cluster: u32,
    },
}

/// A typed batch of membership events applied atomically: all losses
/// first, then all joins, regardless of insertion order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TopologyDelta {
    events: Vec<DeltaEvent>,
}

/// Error applying a [`TopologyDelta`] or re-planning under one.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaError {
    /// An event named a node index outside the topology.
    UnknownNode(u32),
    /// A join named a cluster index outside the topology.
    UnknownCluster(u32),
    /// The delta would leave a cluster with no nodes.
    EmptyCluster(u32),
    /// The post-churn device count cannot host the plan's fixed tensor ×
    /// pipeline degrees.
    Degrees(DegreeError),
    /// The post-churn topology is structurally invalid.
    Topology(TopologyError),
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::UnknownNode(n) => write!(f, "delta names unknown node {n}"),
            DeltaError::UnknownCluster(c) => write!(f, "delta names unknown cluster {c}"),
            DeltaError::EmptyCluster(c) => {
                write!(f, "delta would leave cluster {c} without nodes")
            }
            DeltaError::Degrees(e) => write!(f, "post-churn degrees infeasible: {e:?}"),
            DeltaError::Topology(e) => write!(f, "post-churn topology invalid: {e}"),
        }
    }
}

impl std::error::Error for DeltaError {}

impl TopologyDelta {
    /// An empty delta (applying it is the identity).
    pub fn new() -> Self {
        Self::default()
    }

    /// A delta of pure NIC losses — the PR 3 downgrade class.
    pub fn nic_losses(nodes: &[u32]) -> Self {
        let mut d = Self::new();
        for &n in nodes {
            d.nic_loss(n);
        }
        d
    }

    /// Record a NIC loss on `node`.
    pub fn nic_loss(&mut self, node: u32) -> &mut Self {
        self.events.push(DeltaEvent::NicLoss { node });
        self
    }

    /// Record `node` leaving the job.
    pub fn node_loss(&mut self, node: u32) -> &mut Self {
        self.events.push(DeltaEvent::NodeLoss { node });
        self
    }

    /// Record a node joining `cluster`.
    pub fn node_join(&mut self, cluster: u32) -> &mut Self {
        self.events.push(DeltaEvent::NodeJoin { cluster });
        self
    }

    /// The recorded events, in insertion order.
    pub fn events(&self) -> &[DeltaEvent] {
        &self.events
    }

    /// True when the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Nodes affected by a *downgrade* (NIC loss) or a *loss* — the set
    /// the in-place replan treats as RDMA-incapable. Sorted, deduplicated.
    pub fn affected_nodes(&self) -> Vec<u32> {
        let mut nodes: Vec<u32> = self
            .events
            .iter()
            .filter_map(|e| match e {
                DeltaEvent::NicLoss { node } | DeltaEvent::NodeLoss { node } => Some(*node),
                DeltaEvent::NodeJoin { .. } => None,
            })
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// Nodes leaving the job. Sorted, deduplicated.
    pub fn lost_nodes(&self) -> Vec<u32> {
        let mut nodes: Vec<u32> = self
            .events
            .iter()
            .filter_map(|e| match e {
                DeltaEvent::NodeLoss { node } => Some(*node),
                _ => None,
            })
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// Build the post-churn topology: lost NICs are demoted to the node's
    /// Ethernet fallback profile, lost nodes are removed, and joins append
    /// a clone of the target cluster's first pre-churn node.
    #[expect(clippy::cast_possible_truncation, reason = "fits under MAX_DEVICES")]
    pub fn apply(&self, topo: &Topology) -> Result<Topology, DeltaError> {
        let mut clusters: Vec<Cluster> = topo.clusters().to_vec();
        let node_count = topo.node_count();

        // Resolve a global node index into (cluster, position-in-cluster).
        let locate = |node: u32| -> Result<(usize, usize), DeltaError> {
            if node >= node_count {
                return Err(DeltaError::UnknownNode(node));
            }
            let mut base = 0u32;
            for (c, cluster) in topo.clusters().iter().enumerate() {
                let len = cluster.nodes.len() as u32;
                if node < base + len {
                    return Ok((c, (node - base) as usize));
                }
                base += len;
            }
            Err(DeltaError::UnknownNode(node))
        };

        // NIC losses first: they only touch profiles, never indices.
        for e in &self.events {
            if let DeltaEvent::NicLoss { node } = e {
                let (c, p) = locate(*node)?;
                let eth = clusters[c].nodes[p].ethernet;
                clusters[c].nodes[p].nic = eth;
            }
        }
        // Losses: collect positions per cluster and remove highest-first
        // so earlier removals never shift later ones.
        let mut removals: Vec<(usize, usize)> = Vec::new();
        for node in self.lost_nodes() {
            removals.push(locate(node)?);
        }
        removals.sort_unstable_by(|a, b| b.cmp(a));
        for (c, p) in removals {
            clusters[c].nodes.remove(p);
        }
        // Joins: clone the pre-churn cluster's first node profile.
        for e in &self.events {
            if let DeltaEvent::NodeJoin { cluster } = e {
                let c = *cluster as usize;
                let template: Node = topo
                    .clusters()
                    .get(c)
                    .and_then(|cl| cl.nodes.first())
                    .cloned()
                    .ok_or(DeltaError::UnknownCluster(*cluster))?;
                clusters[c].nodes.push(template);
            }
        }
        if let Some(c) = clusters.iter().position(|c| c.nodes.is_empty()) {
            return Err(DeltaError::EmptyCluster(c as u32));
        }
        Topology::new(clusters, *topo.inter_cluster_profile()).map_err(DeltaError::Topology)
    }

    /// Map pre-churn global node indices to post-churn ones: `None` for
    /// lost nodes. Matches [`TopologyDelta::apply`]'s index layout (losses
    /// removed, joins appended at each cluster's end).
    pub fn node_map(&self, topo: &Topology) -> Result<Vec<Option<u32>>, DeltaError> {
        let node_count = topo.node_count();
        let lost_list = self.lost_nodes();
        // Validate in declaration order (not hash order) so the reported
        // node is stable across runs.
        for &n in &lost_list {
            if n >= node_count {
                return Err(DeltaError::UnknownNode(n));
            }
        }
        let lost: HashSet<u32> = lost_list.into_iter().collect();
        let mut joins_per_cluster = vec![0u32; topo.clusters().len()];
        for e in &self.events {
            if let DeltaEvent::NodeJoin { cluster } = e {
                let c = *cluster as usize;
                if c >= joins_per_cluster.len() {
                    return Err(DeltaError::UnknownCluster(*cluster));
                }
                joins_per_cluster[c] += 1;
            }
        }
        let mut map = Vec::with_capacity(node_count as usize);
        let mut old_idx = 0u32;
        let mut new_idx = 0u32;
        for (c, cluster) in topo.clusters().iter().enumerate() {
            for _ in &cluster.nodes {
                if lost.contains(&old_idx) {
                    map.push(None);
                } else {
                    map.push(Some(new_idx));
                    new_idx += 1;
                }
                old_idx += 1;
            }
            new_idx += joins_per_cluster[c];
        }
        Ok(map)
    }
}

/// What moving optimizer state costs, per migrating rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationCosts {
    /// Optimizer-state bytes each re-sharded rank must receive (the
    /// fp32 master weights + moments shard, typically `≈ 12 ×
    /// parameters / (t·p·shards)`).
    pub state_bytes_per_rank: u64,
    /// Wall-clock of restoring a shard from the checkpoint store, paid
    /// once (restores stream in parallel) whenever any shard has no
    /// surviving replica to copy from.
    pub checkpoint_restore_seconds: f64,
}

impl MigrationCosts {
    /// Costs with an explicit per-rank state volume and restore time.
    pub fn new(state_bytes_per_rank: u64, checkpoint_restore_seconds: f64) -> Self {
        MigrationCosts {
            state_bytes_per_rank,
            checkpoint_restore_seconds,
        }
    }
}

/// One optimizer-state transfer of the migration, in *post-churn* rank
/// space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateMove {
    /// Surviving device holding the shard.
    pub from: Rank,
    /// Device that needs it under the new placement.
    pub to: Rank,
    /// Bytes moved.
    pub bytes: u64,
}

/// The state movement a re-shard implies, priced on the post-churn fabric.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationPlan {
    /// Peer-to-peer shard copies, in deterministic (group, member) order.
    pub moves: Vec<StateMove>,
    /// Data-parallel groups whose shard had no surviving replica and must
    /// come back from the checkpoint store.
    pub restored_groups: Vec<u32>,
    /// Simulated wall-clock of all `moves` launched concurrently on the
    /// post-churn fabric (max-min fair sharing, so incast at a popular
    /// source is priced, not assumed away).
    pub transfer_seconds: f64,
    /// Checkpoint-restore wall-clock (0 when every shard had a live
    /// source).
    pub restore_seconds: f64,
}

impl MigrationPlan {
    /// Total migration stall before the next iteration can start.
    pub fn total_seconds(&self) -> f64 {
        self.transfer_seconds + self.restore_seconds
    }
}

/// Result of [`replan_for_delta`].
#[derive(Debug, Clone)]
pub struct DeltaReplanOutcome {
    /// The post-churn topology the new plan targets.
    pub new_topology: Topology,
    /// The placement the planner chose on it.
    pub placement: PlacementSearchResult,
    /// NIC selection of the new placement.
    pub report: NicSelectionReport,
    /// The state migration getting from the old plan to the new one.
    pub migration: MigrationPlan,
    /// Analytic DP cost of the old plan on the old topology under the
    /// re-plan's workload: gradient sync plus compute-straggler skew.
    pub cost_before_seconds: f64,
    /// Analytic DP cost of the new plan on the new topology under the
    /// re-plan's workload: gradient sync plus compute-straggler skew.
    pub cost_after_seconds: f64,
}

impl DeltaReplanOutcome {
    /// Steady-state DP sync slowdown of the post-churn plan (1.0 =
    /// unchanged; < 1.0 after a scale-up).
    pub fn slowdown(&self) -> f64 {
        if self.cost_before_seconds <= 0.0 {
            return 1.0;
        }
        self.cost_after_seconds / self.cost_before_seconds
    }
}

/// Migration-aware re-plan: apply `delta`, re-run guided placement
/// synthesis on the post-churn topology (tensor and pipeline degrees
/// fixed, data degree re-inferred from the surviving device count), and
/// price the optimizer-state migration by simulating the shard copies on
/// the post-churn fabric.
///
/// `planner` selects nothing: [`GuidedPlanner`] is the only placement
/// strategy. The parameter stays because the end-to-end benchmark
/// (`holmes_e2e`) passes `&GuidedPlanner` here.
///
/// The placement search and the before/after costs are all priced
/// against `workload`: gradient sync plus each DP group's
/// compute-straggler skew, so churn on a mixed-generation fleet re-plans
/// away from generation-straddling groups, not just NIC downgrades. A bare
/// `u64` gradient volume is the zero-FLOPs workload.
///
/// Shard identity follows the data-parallel group index (`g = stage · t +
/// tp-slot`), which is invariant under the re-shard because `t` and `p`
/// are preserved. Each member of a post-churn DP group sources its shard
/// from the first surviving pre-churn replica of the same group (no copy
/// when the member already holds it); a group with no surviving replica
/// falls back to the checkpoint store.
pub fn replan_for_delta(
    topo: &Topology,
    plan: &ParallelPlan,
    delta: &TopologyDelta,
    workload: impl Into<PlacementWorkload>,
    planner: &GuidedPlanner,
    costs: &MigrationCosts,
) -> Result<DeltaReplanOutcome, DeltaError> {
    let workload = workload.into();
    let new_topo = delta.apply(topo)?;
    let degrees = plan.degrees();
    let new_degrees =
        ParallelDegrees::infer_data(degrees.tensor, degrees.pipeline, new_topo.device_count())
            .map_err(DeltaError::Degrees)?;
    let layout = GroupLayout::new(new_degrees);
    let (placement, _) = planner.plan_workload_with_stats(&new_topo, &layout, workload);
    let report = NicSelectionReport::analyze(&new_topo, &layout, &placement.assignment);
    let cost_before_seconds = plan.nic_report(topo).dp_sync_cost_seconds(topo, workload);
    let cost_after_seconds = report.dp_sync_cost_seconds(&new_topo, workload);

    // Old physical rank → post-churn physical rank (None when its node
    // left). GPU slot within a node is stable across the re-index.
    let node_map = delta.node_map(topo)?;
    let g_old = topo.gpus_per_node().max(1);
    let g_new = new_topo.gpus_per_node().max(1);
    let surviving = |r: Rank| -> Option<Rank> {
        node_map[(r.0 / g_old) as usize].map(|nn| Rank(nn * g_new + r.0 % g_old))
    };

    let mut moves = Vec::new();
    let mut restored_groups = Vec::new();
    for g in 0..layout.dp_group_count() {
        // Pre-churn replicas of shard `g`, translated into post-churn
        // rank space; group indices line up because t·p is unchanged.
        let sources: Vec<Rank> = plan
            .dp_group_devices(g)
            .into_iter()
            .filter_map(surviving)
            .collect();
        let members = placement.assignment.map_group(layout.dp_group(g));
        if sources.is_empty() {
            restored_groups.push(g);
            continue;
        }
        for dst in members {
            if sources.contains(&dst) {
                continue; // the shard is already local
            }
            moves.push(StateMove {
                from: sources[0],
                to: dst,
                bytes: costs.state_bytes_per_rank,
            });
        }
    }

    // Price the copies on the *actual* post-churn fabric: all transfers
    // launch at t = 0 and contend under max-min fairness, so a popular
    // source's uplink incast stretches the migration exactly as it would
    // in the real cluster.
    let mut transfer_seconds = 0.0;
    let priced: Vec<&StateMove> = moves
        .iter()
        .filter(|m| m.from != m.to && m.bytes > 0)
        .collect();
    if !priced.is_empty() {
        let mut sim = NetSim::new();
        let fabric = Fabric::build(&new_topo, &mut sim);
        for (i, m) in priced.into_iter().enumerate() {
            let route = fabric.route(&new_topo, m.from, m.to);
            sim.start_flow(FlowSpec {
                path: route.path,
                bytes: m.bytes,
                latency: route.latency,
                rate_cap: route.rate_cap,
                token: i as u64,
                count: 1,
            });
        }
        while sim.next().is_some() {}
        transfer_seconds = sim.now().as_secs_f64();
    }
    let restore_seconds = if restored_groups.is_empty() {
        0.0
    } else {
        costs.checkpoint_restore_seconds
    };

    Ok(DeltaReplanOutcome {
        new_topology: new_topo,
        placement,
        report,
        migration: MigrationPlan {
            moves,
            restored_groups,
            transfer_seconds,
            restore_seconds,
        },
        cost_before_seconds,
        cost_after_seconds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::HolmesScheduler;
    use holmes_topology::{presets, NicType};

    const GRAD: u64 = 1 << 30;

    fn plan_on(topo: &Topology, t: u32, p: u32) -> ParallelPlan {
        let layout =
            GroupLayout::new(ParallelDegrees::infer_data(t, p, topo.device_count()).unwrap());
        let a = HolmesScheduler::assign(topo);
        let per_stage = vec![4u32; p as usize];
        ParallelPlan::new(layout, a, per_stage, true)
    }

    #[test]
    fn empty_delta_applies_to_identical_topology() {
        let topo = presets::hybrid_two_cluster(2);
        let delta = TopologyDelta::new();
        let applied = delta.apply(&topo).unwrap();
        assert_eq!(applied.device_count(), topo.device_count());
        assert_eq!(
            delta.node_map(&topo).unwrap(),
            (0..topo.node_count()).map(Some).collect::<Vec<_>>()
        );
    }

    #[test]
    fn node_loss_removes_devices_and_shifts_node_indices() {
        let topo = presets::hybrid_two_cluster(2);
        let g = topo.gpus_per_node();
        let mut delta = TopologyDelta::new();
        delta.node_loss(1);
        let applied = delta.apply(&topo).unwrap();
        assert_eq!(applied.device_count(), topo.device_count() - g);
        assert_eq!(
            delta.node_map(&topo).unwrap(),
            vec![Some(0), None, Some(1), Some(2)]
        );
    }

    #[test]
    fn node_join_clones_the_cluster_profile() {
        let topo = presets::hybrid_two_cluster(2);
        let mut delta = TopologyDelta::new();
        delta.node_join(0);
        let applied = delta.apply(&topo).unwrap();
        assert_eq!(
            applied.device_count(),
            topo.device_count() + topo.gpus_per_node()
        );
        let joined = applied.clusters()[0].nodes.last().unwrap();
        assert_eq!(
            joined.nic_type(),
            topo.clusters()[0].nodes[0].nic_type(),
            "join clones the cluster's NIC technology"
        );
        // Joins land after the cluster's surviving nodes.
        assert_eq!(
            delta.node_map(&topo).unwrap(),
            vec![Some(0), Some(1), Some(3), Some(4)]
        );
    }

    #[test]
    fn nic_loss_demotes_the_node_to_ethernet() {
        let topo = presets::hybrid_two_cluster(2);
        let mut delta = TopologyDelta::new();
        delta.nic_loss(0);
        let applied = delta.apply(&topo).unwrap();
        assert_eq!(applied.clusters()[0].nodes[0].nic_type(), NicType::Ethernet);
        assert_eq!(applied.device_count(), topo.device_count());
    }

    #[test]
    fn delta_errors_are_typed() {
        let topo = presets::hybrid_two_cluster(2);
        let mut d = TopologyDelta::new();
        d.node_loss(99);
        assert_eq!(d.apply(&topo).unwrap_err(), DeltaError::UnknownNode(99));
        let mut d = TopologyDelta::new();
        d.node_join(7);
        assert_eq!(d.apply(&topo).unwrap_err(), DeltaError::UnknownCluster(7));
        let mut d = TopologyDelta::new();
        d.node_loss(0).node_loss(1);
        assert_eq!(d.apply(&topo).unwrap_err(), DeltaError::EmptyCluster(0));
    }

    #[test]
    fn replan_for_delta_matches_planning_the_new_topology_from_scratch() {
        // Gradient-only on a compute-uniform fleet, and the two-axis
        // workload on a mixed-generation one (non-zero stage FLOPs).
        for (topo, workload) in [
            (
                presets::hybrid_two_cluster(2),
                PlacementWorkload::from(GRAD),
            ),
            (presets::gen_mix_3c(), PlacementWorkload::new(GRAD, 2.5e13)),
        ] {
            let plan = plan_on(&topo, 1, 2);
            let mut delta = TopologyDelta::new();
            delta.node_loss(1);
            let planner = GuidedPlanner;
            let outcome = replan_for_delta(
                &topo,
                &plan,
                &delta,
                workload,
                &planner,
                &MigrationCosts::new(1 << 20, 30.0),
            )
            .unwrap();
            // The migration-aware path must converge to the same placement
            // a from-scratch plan of the post-churn topology picks.
            let fresh_topo = delta.apply(&topo).unwrap();
            let fresh_layout = GroupLayout::new(
                ParallelDegrees::infer_data(1, 2, fresh_topo.device_count()).unwrap(),
            );
            let (fresh, _) = planner.plan_workload_with_stats(&fresh_topo, &fresh_layout, workload);
            assert_eq!(outcome.placement.assignment, fresh.assignment);
            assert_eq!(outcome.placement.cluster_order, fresh.cluster_order);
            assert_eq!(
                outcome.placement.cost_seconds.to_bits(),
                fresh.cost_seconds.to_bits()
            );
            assert_eq!(
                outcome.cost_after_seconds.to_bits(),
                fresh.cost_seconds.to_bits()
            );
        }
    }

    #[test]
    fn migration_moves_are_priced_on_the_simulated_fabric() {
        let topo = presets::hybrid_two_cluster(2);
        let plan = plan_on(&topo, 1, 2);
        let mut delta = TopologyDelta::new();
        delta.node_loss(1);
        let outcome = replan_for_delta(
            &topo,
            &plan,
            &delta,
            GRAD,
            &GuidedPlanner,
            &MigrationCosts::new(1 << 30, 30.0),
        )
        .unwrap();
        // d shrank, so surviving replicas re-shard: some state moves, and
        // the simulated transfer takes real (positive) wall-clock.
        assert!(!outcome.migration.moves.is_empty());
        assert!(outcome.migration.transfer_seconds > 0.0);
        // Every shard had a surviving replica: no checkpoint restore.
        assert!(outcome.migration.restored_groups.is_empty());
        assert_eq!(outcome.migration.restore_seconds, 0.0);
        assert_eq!(
            outcome.migration.total_seconds(),
            outcome.migration.transfer_seconds
        );
        // Doubling the state volume cannot make the migration faster.
        let bigger = replan_for_delta(
            &topo,
            &plan,
            &delta,
            GRAD,
            &GuidedPlanner,
            &MigrationCosts::new(1 << 31, 30.0),
        )
        .unwrap();
        assert!(bigger.migration.transfer_seconds > outcome.migration.transfer_seconds);
    }

    #[test]
    fn losing_every_replica_of_a_shard_forces_checkpoint_restore() {
        // p = 2 on one 4-node cluster → each stage lives on 2 nodes;
        // killing both of stage 0's nodes leaves its shard without a
        // surviving replica (and the cluster still has the other stage's
        // nodes, so the delta itself stays applicable).
        let topo = presets::homogeneous(NicType::InfiniBand, 4);
        let plan = plan_on(&topo, 1, 2);
        let g = topo.gpus_per_node();
        let stage0_nodes: HashSet<u32> = plan.stage_devices(0).iter().map(|r| r.0 / g).collect();
        assert_eq!(stage0_nodes.len(), 2);
        let mut delta = TopologyDelta::new();
        for n in &stage0_nodes {
            delta.node_loss(*n);
        }
        let outcome = replan_for_delta(
            &topo,
            &plan,
            &delta,
            GRAD,
            &GuidedPlanner,
            &MigrationCosts::new(1 << 20, 45.0),
        )
        .unwrap();
        assert!(!outcome.migration.restored_groups.is_empty());
        assert_eq!(outcome.migration.restore_seconds, 45.0);
    }

    #[test]
    fn scale_up_reduces_or_keeps_dp_sync_cost_sane() {
        let topo = presets::homogeneous(NicType::InfiniBand, 4);
        let plan = plan_on(&topo, 1, 2);
        let mut delta = TopologyDelta::new();
        delta.node_join(0).node_join(0);
        let outcome = replan_for_delta(
            &topo,
            &plan,
            &delta,
            GRAD,
            &GuidedPlanner,
            &MigrationCosts::new(1 << 20, 30.0),
        )
        .unwrap();
        assert_eq!(
            outcome.new_topology.device_count(),
            topo.device_count() + 2 * topo.gpus_per_node()
        );
        // Joined ranks hold no state yet, so the migration must seed them.
        assert!(!outcome.migration.moves.is_empty());
        assert!(outcome.cost_after_seconds.is_finite());
        assert!(outcome.slowdown() > 0.0);
    }
}
