//! The Holmes planner: topology + job + feature flags → parallel plan.

use std::collections::HashMap;

use holmes_engine::{BuildError, DpSyncStrategy, EngineConfig, ScheduleKind, TransportPolicy};
use holmes_model::{CommVolumes, ParameterGroup, TrainJob};
use holmes_netsim::WordHash;
use holmes_parallel::{
    synthesize_placement, DegreeError, DeviceAssignment, DpGroupNic, GroupLayout,
    NicSelectionReport, ParallelDegrees, ParallelPlan, PlacementWorkload, StageProfile,
    StragglerAwarePartition, UniformPartition,
};
use holmes_topology::Topology;

use crate::calibration;
use crate::config::HolmesConfig;

/// What to plan: a job plus the model-parallel degrees it requires.
#[derive(Debug, Clone, Copy)]
pub struct PlanRequest {
    /// Tensor parallel size `t`.
    pub tensor_parallel: u32,
    /// Pipeline parallel size `p`.
    pub pipeline_parallel: u32,
    /// The training workload.
    pub job: TrainJob,
}

impl PlanRequest {
    /// The request for one of Table 2's parameter groups.
    pub fn parameter_group(id: u8) -> Self {
        let pg = ParameterGroup::table2(id);
        PlanRequest {
            tensor_parallel: pg.tensor_parallel,
            pipeline_parallel: pg.pipeline_parallel,
            job: pg.job(),
        }
    }
}

/// Planning failure.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// The degrees do not divide the topology's device count.
    Degrees(DegreeError),
    /// The job cannot run at the inferred degrees (the builder's
    /// [`BuildError::BatchIndivisible`]), found before placement search.
    Infeasible(BuildError),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Degrees(e) => write!(f, "invalid parallel degrees: {e}"),
            PlanError::Infeasible(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// Per-rank data-parallel gradient volume used to score candidate
/// placements: the worst stage's parameter count under a uniform layer
/// split (the partition is not chosen until after placement), sharded by
/// the tensor degree. Placement only needs a volume that ranks orders
/// consistently; the exact per-stage volumes are re-derived by the
/// estimator once the partition is fixed.
pub fn placement_gradient_bytes(job: &TrainJob, degrees: ParallelDegrees) -> u64 {
    let worst_stage_params = u64::from(job.config.num_layers).div_ceil(u64::from(degrees.pipeline))
        * holmes_model::layer_params(&job.config)
        + holmes_model::embedding_params(&job.config);
    CommVolumes::dp_gradient_bytes(worst_stage_params, degrees.tensor)
}

/// Per-device training FLOPs of *one transformer layer* of per-iteration
/// work — the local batch (`B/d`) through the layer, fwd+bwd, sharded by
/// the tensor degree. The straggler-aware partition prices each stage's
/// slowest member at this kernel size per layer.
pub fn placement_layer_flops(job: &TrainJob, degrees: ParallelDegrees) -> f64 {
    holmes_model::layer_train_flops_per_sample(&job.config)
        * (f64::from(job.global_batch) / f64::from(degrees.data))
        / f64::from(degrees.tensor)
}

/// Per-device FLOPs of the *worst stage's* per-iteration work (uniform
/// layer split, mirroring [`placement_gradient_bytes`]'s worst-stage
/// rule): the compute axis of the [`PlacementWorkload`] candidate
/// placements are priced against on mixed-generation fleets.
pub fn placement_stage_flops(job: &TrainJob, degrees: ParallelDegrees) -> f64 {
    placement_layer_flops(job, degrees)
        * f64::from(job.config.num_layers.div_ceil(degrees.pipeline))
}

/// Build the parallel plan and engine configuration for a request under a
/// Holmes feature configuration.
///
/// With cross-cluster pipeline parallelism on, the device assignment comes
/// from [`synthesize_placement`]: the cluster order that minimizes the
/// analytic DP sync cost plus compute skew under
/// [`placement_gradient_bytes`] and [`placement_stage_flops`], which is
/// [`holmes_parallel::search_cluster_orders`]'s exact winner. With it off,
/// logical rank `i` runs on device `i` (Megatron's hostfile order). The
/// layer partition, transport and DP sync follow the other flags.
///
/// `fallback_dp` is the gradient-sync strategy used when the overlapped
/// optimizer flag is off: the Holmes ablation falls back to a blocking
/// distributed optimizer, Megatron-LM emulation to plain DDP all-reduce.
pub fn plan_for(
    topo: &Topology,
    req: &PlanRequest,
    cfg: &HolmesConfig,
    fallback_dp: DpSyncStrategy,
) -> Result<(ParallelPlan, EngineConfig), PlanError> {
    plan_for_with(topo, req, cfg, fallback_dp, |topo, layout, workload| {
        synthesize_placement(topo, layout, workload).0.assignment
    })
}

/// [`plan_for`] with the cross-cluster placement supplied by `place`,
/// which runs only after the degrees and the batch split are accepted.
fn plan_for_with(
    topo: &Topology,
    req: &PlanRequest,
    cfg: &HolmesConfig,
    fallback_dp: DpSyncStrategy,
    place: impl FnOnce(&Topology, &GroupLayout, PlacementWorkload) -> DeviceAssignment,
) -> Result<(ParallelPlan, EngineConfig), PlanError> {
    let degrees = ParallelDegrees::infer_data(
        req.tensor_parallel,
        req.pipeline_parallel,
        topo.device_count(),
    )
    .map_err(PlanError::Degrees)?;
    holmes_engine::builder::microbatches(&req.job, degrees.data).map_err(PlanError::Infeasible)?;
    let layout = GroupLayout::new(degrees);
    let gradient_bytes = placement_gradient_bytes(&req.job, degrees);
    // The placement workload prices gradient sync plus each DP group's
    // compute skew; on a compute-uniform fleet the skew term is exactly
    // `+0.0`, so the cost is the gradient-only one bit for bit.
    let workload = PlacementWorkload::new(gradient_bytes, placement_stage_flops(&req.job, degrees));

    // 1. Device ordering (Cross-Cluster Pipeline Parallelism): synthesize
    // a placement minimizing the analytic DP sync cost plus the worst DP
    // group's straggler skew. The baseline (flag off) keeps the
    // Megatron-style sequential hostfile order.
    let assignment = if cfg.cross_cluster_pp {
        place(topo, &layout, workload)
    } else {
        DeviceAssignment::identity(topo.device_count())
    };

    // 2. Stage profiles: the slowest member (NIC × GPU) binds a stage.
    // Its calibrated Eq. 2 speed scales with GPU peak on mixed-accelerator
    // fleets (see `calibration::device_speed`); its per-layer time is the
    // slowest member's compute; its fixed communication is its worst DP
    // group's NIC-priced sync (DP group g serves stage g / t, Eq. 4).
    // Groups with one node pattern sync at the same bits
    // (`DpGroupNic::node_pattern`), so each pattern is priced once.
    let layer_flops = placement_layer_flops(&req.job, degrees);
    let report = NicSelectionReport::analyze(topo, &layout, &assignment);
    let mut sync_by_pattern: HashMap<Vec<u32>, f64, WordHash> = HashMap::default();
    let mut pattern = Vec::new();
    let mut sync_cost = |group: &DpGroupNic| {
        DpGroupNic::node_pattern(topo, group.devices.iter().copied(), &mut pattern);
        if let Some(&cost) = sync_by_pattern.get(pattern.as_slice()) {
            return cost;
        }
        let cost = group.sync_cost_seconds(topo, gradient_bytes);
        sync_by_pattern.insert(pattern.clone(), cost);
        cost
    };
    let profiles: Vec<StageProfile> = (0..degrees.pipeline)
        .map(|stage| {
            let ranks = layout.stage_ranks(stage);
            let devices = || {
                ranks.iter().map(|&l| {
                    topo.device(assignment.device_of(l))
                        .expect("device in topology")
                })
            };
            StageProfile {
                speed_tflops: devices()
                    .map(|dev| calibration::device_speed(dev.nic_type, dev.gpu.peak_tflops))
                    .fold(f64::INFINITY, f64::min),
                sec_per_layer: devices()
                    .map(|dev| dev.gpu.compute_seconds(layer_flops))
                    .fold(0.0f64, f64::max),
                comm_seconds: (stage * degrees.tensor..(stage + 1) * degrees.tensor)
                    .map(|g| sync_cost(&report.groups[g as usize]))
                    .fold(0.0f64, f64::max),
            }
        })
        .collect();

    // 3. Layer partition: the straggler-aware generalization of Eq. 2
    // balances per-stage completion times. When per-layer times tie, as
    // on every compute-uniform fleet, it delegates to the exact Eq. 2
    // Self-Adapting split over the calibrated speeds bit for bit.
    let layers = req.job.config.num_layers;
    let stage_layers = if cfg.self_adapting_partition {
        StragglerAwarePartition { alpha: cfg.alpha }.partition_stages(layers, &profiles)
    } else {
        let speeds: Vec<f64> = profiles.iter().map(|s| s.speed_tflops).collect();
        UniformPartition.partition(layers, &speeds)
    };

    let plan = ParallelPlan::new(layout, assignment, stage_layers, true);

    // 4. Transport (Automatic NIC Selection) — without it, a job touching
    // more than one cluster or NIC technology is demoted to TCP job-wide.
    let transport = if cfg.auto_nic_selection || topo.is_homogeneous() {
        TransportPolicy::Auto
    } else {
        TransportPolicy::ForceTcpInterNode
    };

    // 5. Gradient synchronization.
    let dp_sync = if cfg.overlapped_optimizer {
        DpSyncStrategy::OverlappedOptimizer {
            buckets: cfg.buckets,
        }
    } else {
        fallback_dp
    };

    Ok((
        plan,
        EngineConfig {
            schedule: ScheduleKind::OneFOneB,
            dp_sync,
            transport,
            recompute_activations: false,
            enforce_memory: false,
            // Holmes's NIC-aware planning includes the hierarchical
            // cross-cluster all-reduce whenever the transport allows it.
            hierarchical_cross_cluster: cfg.auto_nic_selection,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use holmes_topology::{presets, NicType};

    #[test]
    fn full_holmes_plan_on_hybrid() {
        let topo = presets::hybrid_two_cluster(2);
        let (plan, engine) = plan_for(
            &topo,
            &PlanRequest::parameter_group(1),
            &HolmesConfig::full(),
            DpSyncStrategy::DistributedOptimizer,
        )
        .unwrap();
        // Self-adapting: IB stage (197) gets more layers than RoCE (160).
        assert_eq!(plan.stage_layers, vec![17, 13]);
        assert_eq!(engine.transport, TransportPolicy::Auto);
        assert!(matches!(
            engine.dp_sync,
            DpSyncStrategy::OverlappedOptimizer { .. }
        ));
        // All DP groups NIC-homogeneous under the Holmes scheduler.
        assert_eq!(plan.nic_report(&topo).ethernet_groups, 0);
    }

    #[test]
    fn baseline_plan_demotes_to_tcp_on_heterogeneous() {
        let topo = presets::hybrid_two_cluster(2);
        let cfg = HolmesConfig {
            auto_nic_selection: false,
            cross_cluster_pp: false,
            self_adapting_partition: false,
            overlapped_optimizer: false,
            ..HolmesConfig::default()
        };
        let (plan, engine) = plan_for(
            &topo,
            &PlanRequest::parameter_group(1),
            &cfg,
            DpSyncStrategy::AllReduce,
        )
        .unwrap();
        assert_eq!(engine.transport, TransportPolicy::ForceTcpInterNode);
        assert_eq!(engine.dp_sync, DpSyncStrategy::AllReduce);
        assert_eq!(plan.stage_layers, vec![15, 15]);
    }

    #[test]
    fn baseline_keeps_rdma_in_homogeneous_cluster() {
        let topo = presets::homogeneous(NicType::InfiniBand, 4);
        let cfg = HolmesConfig {
            auto_nic_selection: false,
            ..HolmesConfig::default()
        };
        let (_, engine) = plan_for(
            &topo,
            &PlanRequest::parameter_group(1),
            &cfg,
            DpSyncStrategy::AllReduce,
        )
        .unwrap();
        assert_eq!(engine.transport, TransportPolicy::Auto);
    }

    #[test]
    fn three_cluster_plan_gets_three_stage_speeds() {
        let topo = presets::table4_2r_2ib_2ib();
        let (plan, _) = plan_for(
            &topo,
            &PlanRequest::parameter_group(5),
            &HolmesConfig::full(),
            DpSyncStrategy::DistributedOptimizer,
        )
        .unwrap();
        assert_eq!(plan.stage_layers.len(), 3);
        assert_eq!(plan.total_layers(), 36);
        // Holmes orders IB clusters first: stage 0/1 (IB) ≥ stage 2 (RoCE).
        assert!(plan.stage_layers[0] >= plan.stage_layers[2]);
    }

    #[test]
    fn hetero_plan_skews_layers_toward_fast_generations() {
        // gen_mix_3c: three 16-GPU clusters of distinct generations, so
        // with p=3 each stage is one generation. The straggler-aware
        // partition must give the H100 stage strictly more layers than
        // the V100 stage while conserving the total.
        let topo = presets::gen_mix_3c();
        let (plan, _) = plan_for(
            &topo,
            &PlanRequest::parameter_group(5),
            &HolmesConfig::full(),
            DpSyncStrategy::DistributedOptimizer,
        )
        .unwrap();
        assert_eq!(plan.total_layers(), 36);
        assert!(plan.stage_layers.iter().all(|&n| n >= 1));
        let layers_of = |needle: &str| -> u32 {
            (0..plan.stage_layers.len() as u32)
                .find(|&stage| {
                    let dev = topo
                        .device(plan.stage_devices(stage)[0])
                        .expect("device exists");
                    dev.gpu.name.contains(needle)
                })
                .map(|stage| plan.stage_layers[stage as usize])
                .expect("generation hosts a stage")
        };
        assert!(
            layers_of("H100") > layers_of("V100"),
            "H100 stage must out-carry the V100 stage: {:?}",
            plan.stage_layers
        );
    }

    #[test]
    fn plan_for_places_like_the_exhaustive_oracle() {
        // gen_mix_3c mixes GPU generations, so its workload carries a
        // non-zero compute-skew term.
        for (topo, pg) in [
            (presets::hybrid_two_cluster(2), 1u8),
            (presets::table4_2r_2ib_2ib(), 5),
            (presets::gen_mix_3c(), 5),
        ] {
            let req = PlanRequest::parameter_group(pg);
            let (plan, _) = plan_for(
                &topo,
                &req,
                &HolmesConfig::full(),
                DpSyncStrategy::DistributedOptimizer,
            )
            .unwrap();
            let degrees = plan.degrees();
            let workload = PlacementWorkload::new(
                placement_gradient_bytes(&req.job, degrees),
                placement_stage_flops(&req.job, degrees),
            );
            let oracle =
                holmes_parallel::search_cluster_orders(&topo, &GroupLayout::new(degrees), workload);
            assert_eq!(plan.assignment, oracle.assignment, "PG{pg}");
        }
    }

    #[test]
    fn placement_volume_uses_the_worst_stage() {
        let req = PlanRequest::parameter_group(1);
        let degrees = ParallelDegrees::infer_data(1, 2, 16).unwrap();
        let per_layer = holmes_model::layer_params(&req.job.config);
        let embed = holmes_model::embedding_params(&req.job.config);
        let layers = u64::from(req.job.config.num_layers);
        assert_eq!(
            placement_gradient_bytes(&req.job, degrees),
            (layers.div_ceil(2) * per_layer + embed) * 4
        );
        // Tensor sharding divides the synced volume.
        let sharded = ParallelDegrees::infer_data(2, 2, 32).unwrap();
        assert_eq!(
            placement_gradient_bytes(&req.job, sharded),
            placement_gradient_bytes(&req.job, degrees) / 2
        );
    }

    #[test]
    fn indivisible_batch_is_refused_before_placement_search() {
        // 512 replicas of micro-batch 4 cannot split PG 1's 768 samples.
        let topo = presets::synthetic_fleet(64, 2);
        let req = PlanRequest::parameter_group(1);
        let want = PlanError::Infeasible(BuildError::BatchIndivisible {
            global_batch: 768,
            data_parallel: 512,
            micro_batch: 4,
        });
        let cfg = HolmesConfig::full();
        let dp = DpSyncStrategy::DistributedOptimizer;
        let no_search = |_: &Topology, _: &GroupLayout, _: PlacementWorkload| -> DeviceAssignment {
            panic!("an infeasible batch reached placement search")
        };
        assert_eq!(
            plan_for_with(&topo, &req, &cfg, dp, no_search).unwrap_err(),
            want
        );
        let err = crate::run_framework(crate::FrameworkKind::Holmes, &topo, 1, None).unwrap_err();
        assert!(
            matches!(&err, crate::RunError::Plan(e) if *e == want),
            "{err}"
        );
    }

    #[test]
    fn impossible_degrees_are_rejected() {
        let topo = presets::homogeneous(NicType::InfiniBand, 3); // 24 GPUs
        let mut req = PlanRequest::parameter_group(1);
        req.pipeline_parallel = 5; // 24 % 5 != 0
        assert!(matches!(
            plan_for(
                &topo,
                &req,
                &HolmesConfig::full(),
                DpSyncStrategy::AllReduce
            ),
            Err(PlanError::Degrees(_))
        ));
    }
}
