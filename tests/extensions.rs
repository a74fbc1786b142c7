//! Integration tests for the reproduction's extensions beyond the paper:
//! mixed-accelerator fleets, the analytic estimator, the autotuner and the
//! multi-iteration run simulator.

use holmes_repro::model::ParameterGroup;
use holmes_repro::topology::{presets, GpuProfile, NicType, TopologyBuilder};
use holmes_repro::{
    autotune, estimate_iteration, run_holmes_with, simulate_training_run, AutotuneRequest,
    HolmesConfig, PlanRequest, Scenario, TrainingRunConfig,
};

/// An older-generation 125 TFLOP/s accelerator (V100-like) for mixed-fleet
/// scenarios.
fn v100_like() -> GpuProfile {
    GpuProfile {
        name: "V100-like".to_owned(),
        peak_tflops: 125.0,
        memory_gib: 32.0,
        ..GpuProfile::a100_80g()
    }
}

/// A fleet mixing an A100 InfiniBand cluster with an older RoCE cluster
/// of slower GPUs.
fn mixed_gpu_fleet() -> holmes_repro::topology::Topology {
    use holmes_repro::topology::{Cluster, NicProfile, Node};
    let a100_cluster = Cluster::homogeneous("a100-ib", 2, NicType::InfiniBand);
    let mut old_cluster = Cluster {
        name: "v100-roce".into(),
        nodes: (0..2)
            .map(|_| {
                let mut node = Node::standard(NicProfile::roce_200g());
                node.gpu = v100_like();
                node
            })
            .collect(),
        has_switch: true,
        oversubscription: 1.0,
    };
    old_cluster.nodes.iter_mut().for_each(|n| n.gpu_count = 8);
    TopologyBuilder::new()
        .custom_cluster(a100_cluster)
        .custom_cluster(old_cluster)
        .build()
        .unwrap()
}

/// The Self-Adapting Partition must shift *more* layers toward the fast
/// cluster when the slow cluster also has slower GPUs, and the rebalance
/// must pay off against a uniform split.
#[test]
fn mixed_gpu_fleet_rebalances_layers() {
    let topo = mixed_gpu_fleet();
    let sa = run_holmes_with(&HolmesConfig::full(), &topo, 1).unwrap();
    // NIC-only speeds give [17, 13]; GPU scaling must skew harder.
    assert!(
        sa.stage_layers[0] > 17,
        "expected > 17 layers on the A100 stage, got {:?}",
        sa.stage_layers
    );
    let uniform = run_holmes_with(&HolmesConfig::without_self_adapting(), &topo, 1).unwrap();
    assert!(
        sa.metrics.tflops_per_gpu > uniform.metrics.tflops_per_gpu,
        "self-adapting {} vs uniform {}",
        sa.metrics.tflops_per_gpu,
        uniform.metrics.tflops_per_gpu
    );
}

/// A mixed fleet is slower per GPU than the pure-A100 hybrid at equal
/// scale but still trains.
#[test]
fn mixed_gpu_fleet_is_slower_than_pure_a100() {
    let mixed = run_holmes_with(&HolmesConfig::full(), &mixed_gpu_fleet(), 1).unwrap();
    let pure = run_holmes_with(&HolmesConfig::full(), &presets::hybrid_two_cluster(2), 1).unwrap();
    assert!(mixed.metrics.tflops_per_gpu < pure.metrics.tflops_per_gpu);
    assert!(mixed.metrics.tflops_per_gpu > 30.0);
}

/// The estimator must stay within 30% of simulation across a broad sweep:
/// 3 parameter groups × 4 environments.
#[test]
fn estimator_accuracy_sweep() {
    use holmes_repro::engine::{simulate_iteration, DpSyncStrategy};
    use holmes_repro::plan_for;
    let environments: Vec<holmes_repro::topology::Topology> = vec![
        presets::homogeneous(NicType::InfiniBand, 4),
        presets::homogeneous(NicType::RoCE, 4),
        presets::homogeneous(NicType::Ethernet, 4),
        presets::hybrid_two_cluster(2),
    ];
    for pg in [1u8, 2, 3] {
        for topo in &environments {
            let req = PlanRequest::parameter_group(pg);
            let (plan, engine_cfg) = plan_for(
                topo,
                &req,
                &HolmesConfig::full(),
                DpSyncStrategy::DistributedOptimizer,
            )
            .unwrap();
            let est = estimate_iteration(topo, &plan, &req.job, &engine_cfg).unwrap();
            let (report, _) =
                simulate_iteration(topo, &plan, &req.job, &engine_cfg, None, None).unwrap();
            let rel = (est.seconds - report.total_seconds).abs() / report.total_seconds;
            assert!(
                rel < 0.30,
                "PG{pg}: estimate {:.2}s vs simulated {:.2}s (rel {rel:.3})",
                est.seconds,
                report.total_seconds
            );
        }
    }
}

/// The autotuner works on three-cluster fleets and never returns a
/// candidate violating the divisibility constraints.
#[test]
fn autotune_on_three_clusters() {
    let topo = presets::table4_4r_4ib_4ib(); // 96 GPUs
    let req = AutotuneRequest::new(ParameterGroup::table2(5).job());
    let ranked = autotune(&topo, &req, &HolmesConfig::full());
    assert!(!ranked.is_empty());
    for c in &ranked {
        assert_eq!(c.tensor * c.pipeline * c.data, 96);
        assert!(req.job.microbatches_per_replica(c.data).is_some());
    }
    assert!(ranked[0].simulated.is_some());
}

/// Multi-iteration run statistics respond to the environment: a RoCE fleet
/// yields strictly fewer tokens/second than an InfiniBand fleet.
#[test]
fn training_run_tokens_reflect_environment() {
    let run = |nic| {
        simulate_training_run(
            &Scenario::new(presets::homogeneous(nic, 4), 1),
            &HolmesConfig::full(),
            holmes_repro::engine::DpSyncStrategy::DistributedOptimizer,
            &TrainingRunConfig {
                iterations: 10,
                ..TrainingRunConfig::default()
            },
        )
        .unwrap()
        .tokens_per_sec
    };
    let ib = run(NicType::InfiniBand);
    let roce = run(NicType::RoCE);
    assert!(ib > roce, "IB {ib} vs RoCE {roce}");
    // PG1 at ~97 samples/s × 2048 seq ⇒ ~200k tokens/s; jitter shaves a few %.
    assert!(ib > 150_000.0 && ib < 250_000.0, "ib tokens/s = {ib}");
}
