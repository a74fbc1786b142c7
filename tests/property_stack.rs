//! Workspace-level property-based tests (proptest) over the full stack:
//! random degree triples, topologies and workloads must preserve the
//! structural invariants the Holmes scheduling method relies on.

use proptest::prelude::*;

use holmes_repro::engine::{simulate_iteration, DpSyncStrategy};
use holmes_repro::model::{GptConfig, TrainJob};
use holmes_repro::parallel::DeviceAssignment;
use holmes_repro::parallel::{
    GroupLayout, HolmesScheduler, InterleavedScheduler, ParallelDegrees, ParallelPlan,
    SelfAdaptingPartition, UniformPartition,
};
use holmes_repro::topology::{
    presets, Cluster, ClusterId, DeviceCoord, GpuProfile, NicProfile, NicType, Node, Rank,
    Topology, TopologyBuilder,
};
use holmes_repro::{plan_for, run_scenario, HolmesConfig, Scenario};

fn degrees_strategy() -> impl Strategy<Value = (u32, u32, u32)> {
    (1u32..=4, 1u32..=4, 1u32..=8)
}

fn nic_strategy() -> impl Strategy<Value = NicType> {
    prop_oneof![
        Just(NicType::InfiniBand),
        Just(NicType::RoCE),
        Just(NicType::Ethernet),
    ]
}

/// Every ordering of `0..n`.
fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for rest in permutations(n - 1) {
        for at in 0..=rest.len() {
            let mut perm = rest.clone();
            perm.insert(at, n - 1);
            out.push(perm);
        }
    }
    out
}

/// One random cluster: nodes as (NIC, GPU generation), a switch unless
/// the second field is 0, and the switch oversubscription ratio.
type ClusterSpec = (Vec<(NicType, usize)>, u8, f64);

fn cluster_strategy() -> impl Strategy<Value = ClusterSpec> {
    (
        prop::collection::vec((nic_strategy(), 0usize..3), 1..=3),
        0u8..4,
        prop::sample::select(vec![1.0f64, 2.0, 3.5]),
    )
}

fn random_cluster(i: usize, (nodes, switch, oversubscription): &ClusterSpec) -> Cluster {
    let gens = [
        GpuProfile::v100_32g(),
        GpuProfile::a100_80g(),
        GpuProfile::h100_80g(),
    ];
    Cluster {
        name: format!("c{i}"),
        nodes: nodes
            .iter()
            .map(|&(nic, gen)| Node {
                gpu: gens[gen].clone(),
                ..Node::standard(NicProfile::reference(nic))
            })
            .collect(),
        has_switch: *switch != 0,
        oversubscription: *oversubscription,
    }
}

/// A fleet built from `(nodes, NIC, GPU generation)` cluster specs, the
/// same fleet with its clusters listed in `order`, and a small t = 1
/// request at pipeline depth `p`.
fn relisted_fleet(
    spec: &[(u32, NicType, usize)],
    order: &[usize],
    p: u32,
) -> (
    holmes_repro::topology::Topology,
    holmes_repro::topology::Topology,
    holmes_repro::PlanRequest,
) {
    let gens = [
        GpuProfile::v100_32g(),
        GpuProfile::a100_80g(),
        GpuProfile::h100_80g(),
    ];
    let build = |spec: &mut dyn Iterator<Item = (u32, NicType, usize)>| {
        let mut builder = TopologyBuilder::new();
        for (i, (nodes, nic, gen)) in spec.enumerate() {
            builder = builder.cluster_with_gpu(format!("c{i}"), nodes, nic, gens[gen].clone());
        }
        builder.build().unwrap()
    };
    let request = holmes_repro::PlanRequest {
        tensor_parallel: 1,
        pipeline_parallel: p,
        job: TrainJob {
            config: GptConfig::paper_standard(12, 1024, 16),
            micro_batch: 2,
            global_batch: 256,
        },
    };
    (
        build(&mut spec.iter().copied()),
        build(&mut order.iter().map(|&i| spec[i])),
        request,
    )
}

/// Iteration seconds and the sorted device-finish times, as bits.
fn finish_bits(seconds: f64, finish: &[f64]) -> (u64, Vec<u64>) {
    let mut bits: Vec<u64> = finish.iter().map(|t| t.to_bits()).collect();
    bits.sort_unstable();
    (seconds.to_bits(), bits)
}

proptest! {
    /// Every group family of Eqs. 1/3/4 partitions the rank set, for any
    /// valid degree triple.
    #[test]
    fn group_families_partition_ranks((t, p, d) in degrees_strategy()) {
        let n = t * p * d;
        let layout = GroupLayout::new(ParallelDegrees::new(t, p, d, n).unwrap());
        for groups in [layout.tp_groups(), layout.pp_groups(), layout.dp_groups()] {
            let mut seen = vec![false; n as usize];
            for g in &groups {
                for &r in g {
                    prop_assert!(!seen[r as usize]);
                    seen[r as usize] = true;
                }
            }
            prop_assert!(seen.iter().all(|&s| s));
        }
    }

    /// Membership queries agree with the enumerated groups everywhere.
    #[test]
    fn membership_queries_consistent((t, p, d) in degrees_strategy()) {
        let n = t * p * d;
        let layout = GroupLayout::new(ParallelDegrees::new(t, p, d, n).unwrap());
        for r in 0..n {
            prop_assert!(layout.tp_group(layout.tp_group_of(r)).contains(&r));
            prop_assert!(layout.pp_group(layout.pp_group_of(r)).contains(&r));
            prop_assert!(layout.dp_group(layout.dp_group_of(r)).contains(&r));
            prop_assert_eq!(
                layout.pp_group(layout.pp_group_of(r))[layout.stage_of(r) as usize],
                r
            );
        }
    }

    /// Every scheduler yields a bijection for any multi-cluster topology.
    #[test]
    fn schedulers_produce_permutations(
        ib_nodes in 1u32..=3,
        roce_nodes in 1u32..=3,
        gpus in prop::sample::select(vec![2u32, 4, 8]),
    ) {
        let topo = TopologyBuilder::new()
            .cluster("ib", ib_nodes, NicType::InfiniBand)
            .cluster("roce", roce_nodes, NicType::RoCE)
            .gpus_per_node(gpus)
            .build()
            .unwrap();
        let n = topo.device_count();
        for a in [
            HolmesScheduler::assign(&topo),
            DeviceAssignment::identity(n),
            InterleavedScheduler::assign(&topo),
        ] {
            let mut devices: Vec<u32> = (0..n).map(|l| a.device_of(l).0).collect();
            devices.sort_unstable();
            prop_assert_eq!(devices, (0..n).collect::<Vec<_>>());
            for l in 0..n {
                prop_assert_eq!(a.logical_of(a.device_of(l)), l);
            }
        }
    }

    /// Partition strategies preserve the layer total and stage minimums
    /// for arbitrary positive speeds and any α in a sane range.
    #[test]
    fn partitions_preserve_totals(
        layers in 1u32..=128,
        speeds in prop::collection::vec(1.0f64..500.0, 1..=6),
        alpha in 1.0f64..1.5,
    ) {
        let uni = UniformPartition.partition(layers, &speeds);
        prop_assert_eq!(uni.iter().sum::<u32>(), layers);
        let sa = SelfAdaptingPartition { alpha }.partition(layers, &speeds);
        prop_assert_eq!(sa.iter().sum::<u32>(), layers);
        if layers >= speeds.len() as u32 {
            prop_assert!(uni.iter().all(|&l| l >= 1));
            prop_assert!(sa.iter().all(|&l| l >= 1));
        }
    }

    /// Self-adapting at α=1 with equal speeds reproduces the paper's Eq. 2
    /// floor rule: every stage gets `⌊layers/stages⌋`, with the whole
    /// remainder on the last-visited stage (`N_roce = N − N_ib` in the
    /// two-stage form). When layers divide evenly this *is* uniform.
    #[test]
    fn self_adapting_degenerates_to_floor_rule(
        layers in 1u32..=96,
        stages in 1usize..=6,
    ) {
        prop_assume!(layers >= stages as u32);
        let speeds = vec![1.0; stages];
        let sa = SelfAdaptingPartition { alpha: 1.0 }.partition(layers, &speeds);
        let floor = layers / stages as u32;
        let remainder = layers % stages as u32;
        prop_assert_eq!(*sa.iter().min().unwrap(), floor);
        prop_assert_eq!(*sa.iter().max().unwrap(), floor + remainder);
        if remainder == 0 {
            let uni = UniformPartition.partition(layers, &speeds);
            prop_assert_eq!(sa, uni);
        }
    }

    /// Under the Holmes scheduler, every DP group's devices share a single
    /// pipeline stage and, when cluster sizes align with stages, a single
    /// cluster — the invariant Automatic NIC Selection depends on.
    #[test]
    fn holmes_dp_groups_share_stage(nodes in 1u32..=3, t in 1u32..=2) {
        let topo = presets::hybrid_two_cluster(nodes);
        let n = topo.device_count();
        prop_assume!(n.is_multiple_of(t * 2));
        let layout = GroupLayout::new(ParallelDegrees::infer_data(t, 2, n).unwrap());
        let a = HolmesScheduler::assign(&topo);
        for g in 0..layout.dp_group_count() {
            let devices: Vec<Rank> = layout
                .dp_group(g)
                .iter()
                .map(|&l| a.device_of(l))
                .collect();
            let clusters: std::collections::BTreeSet<u32> = devices
                .iter()
                .map(|r| topo.coord(*r).unwrap().cluster.0)
                .collect();
            prop_assert_eq!(clusters.len(), 1);
        }
    }

    /// Eq. 5 / Eq. 6 arithmetic sanity over random architectures: positive,
    /// monotone in batch, and the per-layer decomposition always re-sums.
    #[test]
    fn model_formulas_hold(
        layers in 2u32..=64,
        hidden_pow in 8u32..=13,
        batch in prop::sample::select(vec![64u32, 256, 768, 1536]),
    ) {
        use holmes_repro::model::{
            flops_per_iteration, layer_fwd_flops_per_sample, logit_fwd_flops_per_sample,
            model_blocks, parameter_count,
        };
        let cfg = GptConfig::paper_standard(layers, 1 << hidden_pow, 16);
        let params = parameter_count(&cfg);
        prop_assert!(params > 0);
        let blocks = model_blocks(&cfg);
        prop_assert_eq!(blocks.iter().map(|b| b.params).sum::<u64>(), params);
        let f = flops_per_iteration(&cfg, batch);
        let rebuilt = 3.0
            * f64::from(batch)
            * (f64::from(layers) * layer_fwd_flops_per_sample(&cfg)
                + logit_fwd_flops_per_sample(&cfg));
        prop_assert!((f - rebuilt).abs() / f < 1e-9);
    }

    /// Cross-layer consistency of the shared collective IR: the engine's
    /// flow-level replay of a schedule and the planner's static topology
    /// fold (`algo::estimate_collective`) price the same algorithm within
    /// a few percent, for every algorithm kind, on both single- and
    /// two-cluster fabrics.
    #[test]
    fn executor_replay_matches_topology_fold(
        nic in nic_strategy(),
        kind_idx in 0usize..6,
        two_clusters in prop::sample::select(vec![false, true]),
        mb in 16u64..256,
    ) {
        use holmes_repro::engine::{
            execute, CollKind, CollectiveSpec, ExecutionSpec, Op, TransportPolicy,
        };
        use holmes_repro::netsim::algo;
        let kinds = [
            CollKind::AllReduce,
            CollKind::TreeAllReduce,
            CollKind::ReduceScatter,
            CollKind::AllGather,
            CollKind::Broadcast,
            CollKind::HierarchicalAllReduce,
        ];
        let kind = kinds[kind_idx];
        let topo = if two_clusters {
            presets::same_nic_two_clusters(nic, 1)
        } else {
            presets::homogeneous(nic, 2)
        };
        let bytes = mb << 20;
        let devices: Vec<Rank> = (0..topo.device_count()).map(Rank).collect();
        let est = algo::estimate_collective(&topo, kind, &devices, bytes);
        let programs = devices
            .iter()
            .map(|&d| (d, vec![Op::CollStart { id: 0 }, Op::CollWait { id: 0 }]))
            .collect();
        let report = execute(
            &topo,
            ExecutionSpec {
                programs,
                collectives: vec![CollectiveSpec::new(kind, devices, bytes)],
                transport: TransportPolicy::Auto,
            },
        )
        .unwrap();
        let rel = (report.total_seconds - est).abs() / est;
        prop_assert!(
            rel < 0.05,
            "{nic} {kind:?}: simulated {} vs fold {est} (rel {rel:.4})",
            report.total_seconds
        );
    }

    /// Full-stack smoke property: any feasible (t, p) on a random
    /// environment simulates successfully with physically sane metrics.
    #[test]
    fn random_plans_simulate_sanely(
        nic in nic_strategy(),
        nodes in prop::sample::select(vec![2u32, 4]),
        p in 1u32..=2,
    ) {
        use holmes_repro::engine::{simulate_iteration, EngineConfig};
        let topo = presets::homogeneous(nic, nodes);
        let n = topo.device_count();
        prop_assume!(n.is_multiple_of(p));
        let job = TrainJob {
            config: GptConfig::paper_standard(12, 1024, 16),
            micro_batch: 2,
            global_batch: 256,
        };
        let d = n / p;
        prop_assume!(job.microbatches_per_replica(d).is_some());
        let layout = GroupLayout::new(ParallelDegrees::infer_data(1, p, n).unwrap());
        let assignment = HolmesScheduler::assign(&topo);
        let layers = UniformPartition.partition(12, &vec![1.0; p as usize]);
        let plan = ParallelPlan::new(layout, assignment, layers, true);
        let (report, metrics) =
            simulate_iteration(&topo, &plan, &job, &EngineConfig::default(), None, None).unwrap();
        prop_assert!(metrics.tflops_per_gpu > 0.0);
        prop_assert!(metrics.tflops_per_gpu < 312.0, "cannot exceed peak");
        prop_assert!(report.total_seconds > 0.0);
        prop_assert!(report.forward_seconds_max > 0.0);
        prop_assert!(report.backward_seconds_max >= report.forward_seconds_max);
    }

    /// Verifier-as-oracle over the IR constructors, on every input the
    /// executor's `lower` accepts: any non-empty set of distinct ranks in
    /// any order, on fleets of 1-4 clusters with unequal node counts, all
    /// eight kinds (parameter-server kinds with 1..=n servers) and buffers
    /// of 0 bytes, fewer bytes than members, sizes not divisible by the
    /// member count and whole MiB. Every schedule `CollKind::schedule`
    /// builds satisfies the full static invariant catalogue (byte
    /// conservation, rank coverage, DAG rounds, link existence).
    #[test]
    fn ir_constructors_pass_the_verifier(
        fleet in prop::collection::vec((1u32..=3, nic_strategy()), 1..=4),
        gpus in prop::sample::select(vec![1u32, 2, 4]),
        keys in prop::collection::vec(0u64..1 << 32, 48),
        (size, kind_idx, servers) in (0usize..48, 0usize..8, 0u32..48),
        (bytes_class, a, b) in (0usize..4, 0u64..1 << 30, 0u64..1 << 30),
    ) {
        use holmes_repro::analysis::verify_collective;
        use holmes_repro::engine::CollKind;
        let mut builder = TopologyBuilder::new().gpus_per_node(gpus);
        for (i, &(nodes, nic)) in fleet.iter().enumerate() {
            builder = builder.cluster(format!("c{i}"), nodes, nic);
        }
        let topo = builder.build().unwrap();
        // A random subset of the ranks in a random order.
        let mut devices: Vec<Rank> = (0..topo.device_count()).map(Rank).collect();
        devices.sort_by_key(|r| keys[r.0 as usize]);
        devices.truncate(1 + size % devices.len());
        let m = devices.len() as u64;
        let servers = 1 + servers % m as u32;
        let kind = [
            CollKind::AllReduce,
            CollKind::TreeAllReduce,
            CollKind::ReduceScatter,
            CollKind::AllGather,
            CollKind::Broadcast,
            CollKind::HierarchicalAllReduce,
            CollKind::PsPush { servers },
            CollKind::PsPull { servers },
        ][kind_idx];
        let bytes = match bytes_class {
            0 => 0,
            1 => a % m,
            // A remainder in 1..m: not divisible by the member count.
            2 if m > 1 => a * m + 1 + b % (m - 1),
            2 => a,
            _ => (a % 256 + 1) << 20,
        };
        let cluster_of = |r: Rank| topo.coord(r).unwrap().cluster.0;
        let schedule = kind.schedule(&devices, bytes, cluster_of);
        let defects = verify_collective(&topo, kind, &devices, bytes, &schedule);
        prop_assert!(defects.is_empty(), "{kind:?} on {devices:?}, {bytes} B: {defects:?}");
    }

    /// Verifier-as-oracle over the builder: on random fleets of 1-4
    /// clusters mixing NIC technologies and GPU generations, any fitting
    /// (t, p) and every gradient-sync strategy (all-reduce with the
    /// hierarchical upgrade on and off, distributed and overlapped
    /// optimizers, ZeRO-3, parameter servers) under both transports,
    /// every collective `build_iteration` emits passes
    /// `verify_collective` with its bytes split per channel exactly as
    /// the executor splits them.
    #[test]
    fn built_collectives_pass_the_verifier(
        fleet in prop::collection::vec((1u32..=3, nic_strategy(), 0usize..3), 1..=4),
        gpus in prop::sample::select(vec![1u32, 2, 4]),
        (t, pick) in (prop::sample::select(vec![1u32, 2, 4]), 0usize..64),
        (dp_idx, buckets, servers) in (0usize..6, 1u32..=8, 1u32..=4),
        tcp in prop::sample::select(vec![false, true]),
        microbatches in 1u32..=4,
    ) {
        use holmes_repro::analysis::verify_collective;
        use holmes_repro::engine::{build_iteration, EngineConfig, TransportPolicy};
        let gens = [
            GpuProfile::v100_32g(),
            GpuProfile::a100_80g(),
            GpuProfile::h100_80g(),
        ];
        let mut builder = TopologyBuilder::new().gpus_per_node(gpus);
        for (i, &(nodes, nic, gen)) in fleet.iter().enumerate() {
            builder = builder.cluster_with_gpu(format!("c{i}"), nodes, nic, gens[gen].clone());
        }
        let topo = builder.build().unwrap();
        let n = topo.device_count();
        prop_assume!(n.is_multiple_of(t));
        // Pipeline depths that divide the fleet and fit the 8 layers.
        let depths: Vec<u32> = (1..=(n / t).min(8))
            .filter(|p| (n / t).is_multiple_of(*p))
            .collect();
        let p = depths[pick % depths.len()];
        let d = n / (t * p);
        let job = TrainJob {
            config: GptConfig::paper_standard(8, 512, 8),
            micro_batch: 2,
            global_batch: 2 * d * microbatches,
        };
        let (dp_sync, hierarchical) = [
            (DpSyncStrategy::AllReduce, true),
            (DpSyncStrategy::AllReduce, false),
            (DpSyncStrategy::DistributedOptimizer, true),
            (DpSyncStrategy::OverlappedOptimizer { buckets }, true),
            (DpSyncStrategy::Zero3, true),
            (DpSyncStrategy::ParameterServer { servers }, true),
        ][dp_idx];
        let cfg = EngineConfig {
            dp_sync,
            hierarchical_cross_cluster: hierarchical,
            transport: if tcp { TransportPolicy::ForceTcpInterNode } else { TransportPolicy::Auto },
            ..EngineConfig::default()
        };
        let layout = GroupLayout::new(ParallelDegrees::infer_data(t, p, n).unwrap());
        let assignment = HolmesScheduler::assign(&topo);
        let layers = UniformPartition.partition(8, &vec![1.0; p as usize]);
        let plan = ParallelPlan::new(layout, assignment, layers, true);
        let spec = build_iteration(&topo, &plan, &job, &cfg).unwrap();
        let cluster_of = |r: Rank| topo.coord(r).unwrap().cluster.0;
        for c in &spec.collectives {
            let bytes = c.bytes / u64::from(c.channels.max(1));
            let schedule = c.kind.schedule(&c.devices, bytes, cluster_of);
            let defects = verify_collective(&topo, c.kind, &c.devices, bytes, &schedule);
            prop_assert!(
                defects.is_empty(),
                "{:?} on {:?}, {bytes} B: {defects:?}",
                c.kind,
                c.devices
            );
        }
    }

    /// Verifier-as-oracle over the placement search: the winning
    /// assignment of `search_cluster_orders`, wrapped into a plan with any
    /// partition strategy, passes `verify_plan` — including the §3.2 DP
    /// group NIC-homogeneity checks on heterogeneous fabrics.
    #[test]
    fn searched_plans_pass_the_verifier(
        nodes in 1u32..=3,
        t in 1u32..=2,
        alpha in 1.0f64..1.5,
        mb in 1u64..64,
    ) {
        use holmes_repro::analysis::verify_plan;
        use holmes_repro::parallel::search_cluster_orders;
        let topo = presets::hybrid_two_cluster(nodes);
        let n = topo.device_count();
        prop_assume!(n.is_multiple_of(t * 2));
        let layout = GroupLayout::new(ParallelDegrees::infer_data(t, 2, n).unwrap());
        let result = search_cluster_orders(&topo, &layout, mb << 20);
        let total_layers = 24u32;
        let speeds = vec![2.0, 1.0];
        let stage_layers =
            SelfAdaptingPartition { alpha }.partition(total_layers, &speeds);
        let plan = ParallelPlan::new(
            layout,
            result.assignment,
            stage_layers,
            true,
        );
        let defects = verify_plan(&topo, &plan, total_layers, Some(&speeds));
        prop_assert!(defects.is_empty(), "{defects:?}");
    }

    /// Guided == exhaustive: on every random topology small enough to
    /// enumerate, branch-and-bound plan synthesis must return the
    /// exhaustive oracle's exact winner — identical cluster order,
    /// identical device assignment, bit-equal cost.
    #[test]
    fn guided_synthesis_matches_the_exhaustive_oracle(
        spec in prop::collection::vec((1u32..=2, nic_strategy()), 2..=4),
        t in prop::sample::select(vec![1u32, 2, 4, 8]),
        p in 1u32..=4,
        mb in 1u64..64,
    ) {
        use holmes_repro::parallel::{search_cluster_orders, synthesize_placement};
        let mut builder = TopologyBuilder::new();
        for (i, (nodes, nic)) in spec.iter().enumerate() {
            builder = builder.cluster(format!("c{i}"), *nodes, *nic);
        }
        let topo = builder.build().unwrap();
        let n = topo.device_count();
        prop_assume!(n.is_multiple_of(t * p));
        let layout = GroupLayout::new(ParallelDegrees::infer_data(t, p, n).unwrap());
        let gradient_bytes = mb << 20;
        let exhaustive = search_cluster_orders(&topo, &layout, gradient_bytes);
        let (guided, stats) = synthesize_placement(&topo, &layout, gradient_bytes);
        prop_assert_eq!(&guided.cluster_order, &exhaustive.cluster_order);
        prop_assert_eq!(
            guided.cost_seconds.to_bits(),
            exhaustive.cost_seconds.to_bits(),
            "guided {} vs exhaustive {} ({:?})",
            guided.cost_seconds,
            exhaustive.cost_seconds,
            stats
        );
        prop_assert_eq!(guided.assignment, exhaustive.assignment);
    }

    /// Verifier-as-oracle over guided synthesis: every plan the guided
    /// planner returns — on random heterogeneous topologies and degree
    /// choices — passes `verify_plan`, including the §3.2 DP-group
    /// NIC-homogeneity checks.
    #[test]
    fn guided_plans_pass_the_verifier(
        spec in prop::collection::vec((1u32..=2, nic_strategy()), 2..=4),
        t in 1u32..=2,
        p in 2u32..=4,
        mb in 1u64..64,
    ) {
        use holmes_repro::analysis::verify_plan;
        use holmes_repro::parallel::synthesize_placement;
        let mut builder = TopologyBuilder::new();
        for (i, (nodes, nic)) in spec.iter().enumerate() {
            builder = builder.cluster(format!("c{i}"), *nodes, *nic);
        }
        let topo = builder.build().unwrap();
        let n = topo.device_count();
        prop_assume!(n.is_multiple_of(t * p));
        let layout = GroupLayout::new(ParallelDegrees::infer_data(t, p, n).unwrap());
        let (result, _) = synthesize_placement(&topo, &layout, mb << 20);
        let total_layers = 24u32;
        let speeds = vec![1.0; p as usize];
        let stage_layers = UniformPartition.partition(total_layers, &speeds);
        let plan = ParallelPlan::new(layout, result.assignment, stage_layers, true);
        let defects = verify_plan(&topo, &plan, total_layers, Some(&speeds));
        prop_assert!(defects.is_empty(), "{defects:?}");
    }

    /// Verifier-as-oracle over the autotuner: every candidate the search
    /// enumerates carries a plan that passes `verify_plan` — the tuner
    /// never scores a structurally invalid configuration.
    #[test]
    fn autotuned_plans_pass_the_verifier(
        nic in nic_strategy(),
        nodes in prop::sample::select(vec![1u32, 2]),
    ) {
        use holmes_repro::analysis::verify_plan;
        use holmes_repro::{autotune, AutotuneRequest, HolmesConfig};
        let topo = presets::homogeneous(nic, nodes);
        let job = TrainJob {
            config: GptConfig::paper_standard(12, 1024, 16),
            micro_batch: 2,
            global_batch: 256,
        };
        let req = AutotuneRequest {
            job,
            max_tensor: 2,
            max_pipeline: 2,
            top_k: 2,
        };
        let ranked = autotune(&topo, &req, &HolmesConfig::full());
        prop_assert!(!ranked.is_empty());
        for c in &ranked {
            let Some(plan) = c.plan() else { continue };
            let defects = verify_plan(&topo, plan, job.config.num_layers, None);
            prop_assert!(
                defects.is_empty(),
                "t={} p={} d={}: {defects:?}",
                c.tensor,
                c.pipeline,
                c.data
            );
        }
    }

    /// The compute floor is a true lower bound, bit for bit: on presets
    /// and random cluster lists (mixed NICs and GPU generations,
    /// switchless and oversubscribed clusters), for every Table 2 group,
    /// `(t, p)`, DP sync strategy, pipeline schedule and recompute
    /// setting, `compute_floor_seconds` of the plan's stage prices never
    /// exceeds the simulated iteration time. No tolerance: a violation is
    /// a finding in the floor or the executor. The same draw checks the
    /// memory verdict: `price_stages` fits exactly when `build_iteration`
    /// raises no `OutOfMemory`, and so does every candidate `autotune`
    /// scores on the fleet, whose finalist's floor is checked too.
    #[test]
    fn compute_floor_bounds_the_simulated_iteration(
        source in 0usize..10,
        clusters in prop::collection::vec(cluster_strategy(), 1..=3),
        gpus in prop::sample::select(vec![1u32, 2, 4, 8]),
        pg in 1u8..=8,
        (t_pick, p_pick) in (0usize..4, 0usize..64),
        (dp_idx, buckets, servers) in (0usize..5, 1u32..=8, 1u32..=4),
        (schedule_idx, virtual_stages) in (0usize..3, 2u32..=4),
        recompute in prop::sample::select(vec![false, true]),
    ) {
        use holmes_repro::engine::{
            build_iteration, compute_floor_seconds, price_stages, BuildError, EngineConfig,
            ScheduleKind, StagePrice,
        };
        use holmes_repro::model::ParameterGroup;
        use holmes_repro::{autotune, AutotuneRequest, PlanRequest};
        let topo = match source {
            0 => presets::homogeneous(NicType::InfiniBand, 2),
            1 => presets::hybrid_two_cluster(1),
            2 => presets::hybrid_split(2, 1),
            3 => presets::gen_split_2c(),
            4 => presets::gen_mix_3c(),
            _ => {
                let mut builder = TopologyBuilder::new();
                for (i, cluster) in clusters.iter().enumerate() {
                    builder = builder.custom_cluster(random_cluster(i, cluster));
                }
                builder.gpus_per_node(gpus).build().unwrap()
            }
        };
        let job = ParameterGroup::table2(pg).job();
        let n = topo.device_count();
        let tensors: Vec<u32> = [1u32, 2, 4, 8]
            .into_iter()
            .filter(|&t| t <= topo.gpus_per_node() && n.is_multiple_of(t))
            .collect();
        let t = tensors[t_pick % tensors.len()];
        let depths: Vec<u32> = (1..=(n / t).min(8))
            .filter(|&p| (n / t).is_multiple_of(p) && job.microbatches_per_replica(n / (t * p)).is_some())
            .collect();
        prop_assume!(!depths.is_empty());
        let p = depths[p_pick % depths.len()];
        let request = PlanRequest { tensor_parallel: t, pipeline_parallel: p, job };
        let dp_sync = [
            DpSyncStrategy::DistributedOptimizer,
            DpSyncStrategy::AllReduce,
            DpSyncStrategy::ParameterServer { servers },
            DpSyncStrategy::OverlappedOptimizer { buckets },
            DpSyncStrategy::Zero3,
        ][dp_idx];
        let (plan, planned) = plan_for(&topo, &request, &HolmesConfig::full(), dp_sync).unwrap();
        let cfg = EngineConfig {
            dp_sync,
            schedule: [
                ScheduleKind::OneFOneB,
                ScheduleKind::GPipe,
                ScheduleKind::Interleaved { virtual_stages },
            ][schedule_idx],
            recompute_activations: recompute,
            ..planned
        };
        // The interleaved schedule needs micro-batches divisible by p.
        let Ok(stages) = price_stages(&topo, &plan, &job, &cfg) else {
            prop_assume!(false);
            unreachable!()
        };
        let floor = compute_floor_seconds(&stages, &cfg);
        let oom = |plan: &ParallelPlan, cfg: &EngineConfig| {
            let cfg = EngineConfig { enforce_memory: true, ..*cfg };
            matches!(build_iteration(&topo, plan, &job, &cfg), Err(BuildError::OutOfMemory { .. }))
        };
        prop_assert_eq!(stages.iter().all(StagePrice::fits_memory), !oom(&plan, &cfg));
        let (_, metrics) = simulate_iteration(&topo, &plan, &job, &cfg, None, None).unwrap();
        prop_assert!(
            floor <= metrics.iteration_seconds,
            "t={t} p={p} {cfg:?}: floor {floor} above simulated {}",
            metrics.iteration_seconds
        );

        let req = AutotuneRequest { job, max_tensor: t, max_pipeline: p, top_k: 1 };
        for c in autotune(&topo, &req, &HolmesConfig::full()) {
            let (plan, cfg) = (c.plan().unwrap(), c.engine_config().unwrap());
            prop_assert_eq!(c.fits_memory, !oom(plan, cfg), "t={} p={}", c.tensor, c.pipeline);
            if let Some(m) = c.simulated {
                prop_assert!(
                    c.floor_seconds <= m.iteration_seconds,
                    "autotune t={} p={}: floor {} above simulated {}",
                    c.tensor,
                    c.pipeline,
                    c.floor_seconds,
                    m.iteration_seconds
                );
            }
        }
    }

    /// Straggler-aware partition degenerates **bit-for-bit** to the
    /// uniform-rate Eq. 2 split whenever every stage's per-layer compute
    /// time is identical — arbitrary calibrated speeds, α, layer counts,
    /// and per-stage communication terms included. This is the
    /// byte-identity guarantee the hetero generalization rides on: with
    /// no compute skew, nothing downstream of the partition can move.
    #[test]
    fn straggler_partition_degenerates_to_eq2_bitwise(
        layers in 1u32..=128,
        speeds in prop::collection::vec(1.0f64..500.0, 1..=6),
        comms in prop::collection::vec(0.0f64..2.0, 6),
        sec_per_layer in 1e-4f64..1e-1,
        alpha in 1.0f64..1.5,
    ) {
        use holmes_repro::parallel::{StageProfile, StragglerAwarePartition};
        let stages: Vec<StageProfile> = speeds
            .iter()
            .zip(&comms)
            .map(|(&speed_tflops, &comm_seconds)| StageProfile {
                speed_tflops,
                sec_per_layer,
                comm_seconds,
            })
            .collect();
        let straggler =
            StragglerAwarePartition { alpha }.partition_stages(layers, &stages);
        let eq2 = SelfAdaptingPartition { alpha }.partition(layers, &speeds);
        prop_assert_eq!(straggler, eq2);
    }

    /// The straggler-aware partition is locally optimal on real
    /// heterogeneous profiles: per-layer times that are not all equal,
    /// non-zero communication terms and at least one layer per stage give
    /// a partition `verify_hetero_partition` finds no defect in (layers
    /// conserved, no unique bottleneck another stage could relieve).
    #[test]
    fn straggler_partitions_pass_the_hetero_verifier(
        extra in 0u32..=120,
        profiles in prop::collection::vec((1.0f64..500.0, 1e-4f64..1e-1, 1e-4f64..2.0), 2..=8),
        alpha in 1.0f64..1.5,
    ) {
        use holmes_repro::analysis::verify_hetero_partition;
        use holmes_repro::parallel::{StageProfile, StragglerAwarePartition};
        let stages: Vec<StageProfile> = profiles
            .iter()
            .map(|&(speed_tflops, sec_per_layer, comm_seconds)| StageProfile {
                speed_tflops,
                sec_per_layer,
                comm_seconds,
            })
            .collect();
        let first = stages[0].sec_per_layer.to_bits();
        prop_assume!(stages.iter().any(|s| s.sec_per_layer.to_bits() != first));
        let layers = stages.len() as u32 + extra;
        let partition = StragglerAwarePartition { alpha }.partition_stages(layers, &stages);
        let defects = verify_hetero_partition(layers, &stages, &partition);
        prop_assert!(defects.is_empty(), "{partition:?}: {defects:?}");
    }

    /// Guided == exhaustive under compute skew: on every random
    /// ≤4-cluster topology mixing NIC technologies *and* device
    /// generations, branch-and-bound synthesis priced with a non-zero
    /// per-stage FLOPs workload must return the exhaustive oracle's
    /// exact winner — identical cluster order, identical assignment,
    /// bit-equal cost. Proves the admissible bound stays exact when the
    /// straggler-skew term joins the objective.
    #[test]
    fn guided_synthesis_matches_exhaustive_under_compute_skew(
        spec in prop::collection::vec((1u32..=2, nic_strategy(), 0usize..3), 2..=4),
        t in prop::sample::select(vec![1u32, 2, 4, 8]),
        p in 1u32..=4,
        mb in 1u64..64,
        gflops in 1.0f64..500.0,
    ) {
        use holmes_repro::parallel::{
            search_cluster_orders, synthesize_placement, PlacementWorkload,
        };
        use holmes_repro::topology::GpuProfile;
        let gens = [
            GpuProfile::v100_32g(),
            GpuProfile::a100_80g(),
            GpuProfile::h100_80g(),
        ];
        let mut builder = TopologyBuilder::new();
        for (i, (nodes, nic, gen)) in spec.iter().enumerate() {
            builder = builder.cluster_with_gpu(
                format!("c{i}"),
                *nodes,
                *nic,
                gens[*gen].clone(),
            );
        }
        let topo = builder.build().unwrap();
        let n = topo.device_count();
        prop_assume!(n.is_multiple_of(t * p));
        let layout = GroupLayout::new(ParallelDegrees::infer_data(t, p, n).unwrap());
        let workload = PlacementWorkload::new(mb << 20, gflops * 1e9);
        let exhaustive = search_cluster_orders(&topo, &layout, workload);
        let (guided, stats) = synthesize_placement(&topo, &layout, workload);
        prop_assert_eq!(&guided.cluster_order, &exhaustive.cluster_order);
        prop_assert_eq!(
            guided.cost_seconds.to_bits(),
            exhaustive.cost_seconds.to_bits(),
            "guided {} vs exhaustive {} ({:?})",
            guided.cost_seconds,
            exhaustive.cost_seconds,
            stats
        );
        prop_assert_eq!(guided.assignment, exhaustive.assignment);
    }

    /// Guided == exhaustive on wider fleets whose stage blocks cut
    /// clusters at varying offsets: 5-6 clusters of 1-3 nodes, 1-3 GPUs
    /// per node, mixed NIC technologies and GPU generations, t ∈ {1, 2, 4}
    /// and any pipeline depth that divides the fleet. Cluster sizes that
    /// are not multiples of `t` or of the stage block leave DP groups
    /// partly placed at most prefix boundaries, which is where dominance
    /// keys on the partial-group signature; the winner must still be the
    /// oracle's exact one.
    #[test]
    fn guided_synthesis_matches_exhaustive_when_blocks_cut_clusters(
        spec in prop::collection::vec((1u32..=3, nic_strategy(), 0usize..3), 5..=6),
        gpus in 1u32..=3,
        t in prop::sample::select(vec![1u32, 2, 4]),
        pick in 0usize..64,
        mb in 1u64..64,
        gflops in prop_oneof![Just(0.0f64), 1.0f64..500.0],
    ) {
        use holmes_repro::parallel::{
            search_cluster_orders, synthesize_placement, PlacementWorkload,
        };
        let gens = [
            GpuProfile::v100_32g(),
            GpuProfile::a100_80g(),
            GpuProfile::h100_80g(),
        ];
        let mut builder = TopologyBuilder::new().gpus_per_node(gpus);
        for (i, &(nodes, nic, gen)) in spec.iter().enumerate() {
            builder = builder.cluster_with_gpu(format!("c{i}"), nodes, nic, gens[gen].clone());
        }
        let topo = builder.build().unwrap();
        let n = topo.device_count();
        prop_assume!(n.is_multiple_of(t));
        let depths: Vec<u32> = (1..=n / t).filter(|p| (n / t).is_multiple_of(*p)).collect();
        let p = depths[pick % depths.len()];
        let layout = GroupLayout::new(ParallelDegrees::infer_data(t, p, n).unwrap());
        let workload = PlacementWorkload::new(mb << 20, gflops * 1e9);
        let exhaustive = search_cluster_orders(&topo, &layout, workload);
        let (guided, stats) = synthesize_placement(&topo, &layout, workload);
        prop_assert_eq!(&guided.cluster_order, &exhaustive.cluster_order);
        prop_assert_eq!(
            guided.cost_seconds.to_bits(),
            exhaustive.cost_seconds.to_bits(),
            "t={} p={}: guided {} vs exhaustive {} ({:?})",
            t,
            p,
            guided.cost_seconds,
            exhaustive.cost_seconds,
            stats
        );
        prop_assert_eq!(guided.assignment, exhaustive.assignment);
    }

    /// The exhaustive optimum does not depend on the order in which a
    /// fleet's clusters are listed: a random 2-4 cluster fleet mixing NIC
    /// technologies and GPU generations, and the same fleet with its
    /// clusters rotated and/or reversed, must give bit-equal
    /// `search_cluster_orders` cost for any `(t, p)`, gradient volume and
    /// non-negative stage FLOPs. Relabeling clusters only relabels the
    /// `M!` candidate orders, so the minimum must not move.
    #[test]
    fn search_cost_is_invariant_under_cluster_listing_order(
        spec in prop::collection::vec((1u32..=2, nic_strategy(), 0usize..3), 2..=4),
        rotate in 0usize..4,
        reverse in prop::sample::select(vec![false, true]),
        t in 1u32..=2,
        p in 1u32..=4,
        mb in 1u64..64,
        gflops in prop_oneof![Just(0.0f64), 0.0f64..500.0],
    ) {
        use holmes_repro::parallel::{search_cluster_orders, PlacementWorkload};
        use holmes_repro::topology::Topology;
        let gens = [
            GpuProfile::v100_32g(),
            GpuProfile::a100_80g(),
            GpuProfile::h100_80g(),
        ];
        let build = |spec: &[(u32, NicType, usize)]| -> Topology {
            let mut builder = TopologyBuilder::new();
            for (i, &(nodes, nic, gen)) in spec.iter().enumerate() {
                builder = builder.cluster_with_gpu(format!("c{i}"), nodes, nic, gens[gen].clone());
            }
            builder.build().unwrap()
        };
        let mut relisted = spec.clone();
        relisted.rotate_left(rotate % spec.len());
        if reverse {
            relisted.reverse();
        }
        let (topo, other) = (build(&spec), build(&relisted));
        let n = topo.device_count();
        prop_assume!(n.is_multiple_of(t * p));
        let layout = GroupLayout::new(ParallelDegrees::infer_data(t, p, n).unwrap());
        let workload = PlacementWorkload::new(mb << 20, gflops * 1e9);
        let a = search_cluster_orders(&topo, &layout, workload);
        let b = search_cluster_orders(&other, &layout, workload);
        prop_assert_eq!(
            a.cost_seconds.to_bits(),
            b.cost_seconds.to_bits(),
            "listed {:?}: {}; relisted {:?}: {}",
            spec,
            a.cost_seconds,
            relisted,
            b.cost_seconds
        );
        prop_assert_eq!(a.evaluated, b.evaluated);
    }

    /// `simulate_iteration` does not depend on the order in which a
    /// fleet's clusters are listed: a random 2-4 cluster fleet mixing NIC
    /// technologies and GPU generations is planned once, and the plan,
    /// relabeled onto the same fleet with its clusters permuted, must
    /// simulate to bit-identical iteration seconds and the same multiset
    /// of device-finish bits (ranks are relabeled, so finish times are
    /// compared sorted). Replica classes form in device order, so this
    /// guards that class formation never leaks into the result.
    #[test]
    fn simulated_iteration_is_invariant_under_cluster_listing_order(
        spec in prop::collection::vec((1u32..=2, nic_strategy(), 0usize..3), 2..=4),
        perm in 0usize..24,
        p in prop::sample::select(vec![1u32, 2, 4]),
    ) {
        let orders = permutations(spec.len());
        let order = &orders[perm % orders.len()];
        let (topo, relisted, request) = relisted_fleet(&spec, order, p);
        let Ok((plan, cfg)) =
            plan_for(&topo, &request, &HolmesConfig::full(), DpSyncStrategy::DistributedOptimizer)
        else {
            prop_assume!(false);
            unreachable!()
        };
        // Cluster `j` of the relisted fleet is cluster `order[j]` here.
        let moved = |rank: Rank| {
            let c = topo.coord(rank).unwrap();
            let j = order.iter().position(|&i| i as u32 == c.cluster.0).unwrap();
            relisted
                .rank_of(DeviceCoord { cluster: ClusterId(j as u32), ..c })
                .unwrap()
        };
        let devices = (0..plan.assignment.len())
            .map(|l| moved(plan.assignment.device_of(l)))
            .collect();
        let relabeled = ParallelPlan::new(
            plan.layout,
            DeviceAssignment::from_permutation(devices),
            plan.stage_layers.clone(),
            plan.scatter_gather,
        );
        let simulate = |topo: &Topology, plan: &ParallelPlan| {
            simulate_iteration(topo, plan, &request.job, &cfg, None, None)
                .map(|(r, m)| finish_bits(m.iteration_seconds, &r.device_finish_seconds))
                .map_err(|e| e.to_string())
        };
        let (a, b) = (simulate(&topo, &plan), simulate(&relisted, &relabeled));
        prop_assert_eq!(&a, &b, "listed {:?}: {:?}\nrelisted in order {:?}: {:?}", spec, a, order, b);
    }

    /// The same relation one layer up, through `plan_for`: each listing
    /// is planned on its own, and both must simulate to the same bits.
    /// The planner visits clusters by (NIC bandwidth, GPU peak, node
    /// count), so listing order only breaks ties between clusters equal
    /// on all three. This generator builds each cluster from exactly
    /// those three values, so tied clusters are identical and the tie
    /// cannot change a result.
    #[test]
    fn planned_iteration_is_invariant_under_cluster_listing_order(
        spec in prop::collection::vec((1u32..=2, nic_strategy(), 0usize..3), 2..=4),
        perm in 0usize..24,
        p in prop::sample::select(vec![1u32, 2, 4]),
    ) {
        let orders = permutations(spec.len());
        let order = &orders[perm % orders.len()];
        let (topo, relisted, request) = relisted_fleet(&spec, order, p);
        let run = |topo: Topology| {
            let scenario = Scenario { topo, request };
            run_scenario(
                &scenario,
                &HolmesConfig::full(),
                DpSyncStrategy::DistributedOptimizer,
                None,
            )
            .map(|r| finish_bits(r.metrics.iteration_seconds, &r.report.device_finish_seconds))
            .map_err(|e| e.to_string())
        };
        let (a, b) = (run(topo), run(relisted));
        prop_assert_eq!(&a, &b, "listed {:?}: {:?}\nrelisted in order {:?}: {:?}", spec, a, order, b);
    }

    /// A DP group's workload cost depends on its member *set*, not on the
    /// order of its per-cluster blocks: guided synthesis memoizes group
    /// costs by node pattern (the sorted node of each member), so every
    /// permutation of a member list's cluster blocks must price
    /// bit-for-bit the same. Each cluster
    /// contributes one strided run of ranks (stride `t`, possibly only
    /// part of the cluster, as when a stage boundary splits it), on
    /// topologies with oversubscribed or switchless clusters, mixed NIC
    /// types and GPU generations inside one cluster, and a custom
    /// inter-cluster Ethernet profile.
    #[test]
    fn group_cost_is_invariant_under_cluster_block_permutations(
        // Per cluster: its spec and seeds for the block's start and length.
        clusters in prop::collection::vec((cluster_strategy(), 0u32..1024, 0u32..1024), 2..=4),
        gpus in prop::sample::select(vec![1u32, 2, 4]),
        t in prop::sample::select(vec![1u32, 2, 4]),
        inter in (0u8..2, 1.0f64..100.0, 1.0f64..50.0, 0.3f64..1.0),
        mb in 1u64..64,
        gflops in prop_oneof![Just(0.0f64), 1.0f64..500.0],
    ) {
        use holmes_repro::parallel::{DpGroupNic, PlacementWorkload};
        use holmes_repro::topology::ClusterId;
        let mut builder = TopologyBuilder::new();
        for (i, (cluster, _, _)) in clusters.iter().enumerate() {
            builder = builder.custom_cluster(random_cluster(i, cluster));
        }
        let (custom, gbps, latency_us, efficiency) = inter;
        if custom == 0 {
            builder = builder.inter_cluster_ethernet(NicProfile {
                bandwidth_gbps: gbps,
                latency_us,
                efficiency,
                ..NicProfile::ethernet_25g()
            });
        }
        let topo = builder.gpus_per_node(gpus).build().unwrap();
        let blocks: Vec<Vec<Rank>> = clusters
            .iter()
            .enumerate()
            .map(|(c, &(_, start, len))| {
                let ranks = topo.cluster_ranks(ClusterId(c as u32));
                let start = start as usize % ranks.len();
                let room = (ranks.len() - 1 - start) / t as usize + 1;
                let len = 1 + len as usize % room;
                (0..len).map(|j| ranks[start + j * t as usize]).collect()
            })
            .collect();
        let workload = PlacementWorkload::new(mb << 20, gflops * 1e9);
        let cost_of = |perm: &[usize]| {
            let members: Vec<Rank> = perm.iter().flat_map(|&b| blocks[b].clone()).collect();
            DpGroupNic::analyze_group(&topo, 0, members).workload_cost_seconds(&topo, workload)
        };
        let sorted = cost_of(&(0..blocks.len()).collect::<Vec<_>>());
        prop_assert!(sorted.is_finite() && sorted >= 0.0, "cost {sorted}");
        for perm in permutations(blocks.len()) {
            let cost = cost_of(&perm);
            prop_assert_eq!(
                cost.to_bits(),
                sorted.to_bits(),
                "block order {:?} prices {} against {} in cluster order",
                perm,
                cost,
                sorted
            );
        }
    }

    /// The other half of the node-pattern memo: a member's GPU index
    /// inside its node never enters a group's price. Each member is moved
    /// to another GPU of its node through one random permutation of GPU
    /// indices per node, keeping the list order, and the workload and
    /// sync costs must stay bit-equal. One cluster prices a flat ring
    /// (RDMA on a switched same-NIC cluster, Ethernet otherwise), several
    /// a hierarchical all-reduce; strides below `G` put several members
    /// on one node.
    #[test]
    fn group_cost_is_invariant_under_per_node_gpu_permutations(
        // Per cluster: its spec and seeds for the block's start and length.
        clusters in prop::collection::vec((cluster_strategy(), 0u32..1024, 0u32..1024), 1..=4),
        gpus in prop::sample::select(vec![1u32, 2, 4, 8]),
        t in prop::sample::select(vec![1u32, 2, 4, 8]),
        // Per node (at most 4 clusters of 3 nodes), a random key per GPU:
        // sorting the node's GPUs by key permutes them.
        keys in prop::collection::vec(prop::collection::vec(0u32..1024, 8), 12),
        mb in 1u64..64,
        gflops in prop_oneof![Just(0.0f64), 1.0f64..500.0],
    ) {
        use holmes_repro::parallel::{DpGroupNic, PlacementWorkload};
        let mut builder = TopologyBuilder::new();
        for (i, (cluster, _, _)) in clusters.iter().enumerate() {
            builder = builder.custom_cluster(random_cluster(i, cluster));
        }
        let topo = builder.gpus_per_node(gpus).build().unwrap();
        let members: Vec<Rank> = clusters
            .iter()
            .enumerate()
            .flat_map(|(c, &(_, start, len))| {
                let ranks = topo.cluster_ranks(ClusterId(c as u32));
                let start = start as usize % ranks.len();
                let room = (ranks.len() - 1 - start) / t as usize + 1;
                let len = 1 + len as usize % room;
                (0..len).map(move |j| ranks[start + j * t as usize])
            })
            .collect();
        let moved: Vec<Rank> = members
            .iter()
            .map(|&r| {
                let coord = topo.coord(r).unwrap();
                let key = &keys[(r.0 / gpus) as usize];
                let mut gpu_of: Vec<u32> = (0..gpus).collect();
                gpu_of.sort_by_key(|&g| (key[g as usize], g));
                topo.rank_of(DeviceCoord { gpu: gpu_of[coord.gpu as usize], ..coord }).unwrap()
            })
            .collect();
        let (mut pattern, mut moved_pattern) = (Vec::new(), Vec::new());
        DpGroupNic::node_pattern(&topo, members.iter().copied(), &mut pattern);
        DpGroupNic::node_pattern(&topo, moved.iter().copied(), &mut moved_pattern);
        prop_assert_eq!(pattern, moved_pattern);
        let workload = PlacementWorkload::new(mb << 20, gflops * 1e9);
        let (a, b) = (
            DpGroupNic::analyze_group(&topo, 0, members.clone()),
            DpGroupNic::analyze_group(&topo, 0, moved.clone()),
        );
        prop_assert_eq!(a.algo, b.algo);
        prop_assert_eq!(
            a.workload_cost_seconds(&topo, workload).to_bits(),
            b.workload_cost_seconds(&topo, workload).to_bits(),
            "{:?} and {:?} price apart",
            members,
            moved
        );
        prop_assert_eq!(
            a.sync_cost_seconds(&topo, mb << 20).to_bits(),
            b.sync_cost_seconds(&topo, mb << 20).to_bits()
        );
    }

    /// The planner and the estimator price a data-parallel ring with one
    /// function (`collective::ring_link`): on random single-cluster
    /// fleets — mixed NICs and GPU generations, switchless and
    /// oversubscribed switches — under any scheduler, the estimator's
    /// all-reduce sync is bit-for-bit the planner's worst group cost.
    #[test]
    fn estimator_prices_dp_rings_like_the_planner(
        cluster in cluster_strategy(),
        gpus in prop::sample::select(vec![1u32, 2, 4]),
        t in prop::sample::select(vec![1u32, 2, 4]),
        p in 1u32..=4,
        layers in 4u32..=12,
        scheduler in 0usize..3,
    ) {
        use holmes_repro::engine::{DpSyncStrategy, EngineConfig};
        use holmes_repro::estimate_iteration;
        use holmes_repro::model::{embedding_params, layer_params, CommVolumes};
        use holmes_repro::parallel::DpGroupNic;
        let topo = TopologyBuilder::new()
            .custom_cluster(random_cluster(0, &cluster))
            .gpus_per_node(gpus)
            .build()
            .unwrap();
        let n = topo.device_count();
        prop_assume!(n.is_multiple_of(t * p));
        let layout = GroupLayout::new(ParallelDegrees::infer_data(t, p, n).unwrap());
        let job = TrainJob {
            config: GptConfig::paper_standard(layers, 1024, 16),
            micro_batch: 1,
            global_batch: 4 * layout.degrees().data,
        };
        let assignment = match scheduler {
            0 => HolmesScheduler::assign(&topo),
            1 => DeviceAssignment::identity(n),
            _ => InterleavedScheduler::assign(&topo),
        };
        let stage_layers = UniformPartition.partition(layers, &vec![1.0; p as usize]);
        let plan = ParallelPlan::new(layout, assignment, stage_layers.clone(), true);
        let cfg = EngineConfig {
            dp_sync: DpSyncStrategy::AllReduce,
            ..EngineConfig::default()
        };
        let estimated = estimate_iteration(&topo, &plan, &job, &cfg).unwrap().dp_sync_seconds;
        let mut planned = 0.0f64;
        for g in 0..plan.layout.dp_group_count() {
            let stage = (g / t) as usize;
            let mut params = u64::from(stage_layers[stage]) * layer_params(&job.config);
            if stage == 0 {
                params += embedding_params(&job.config);
            }
            let group = DpGroupNic::analyze_group(&topo, g, plan.dp_group_devices(g));
            planned = planned
                .max(group.sync_cost_seconds(&topo, CommVolumes::dp_gradient_bytes(params, t)));
        }
        prop_assert_eq!(
            estimated.to_bits(),
            planned.to_bits(),
            "estimated {} vs planned {}",
            estimated,
            planned
        );
    }
}
