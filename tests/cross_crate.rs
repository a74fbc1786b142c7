//! Cross-crate consistency tests: the analytic models (used by the
//! planner for scoring) must agree with the event-driven simulation (used
//! for measurement) wherever both apply.

#![allow(
    clippy::float_cmp,
    reason = "test code: exact comparisons and unwrapped fixtures"
)]

use holmes_repro::engine::{execute, CollKind, CollectiveSpec, ExecutionSpec, TransportPolicy};
use holmes_repro::netsim::collective::ring_link;
use holmes_repro::parallel::{GroupLayout, HolmesScheduler, ParallelDegrees};
use holmes_repro::topology::{presets, NicType, Rank};

/// Simulated ring all-reduce time must match its schedule folded over the
/// ring's bottleneck link on an uncontended fabric (same algorithm, same
/// bottleneck).
#[test]
fn simulated_collective_matches_analytic_model() {
    for nic in [NicType::InfiniBand, NicType::RoCE] {
        let topo = presets::homogeneous(nic, 2);
        let devices: Vec<Rank> = (0..16).map(Rank).collect();
        let bytes: u64 = 1 << 30;

        // Analytic.
        let (bw, lat) = ring_link(&topo, &devices, false).unwrap();
        let analytic = CollKind::AllReduce
            .schedule(&devices, bytes, |_| 0)
            .seconds_uniform(bw, lat);

        // Simulated.
        let programs = devices
            .iter()
            .map(|&d| {
                (
                    d,
                    vec![
                        holmes_repro::engine::Op::CollStart { id: 0 },
                        holmes_repro::engine::Op::CollWait { id: 0 },
                    ],
                )
            })
            .collect();
        let report = execute(
            &topo,
            ExecutionSpec {
                programs,
                collectives: vec![CollectiveSpec::new(CollKind::AllReduce, devices, bytes)],
                transport: TransportPolicy::Auto,
            },
        )
        .unwrap();
        let simulated = report.total_seconds;
        let rel = (simulated - analytic).abs() / analytic;
        assert!(
            rel < 0.05,
            "{nic}: simulated {simulated} vs analytic {analytic} (rel {rel:.3})"
        );
    }
}

/// End-to-end path for the hierarchical cross-cluster all-reduce: NIC
/// selection flags the spanning DP group for the two-level algorithm, the
/// builder upgrades the emitted collective, and the simulated iteration
/// beats the flat-ring baseline (same plan, upgrade disabled).
#[test]
fn hierarchical_allreduce_wins_for_spanning_dp_groups() {
    use holmes_repro::engine::{simulate_iteration, DpSyncStrategy, EngineConfig};
    use holmes_repro::model::ParameterGroup;
    use holmes_repro::parallel::{
        DpCollectiveAlgo, NicSelectionReport, ParallelPlan, UniformPartition,
    };
    let topo = presets::same_nic_two_clusters(NicType::InfiniBand, 2);
    let pg = ParameterGroup::table2(1);
    let degrees = ParallelDegrees::infer_data(1, 1, topo.device_count()).unwrap();
    let layout = GroupLayout::new(degrees);
    let assignment = HolmesScheduler::assign(&topo);

    // The planner-side analysis picks the two-level algorithm for the
    // single DP group, which spans both clusters.
    let nic_report = NicSelectionReport::analyze(&topo, &layout, &assignment);
    assert!(nic_report
        .groups
        .iter()
        .all(|g| g.algo == DpCollectiveAlgo::HierarchicalTwoLevel));

    let layers = UniformPartition.partition(pg.job().config.num_layers, &[1.0]);
    let plan = ParallelPlan::new(layout, assignment, layers, true);
    let run = |hierarchical: bool| {
        let cfg = EngineConfig {
            dp_sync: DpSyncStrategy::AllReduce,
            hierarchical_cross_cluster: hierarchical,
            ..EngineConfig::default()
        };
        simulate_iteration(&topo, &plan, &pg.job(), &cfg, None, None)
            .unwrap()
            .0
    };
    let hier = run(true);
    let flat = run(false);
    // The builder emitted the upgraded kind (and only when enabled).
    let hier_wall: f64 = hier.collective_wall_seconds[&CollKind::HierarchicalAllReduce]
        .iter()
        .sum();
    let flat_wall: f64 = flat.collective_wall_seconds[&CollKind::AllReduce]
        .iter()
        .sum();
    assert!(!hier
        .collective_wall_seconds
        .contains_key(&CollKind::AllReduce));
    assert!(!flat
        .collective_wall_seconds
        .contains_key(&CollKind::HierarchicalAllReduce));
    // Keeping ring traffic intra-cluster must pay off through the full
    // simulated iteration, not just in isolation.
    assert!(
        hier_wall < 0.6 * flat_wall,
        "hierarchical wall {hier_wall} vs flat {flat_wall}"
    );
    assert!(
        hier.total_seconds < flat.total_seconds,
        "hierarchical iteration {} vs flat {}",
        hier.total_seconds,
        flat.total_seconds
    );
}

/// The NIC-selection analytic DP cost must rank environments the same way
/// the full simulation does.
#[test]
fn analytic_dp_cost_ranks_like_simulation() {
    use holmes_repro::{run_framework, FrameworkKind};
    let grad_bytes = 1u64 << 30;
    let mut analytic = Vec::new();
    let mut simulated = Vec::new();
    for nic in NicType::ALL {
        let topo = presets::homogeneous(nic, 4);
        let degrees = ParallelDegrees::infer_data(1, 2, topo.device_count()).unwrap();
        let layout = GroupLayout::new(degrees);
        let assignment = HolmesScheduler::assign(&topo);
        let report =
            holmes_repro::parallel::NicSelectionReport::analyze(&topo, &layout, &assignment);
        analytic.push(report.dp_sync_cost_seconds(&topo, grad_bytes));
        simulated.push(
            run_framework(FrameworkKind::Holmes, &topo, 1, None)
                .unwrap()
                .metrics
                .iteration_seconds,
        );
    }
    // Both must be ordered IB < RoCE < Ethernet.
    assert!(
        analytic[0] < analytic[1] && analytic[1] < analytic[2],
        "{analytic:?}"
    );
    assert!(
        simulated[0] < simulated[1] && simulated[1] < simulated[2],
        "{simulated:?}"
    );
}

/// Eq. 6 bookkeeping: metrics computed by the engine must be exactly
/// `flops / (time · N)` of the model crate's formula.
#[test]
fn metrics_are_consistent_with_eq6() {
    use holmes_repro::model::{flops_per_iteration, ParameterGroup};
    use holmes_repro::{run_framework, FrameworkKind};
    let topo = presets::homogeneous(NicType::InfiniBand, 4);
    let r = run_framework(FrameworkKind::Holmes, &topo, 1, None).unwrap();
    let job = ParameterGroup::table2(1).job();
    let expect = flops_per_iteration(&job.config, job.global_batch)
        / (r.metrics.iteration_seconds * 32.0)
        / 1e12;
    assert!((r.metrics.tflops_per_gpu - expect).abs() < 1e-9);
    let thpt = f64::from(job.global_batch) / r.metrics.iteration_seconds;
    assert!((r.metrics.throughput_samples_per_sec - thpt).abs() < 1e-9);
}

/// Simulations are deterministic end to end: identical inputs produce
/// bit-identical metrics.
#[test]
fn end_to_end_determinism() {
    use holmes_repro::{run_framework, FrameworkKind};
    let topo = presets::hybrid_two_cluster(2);
    let a = run_framework(FrameworkKind::Holmes, &topo, 3, None).unwrap();
    let b = run_framework(FrameworkKind::Holmes, &topo, 3, None).unwrap();
    assert_eq!(a.metrics.iteration_seconds, b.metrics.iteration_seconds);
    assert_eq!(a.report.events, b.report.events);
    assert_eq!(a.report.flows, b.report.flows);
}

/// Device programs must reference every device exactly once, and the
/// executor's per-device accounting must cover all of them.
#[test]
fn every_device_gets_a_program_and_a_finish_time() {
    use holmes_repro::engine::{build_iteration, EngineConfig};
    use holmes_repro::model::ParameterGroup;
    use holmes_repro::parallel::{ParallelPlan, UniformPartition};
    let topo = presets::table4_2r_2ib_2ib();
    let pg = ParameterGroup::table2(5);
    let degrees = ParallelDegrees::infer_data(1, 3, topo.device_count()).unwrap();
    let layout = GroupLayout::new(degrees);
    let assignment = HolmesScheduler::assign(&topo);
    let layers = UniformPartition.partition(36, &[1.0, 1.0, 1.0]);
    let plan = ParallelPlan::new(layout, assignment, layers, true);
    let spec = build_iteration(&topo, &plan, &pg.job(), &EngineConfig::default()).unwrap();
    assert_eq!(spec.programs.len(), 48);
    let mut devices: Vec<u32> = spec.programs.iter().map(|(r, _)| r.0).collect();
    devices.sort_unstable();
    devices.dedup();
    assert_eq!(devices.len(), 48);
    let report = execute(&topo, spec).unwrap();
    assert_eq!(report.device_finish_seconds.len(), 48);
    assert!(report
        .device_finish_seconds
        .iter()
        .all(|&t| t > 0.0 && t <= report.total_seconds));
}

/// Timeline spans must be consistent with the report: per-device busy time
/// equals the accounted compute time, spans never overlap on one device,
/// and everything fits inside the iteration.
#[test]
fn timeline_consistency() {
    use holmes_repro::obs::ObsSession;
    use holmes_repro::{run_framework, FrameworkKind};
    let topo = presets::hybrid_two_cluster(2);
    let mut session = ObsSession::new();
    let r = run_framework(FrameworkKind::Holmes, &topo, 1, Some(&mut session)).unwrap();
    let tl = &r.report.timeline;
    assert!(!tl.spans.is_empty());
    for (i, &device) in [Rank(0), Rank(16), Rank(31)].iter().enumerate() {
        let spans = tl.device_spans(device);
        assert!(!spans.is_empty(), "device {i} has spans");
        for w in spans.windows(2) {
            assert!(
                w[0].end <= w[1].start + 1e-9,
                "overlapping spans on {device}: {w:?}"
            );
        }
        for s in &spans {
            assert!(s.start >= 0.0 && s.end <= r.report.total_seconds + 1e-9);
            assert!(s.seconds() >= 0.0);
        }
    }
    // Busy time of the slowest device matches its compute accounting.
    let dev0_busy = tl.device_busy_seconds(Rank(0));
    let dev0_compute = r.report.device_compute_seconds[0];
    assert!(
        (dev0_busy - dev0_compute).abs() < 1e-6,
        "busy {dev0_busy} vs accounted {dev0_compute}"
    );
    // The session's chrome trace carries the engine spans of every
    // device.
    let json = session.trace.to_chrome_trace();
    let engine_pid = holmes_repro::obs::Layer::Engine.pid();
    for device in [0, 16, 31] {
        let track = format!("\"pid\":{engine_pid},\"tid\":{device}");
        assert!(json.contains(&track), "no engine span on device {device}");
    }
}
