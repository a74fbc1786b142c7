//! Failure-injection tests of the substrate: degraded links, bandwidth
//! bottlenecks and pathological configurations must degrade gracefully
//! (slower, never wrong or hung).
//!
//! The paper defers fault *tolerance* to future work ("we assume that
//! communication between devices is stable"); these tests cover the
//! simulator's behaviour under degradation, which the reproduction needs
//! for trustworthy what-if studies.

use holmes_repro::engine::{execute, CollKind, CollectiveSpec, ExecutionSpec, Op, TransportPolicy};
use holmes_repro::netsim::{Fabric, FlowSpec, LinkCapacity, NetSim, SimDuration};
use holmes_repro::topology::{presets, NicProfile, NicType, Rank, TopologyBuilder};
use holmes_repro::{run_framework, FrameworkKind};

/// A throttled inter-cluster trunk slows cross-cluster flows but leaves
/// intra-cluster traffic untouched.
#[test]
fn trunk_bottleneck_throttles_cross_cluster_only() {
    let topo = presets::hybrid_two_cluster(2);
    let run_with_trunk = |trunk_bytes_per_sec: f64| {
        let mut sim = NetSim::new();
        let fabric = Fabric::build_with_trunk(&topo, &mut sim, trunk_bytes_per_sec);
        // One cross-cluster and one intra-cluster gigabyte transfer.
        sim.start_flow(fabric.flow_spec(&topo, Rank(0), Rank(16), 1 << 30, 1));
        sim.start_flow(fabric.flow_spec(&topo, Rank(0), Rank(8), 1 << 30, 2));
        let mut times = [0.0f64; 2];
        while let Some(c) = sim.next() {
            if let holmes_repro::netsim::Completion::Flow { token, .. } = c {
                times[(token - 1) as usize] = sim.now().as_secs_f64();
            }
        }
        times
    };
    let healthy = run_with_trunk(10e9);
    let degraded = run_with_trunk(0.1e9);
    // Cross-cluster transfer slows by ~an order of magnitude…
    assert!(
        degraded[0] > 5.0 * healthy[0],
        "{degraded:?} vs {healthy:?}"
    );
    // …intra-cluster RDMA is unaffected.
    assert!((degraded[1] - healthy[1]).abs() / healthy[1] < 0.01);
}

/// Mid-flight link degradation (a flapping NIC) stretches completion but
/// every flow still finishes.
#[test]
fn mid_flight_degradation_completes() {
    let mut sim = NetSim::new();
    let link = sim.add_link(LinkCapacity::new(1e9));
    for token in 0..4 {
        sim.start_flow(FlowSpec {
            path: vec![link],
            bytes: 1 << 30,
            latency: SimDuration::ZERO,
            rate_cap: f64::INFINITY,
            token,
            count: 1,
        });
    }
    sim.set_timer(SimDuration::from_secs_f64(1.0), 99);
    let mut completions = 0;
    while let Some(c) = sim.next() {
        match c {
            holmes_repro::netsim::Completion::Timer { token: 99 } => {
                sim.set_link_capacity(link, LinkCapacity::new(0.05e9));
            }
            holmes_repro::netsim::Completion::Flow { .. } => completions += 1,
            _ => {}
        }
    }
    assert_eq!(completions, 4);
    // 4 GiB at 1 GB/s for 1 s leaves ~3.3 GiB at 50 MB/s ≈ 66 s more.
    let t = sim.now().as_secs_f64();
    assert!(t > 50.0 && t < 120.0, "t = {t}");
}

/// A dead link parks its flows: the simulator terminates immediately
/// (no completion, no division by zero, no spinning) and reports the
/// stall so the engine's recovery layer can react.
#[test]
fn near_dead_link_stalls_but_terminates() {
    let mut sim = NetSim::new();
    let link = sim.add_link(LinkCapacity::new(0.0)); // below the dead floor
    sim.start_flow(FlowSpec {
        path: vec![link],
        bytes: 10,
        latency: SimDuration::ZERO,
        rate_cap: f64::INFINITY,
        token: 7,
        count: 1,
    });
    let c = sim.next();
    assert!(c.is_none(), "a parked flow never completes: {c:?}");
    assert!(sim.stalled(), "the stall is observable");
    assert_eq!(sim.parked_flow_tokens(), vec![7]);
}

/// Training on a cluster whose switch died (RDMA unreachable) still runs,
/// at Ethernet speed.
#[test]
fn switchless_cluster_degrades_to_ethernet_speed() {
    let mut cluster =
        holmes_repro::topology::Cluster::homogeneous("broken-switch", 4, NicType::InfiniBand);
    cluster.has_switch = false;
    let broken = TopologyBuilder::new()
        .custom_cluster(cluster)
        .build()
        .unwrap();
    let healthy = presets::homogeneous(NicType::InfiniBand, 4);
    let eth = presets::homogeneous(NicType::Ethernet, 4);

    let t_broken = run_framework(FrameworkKind::Holmes, &broken, 1, None)
        .unwrap()
        .metrics;
    let t_healthy = run_framework(FrameworkKind::Holmes, &healthy, 1, None)
        .unwrap()
        .metrics;
    let t_eth = run_framework(FrameworkKind::Holmes, &eth, 1, None)
        .unwrap()
        .metrics;

    assert!(t_broken.tflops_per_gpu < t_healthy.tflops_per_gpu);
    // Same compute-interference class as IB, so slightly above the
    // Ethernet environment, but within its regime.
    let rel = (t_broken.tflops_per_gpu - t_eth.tflops_per_gpu).abs() / t_eth.tflops_per_gpu;
    assert!(
        rel < 0.25,
        "broken {} vs ethernet {}",
        t_broken.tflops_per_gpu,
        t_eth.tflops_per_gpu
    );
}

/// Degraded per-node Ethernet (1 Gb/s management network) makes the
/// forced-TCP baseline catastrophically slow but still correct.
#[test]
fn slow_management_network_hurts_tcp_baseline_most() {
    let slow_eth = NicProfile {
        bandwidth_gbps: 1.0,
        ..NicProfile::ethernet_25g()
    };
    let topo = TopologyBuilder::new()
        .cluster("ib", 2, NicType::InfiniBand)
        .cluster("roce", 2, NicType::RoCE)
        .node_ethernet(slow_eth)
        .inter_cluster_ethernet(slow_eth)
        .build()
        .unwrap();
    let holmes = run_framework(FrameworkKind::Holmes, &topo, 1, None)
        .unwrap()
        .metrics;
    let baseline = run_framework(FrameworkKind::MegatronLm, &topo, 1, None)
        .unwrap()
        .metrics;
    // Holmes keeps DP on RDMA; only pipeline p2p suffers (and at 1 Gb/s
    // that is already painful). The baseline additionally pushes
    // *gradients* over the same links and loses at least another 2×.
    assert!(
        holmes.tflops_per_gpu > 2.0 * baseline.tflops_per_gpu,
        "holmes {} vs baseline {}",
        holmes.tflops_per_gpu,
        baseline.tflops_per_gpu
    );
}

/// Zero-byte collectives and single-member groups complete instantly even
/// under forced TCP.
#[test]
fn degenerate_collectives_complete() {
    let topo = presets::hybrid_two_cluster(1);
    let spec = ExecutionSpec {
        programs: vec![
            (
                Rank(0),
                vec![
                    Op::CollStart { id: 0 },
                    Op::CollWait { id: 0 },
                    Op::CollStart { id: 1 },
                    Op::CollWait { id: 1 },
                ],
            ),
            (
                Rank(8),
                vec![Op::CollStart { id: 0 }, Op::CollWait { id: 0 }],
            ),
        ],
        collectives: vec![
            CollectiveSpec {
                kind: CollKind::AllReduce,
                devices: vec![Rank(0), Rank(8)],
                bytes: 0,
                channels: 1,
            },
            CollectiveSpec {
                kind: CollKind::ReduceScatter,
                devices: vec![Rank(0)],
                bytes: 1 << 20,
                channels: 1,
            },
        ],
        transport: TransportPolicy::ForceTcpInterNode,
    };
    let report = execute(&topo, spec).unwrap();
    // Only propagation latency remains.
    assert!(report.total_seconds < 0.01);
}
