//! Exactness oracle for replica-class execution: random specs, clean and
//! faulted, run once with classes of one (today's per-device path) and
//! once with classes, and the two reports must agree bit for bit on
//! everything but the event and entry counters classes exist to cut.

use holmes_model::{GptConfig, TrainJob};
use holmes_netsim::{ChurnKind, LinkHealth, SimTime};
use holmes_parallel::{
    GroupLayout, HolmesScheduler, ParallelDegrees, ParallelPlan, UniformPartition,
};
use holmes_topology::{presets, NicProfile, NicType, Rank, Topology, TopologyBuilder};
use proptest::prelude::*;

use crate::builder::{build_iteration, EngineConfig, ScheduleKind};
use crate::dp_sync::DpSyncStrategy;
use crate::executor::{
    execute_inner, CollKind, CollectiveSpec, ExecError, ExecutionSpec, IterationReport,
    TransportPolicy, SOLO,
};
use crate::fault::{FaultPlan, FaultTarget};
use crate::ops::{Channel, ComputeLabel, MsgKey, Op};

/// Every report field classes must not move, with floats as bits. The
/// collective maps are listed in kind-name order.
pub(crate) fn fingerprint(r: &IterationReport) -> String {
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut walls: Vec<_> = r
        .collective_wall_seconds
        .iter()
        .map(|(k, v)| (format!("{k:?}"), bits(v)))
        .collect();
    walls.sort();
    let mut spans: Vec<_> = r
        .collective_spans
        .iter()
        .map(|(k, v)| {
            let v: Vec<_> = v.iter().map(|&(a, b)| (a.to_bits(), b.to_bits())).collect();
            (format!("{k:?}"), v)
        })
        .collect();
    spans.sort();
    let timeline: Vec<_> = r
        .timeline
        .spans
        .iter()
        .map(|s| {
            (
                s.device,
                format!("{:?}", s.kind),
                s.start.to_bits(),
                s.end.to_bits(),
            )
        })
        .collect();
    let usage: Vec<_> = r
        .node_link_usage
        .iter()
        .map(|u| {
            bits(&[
                u.rdma_bytes,
                u.eth_bytes,
                u.rdma_utilization,
                u.eth_utilization,
            ])
        })
        .collect();
    format!(
        "total {:?}\nfinish {:?}\ncompute {:?}\nmax {:?}\nwalls {walls:?}\nspans {spans:?}\n\
         flows {}\ntimeline {timeline:?}\nusage {usage:?}\nwindows {:?}\nconditions {:?}\n\
         retries {} tcp {}",
        r.total_seconds.to_bits(),
        bits(&r.device_finish_seconds),
        bits(&r.device_compute_seconds),
        bits(&[
            r.forward_seconds_max,
            r.backward_seconds_max,
            r.optimizer_seconds_max
        ]),
        r.flows,
        r.fault_windows,
        r.degraded_conditions,
        r.flow_retries,
        r.tcp_fallback_flows,
    )
}

fn run(
    topo: &Topology,
    spec: &ExecutionSpec,
    plan: Option<&FaultPlan>,
    solo: bool,
) -> Result<IterationReport, ExecError> {
    SOLO.with(|s| s.set(solo));
    let out = execute_inner(topo, spec.clone(), plan, None);
    SOLO.with(|s| s.set(false));
    out
}

/// Run `spec` both ways and require bit-equal outcomes. Returns the
/// class-path report when both succeeded.
fn both_ways(
    topo: &Topology,
    spec: &ExecutionSpec,
    plan: Option<&FaultPlan>,
) -> Result<Option<IterationReport>, TestCaseError> {
    let solo = run(topo, spec, plan, true);
    let classes = run(topo, spec, plan, false);
    match (solo, classes) {
        (Ok(a), Ok(b)) => {
            prop_assert_eq!(fingerprint(&a), fingerprint(&b));
            prop_assert_eq!(a.classes.compute_timers, b.classes.compute_timers);
            prop_assert_eq!(a.classes.recv_wakeups, b.classes.recv_wakeups);
            prop_assert_eq!(a.classes.class_timers, a.classes.compute_timers);
            prop_assert_eq!(a.classes.collectives, b.classes.collectives);
            prop_assert_eq!(a.classes.collectives_folded, 0);
            prop_assert!(b.classes.steps_after() <= a.classes.steps_after());
            prop_assert!(b.events <= a.events);
            prop_assert!(b.launch_entries <= a.launch_entries);
            Ok(Some(b))
        }
        (Err(a), Err(b)) => {
            prop_assert_eq!(a, b);
            Ok(None)
        }
        (a, b) => Err(TestCaseError::Fail(format!(
            "solo {:?} vs classes {:?}",
            a.map(|r| r.total_seconds),
            b.map(|r| r.total_seconds)
        ))),
    }
}

fn topology(kind: u8, nodes: u32, nic: NicType) -> Topology {
    match kind {
        0 => presets::homogeneous(nic, nodes),
        1 => presets::hybrid_two_cluster(nodes.div_ceil(2)),
        2 => presets::same_nic_two_clusters(nic, nodes.div_ceil(2)),
        _ => presets::three_cluster([(1, NicType::RoCE), (1, nic), (1, NicType::InfiniBand)]),
    }
}

pub(crate) fn nic() -> impl Strategy<Value = NicType> {
    prop_oneof![
        Just(NicType::InfiniBand),
        Just(NicType::RoCE),
        Just(NicType::Ethernet),
    ]
}

pub(crate) fn dp_sync() -> impl Strategy<Value = DpSyncStrategy> {
    prop_oneof![
        Just(DpSyncStrategy::AllReduce),
        Just(DpSyncStrategy::DistributedOptimizer),
        Just(DpSyncStrategy::overlapped()),
        Just(DpSyncStrategy::Zero3),
        Just(DpSyncStrategy::parameter_server()),
    ]
}

pub(crate) fn schedule() -> impl Strategy<Value = ScheduleKind> {
    prop_oneof![
        Just(ScheduleKind::OneFOneB),
        Just(ScheduleKind::GPipe),
        Just(ScheduleKind::Interleaved { virtual_stages: 2 }),
    ]
}

/// Raw draws for a fault plan: link faults as (at ns, node, health,
/// RDMA or Ethernet), churn as (at ns, node, kind), stragglers as (rank,
/// slowdown), and an optional trunk.
pub(crate) type RawFaults = (
    Vec<(u64, u32, u8, u8)>,
    Vec<(u64, u32, u8)>,
    Vec<(u32, f64)>,
    Option<f64>,
);

/// Fault draws on the scale of one small iteration (tens of milliseconds
/// to seconds), over at most 4 nodes and 32 ranks.
pub(crate) fn raw_faults() -> impl Strategy<Value = RawFaults> {
    (
        prop::collection::vec((0u64..3_000_000_000, 0u32..4, 0u8..4, 0u8..2), 0..3),
        prop::collection::vec((0u64..3_000_000_000, 0u32..5, 0u8..3), 0..2),
        prop::collection::vec(
            (0u32..32, prop::sample::select(vec![1.5f64, 2.0, 3.0])),
            0..3,
        ),
        prop::sample::select(vec![None, Some(5e9f64)]),
    )
}

/// The fault plan of `raw` on `topo`, dropping link faults and stragglers
/// outside it (churn on a missing node stays: a pure membership signal).
pub(crate) fn fault_plan(
    topo: &Topology,
    (faults, churn, stragglers, trunk): RawFaults,
) -> FaultPlan {
    let mut plan = FaultPlan {
        trunk_bytes_per_sec: trunk,
        ..FaultPlan::default()
    };
    for (at, node, health, eth) in faults {
        let health = match health {
            0 => LinkHealth::Down,
            1 => LinkHealth::Healthy,
            2 => LinkHealth::Degraded { fraction: 0.25 },
            _ => LinkHealth::Degraded { fraction: 0.5 },
        };
        let target = match (eth, trunk) {
            (_, Some(_)) if node == 0 => FaultTarget::Trunk,
            (0, _) => FaultTarget::NodeRdma(node),
            _ => FaultTarget::NodeEth(node),
        };
        if target == FaultTarget::Trunk || node < topo.node_count() {
            plan.push(SimTime(at), target, health);
        }
    }
    for (at, node, kind) in churn {
        let kind = match kind {
            0 => ChurnKind::NodePreempt,
            1 => ChurnKind::NodeDrain,
            _ => ChurnKind::NodeJoin,
        };
        plan.churn_event(SimTime(at), node, kind);
    }
    for (rank, slowdown) in stragglers {
        if rank < topo.device_count() {
            plan.straggler(Rank(rank), slowdown);
        }
    }
    plan
}

/// A planned, built iteration on a small random fleet, or `None` when
/// the shape does not fit.
pub(crate) fn built(
    (kind, nodes, nic): (u8, u32, NicType),
    (t, p): (u32, u32),
    cfg: &EngineConfig,
) -> Option<(Topology, ExecutionSpec)> {
    let topo = topology(kind, nodes, nic);
    let n = topo.device_count();
    if !n.is_multiple_of(t * p) {
        return None;
    }
    let job = TrainJob {
        config: GptConfig::paper_standard(8, 512, 8),
        micro_batch: 2,
        global_batch: 64,
    };
    let layout = GroupLayout::new(ParallelDegrees::infer_data(t, p, n).ok()?);
    let assignment = HolmesScheduler::assign(&topo);
    let layers = UniformPartition.partition(8, &vec![1.0; p as usize]);
    let plan = ParallelPlan::new(layout, assignment, layers, true);
    let spec = build_iteration(&topo, &plan, &job, cfg).ok()?;
    Some((topo, spec))
}

/// Hand-made near-lockstep programs on two IB nodes: device `d` of node
/// 0 and its partner `8 + d` on node 1 trade one message each way per
/// round around a compute op. Round `r` puts the left device's compute
/// before or after its send (`orders[r]`), and device `d` computes for
/// `menu[(picks[r] + d * skew) % menu.len()]`, so classes form, split
/// and re-form. The menu holds zero, one nanosecond and multiples of the
/// route latency, so compute timers, flow starts and flow completions
/// collide at one instant.
fn lockstep(
    k: u32,
    orders: &[bool],
    picks: &[usize],
    skew: usize,
    bytes: u64,
) -> (Topology, ExecutionSpec) {
    let topo = presets::homogeneous(NicType::InfiniBand, 2);
    let mut sim = holmes_netsim::NetSim::new();
    let fabric = holmes_netsim::Fabric::build(&topo, &mut sim);
    let lat = fabric.route(&topo, Rank(0), Rank(8)).latency.as_secs_f64();
    let menu = [0.0, 1e-9, lat, 2.0 * lat, 0.5 * lat, 1e-3];
    let key = |from: u32, to: u32, mb: u32| MsgKey {
        from: Rank(from),
        to: Rank(to),
        channel: Channel::Activation,
        microbatch: mb,
        chunk: 0,
    };
    let mut programs = Vec::new();
    for d in 0..k {
        let (a, b) = (d, 8 + d);
        let mut left = Vec::new();
        let mut right = Vec::new();
        for (r, &compute_first) in orders.iter().enumerate() {
            let seconds = menu[(picks[r % picks.len()] + d as usize * skew) % menu.len()];
            let compute = Op::Compute {
                label: ComputeLabel::Forward {
                    microbatch: r as u32,
                },
                seconds,
            };
            let send = Op::Send {
                key: key(a, b, r as u32),
                bytes,
            };
            if compute_first {
                left.extend([compute, send]);
            } else {
                left.extend([send, compute]);
            }
            left.push(Op::Recv {
                key: key(b, a, r as u32),
            });
            right.extend([
                Op::Recv {
                    key: key(a, b, r as u32),
                },
                compute,
                Op::Send {
                    key: key(b, a, r as u32),
                    bytes,
                },
            ]);
        }
        programs.push((Rank(a), left));
        programs.push((Rank(b), right));
    }
    let spec = ExecutionSpec {
        programs,
        collectives: Vec::new(),
        transport: TransportPolicy::Auto,
    };
    (topo, spec)
}

/// Collective kinds the sibling programs draw from.
const KINDS: [CollKind; 8] = [
    CollKind::AllReduce,
    CollKind::TreeAllReduce,
    CollKind::ReduceScatter,
    CollKind::AllGather,
    CollKind::Broadcast,
    CollKind::HierarchicalAllReduce,
    CollKind::PsPush { servers: 1 },
    CollKind::PsPull { servers: 2 },
];

/// Member layouts of the sibling groups, as rank offsets: a pair across
/// the two nodes, two per node in node-major and in interleaved ring
/// order, three members, and the pair starting on the second node.
const SHAPES: [&[u32]; 5] = [
    &[0, 8],
    &[0, 4, 8, 12],
    &[0, 8, 4, 12],
    &[0, 8, 12],
    &[8, 0],
];

/// How the sibling programs of [`siblings`] are drawn. Per-group lists
/// cycle by group index, so one entry makes the groups alike.
#[derive(Debug, Clone)]
struct Siblings {
    /// Nodes without NIC latency: inter-node round-0 entries start at
    /// their launch instant.
    zero_latency: bool,
    /// Odd groups move to a second node pair of a four-node fleet.
    spread: bool,
    /// Groups.
    m: u32,
    shapes: Vec<usize>,
    kinds: Vec<usize>,
    bytes: Vec<u64>,
    channels: Vec<u32>,
    /// What a group's last member runs right after its `CollStart`: `0`
    /// nothing, `1` a send of `send_bytes` to the receiver, `2 + i` a
    /// compute op of `menu[i]`.
    mids: Vec<usize>,
    send_bytes: u64,
    /// The last member of every group but the first skips its first
    /// compute op and waits instead for a zero-byte message from rank 7,
    /// whose program sits right behind the first group's.
    gate: bool,
    /// Per wave, the menu entry the groups compute for before launching.
    picks: Vec<usize>,
    skew: usize,
}

/// Hand-made sibling collectives, the shape of a stage's data-parallel
/// groups: group `s` holds ranks `s + offset` for the offsets of its
/// [`SHAPES`] entry. In every wave each group computes for
/// `menu[(picks[wave] + s * skew) % menu.len()]`, launches one
/// collective, runs its `mids` op and waits. The menu holds zero, one
/// nanosecond and the intra- and inter-node route latencies, so
/// launches, timers and round-0 flow starts collide at one instant; the
/// receiver, rank 15, takes every send.
fn siblings(d: &Siblings) -> (Topology, ExecutionSpec) {
    let nic = NicProfile {
        latency_us: if d.zero_latency { 0.0 } else { 2.0 },
        ..NicProfile::infiniband_200g()
    };
    let nodes = if d.spread { 4 } else { 2 };
    let topo = TopologyBuilder::new()
        .cluster_with_profile("ib", nodes, nic)
        .build()
        .expect("two or four IB nodes");
    let mut sim = holmes_netsim::NetSim::new();
    let fabric = holmes_netsim::Fabric::build(&topo, &mut sim);
    let lat = |a: u32, b: u32| fabric.route(&topo, Rank(a), Rank(b)).latency.as_secs_f64();
    let (inter, intra) = (lat(0, 8), lat(0, 1));
    let menu = [0.0, 1e-9, inter, intra, 2.0 * inter, inter + intra, 1e-3];
    let (gate, receiver) = (Rank(7), Rank(15));
    let cycle = |len: usize, s: u32| s as usize % len;
    let key = |from: Rank, to: Rank, microbatch: u32| MsgKey {
        from,
        to,
        channel: Channel::Activation,
        microbatch,
        chunk: 0,
    };
    let mut programs = Vec::new();
    let mut collectives = Vec::new();
    let mut gate_sends = Vec::new();
    let mut recvs = Vec::new();
    for s in 0..d.m {
        let base = s + if d.spread && s % 2 == 1 { 16 } else { 0 };
        let shape = SHAPES[d.shapes[cycle(d.shapes.len(), s)]];
        let group: Vec<Rank> = shape.iter().map(|o| Rank(base + o)).collect();
        let last = group.len() - 1;
        let mut ops = vec![Vec::new(); group.len()];
        for (wave, &p) in d.picks.iter().enumerate() {
            let id = collectives.len() as u32;
            collectives.push(CollectiveSpec {
                kind: KINDS[d.kinds[cycle(d.kinds.len(), s)]],
                devices: group.clone(),
                bytes: d.bytes[cycle(d.bytes.len(), s)],
                channels: d.channels[cycle(d.channels.len(), s)],
            });
            for (i, program) in ops.iter_mut().enumerate() {
                if d.gate && s > 0 && i == last && wave == 0 {
                    let k = key(gate, group[i], 0);
                    gate_sends.push(Op::Send { key: k, bytes: 0 });
                    program.push(Op::Recv { key: k });
                } else {
                    program.push(Op::Compute {
                        label: ComputeLabel::Forward {
                            microbatch: wave as u32,
                        },
                        seconds: menu[(p + s as usize * d.skew) % menu.len()],
                    });
                }
                program.push(Op::CollStart { id });
                match d.mids[cycle(d.mids.len(), s)] {
                    _ if i != last => {}
                    0 => {}
                    1 => {
                        let k = key(group[i], receiver, wave as u32);
                        program.push(Op::Send {
                            key: k,
                            bytes: d.send_bytes,
                        });
                        recvs.push(Op::Recv { key: k });
                    }
                    mid => program.push(Op::Compute {
                        label: ComputeLabel::Optimizer,
                        seconds: menu[mid - 2],
                    }),
                }
                program.push(Op::CollWait { id });
            }
        }
        programs.extend(group.into_iter().zip(ops));
    }
    if !gate_sends.is_empty() {
        let first_group = SHAPES[d.shapes[0]].len();
        programs.insert(first_group, (gate, gate_sends));
    }
    programs.push((receiver, recvs));
    let spec = ExecutionSpec {
        programs,
        collectives,
        transport: TransportPolicy::Auto,
    };
    (topo, spec)
}

/// Sibling program `i`, built so that one rule under which a
/// collective may fold into the open class (DESIGN.md §6.1.2) decides
/// the outcome: two groups launch back to back with a send between
/// whose completion lands in the class's harvest; with a timer at a
/// round-0 start instant between; behind a gate message that activates
/// the class's zero-latency entries before the joiner launches; with
/// one and two channels of the same slices; with unequal bytes; as
/// tree all-reduces of two and three members, whose rounds differ only
/// in counts; or three groups as parameter-server pulls. Every wave
/// after the first computes for `picks`, drawn at random.
fn template(i: usize, picks: &[usize]) -> Siblings {
    let base = Siblings {
        zero_latency: false,
        spread: false,
        m: 2,
        shapes: vec![0],
        kinds: vec![0],
        bytes: vec![1 << 20],
        channels: vec![1],
        mids: vec![0],
        send_bytes: 0,
        gate: false,
        picks: std::iter::once(0).chain(picks.iter().copied()).collect(),
        skew: 0,
    };
    match i {
        // A 325,000-byte send crosses NVLink in exactly the gap between
        // the intra- and inter-node latencies, so it completes in the
        // harvest of the zero-byte pushes launched with it.
        0 => Siblings {
            kinds: vec![6],
            bytes: vec![0],
            mids: vec![1],
            send_bytes: 325_000,
            ..base
        },
        1 => Siblings {
            mids: vec![4],
            ..base
        },
        2 => Siblings {
            zero_latency: true,
            shapes: vec![4],
            kinds: vec![6],
            gate: true,
            skew: 1,
            picks: std::iter::once(3).chain(picks.iter().copied()).collect(),
            ..base
        },
        3 => Siblings {
            bytes: vec![4096, 8192],
            channels: vec![1, 2],
            ..base
        },
        4 => Siblings {
            bytes: vec![4096, 1 << 20],
            ..base
        },
        5 => Siblings {
            shapes: vec![0, 3],
            kinds: vec![1],
            ..base
        },
        _ => Siblings {
            m: 3,
            shapes: vec![1],
            kinds: vec![7],
            ..base
        },
    }
}

/// Hand-made sibling templates [`template`] can build.
const TEMPLATES: usize = 7;

proptest! {
    /// Built iterations, clean or faulted, give bit-equal reports with
    /// and without classes (or the same typed error).
    #[test]
    fn classes_replay_the_per_device_path_bit_for_bit(
        fleet in (0u8..4, 1u32..=4, nic()),
        shape in (prop::sample::select(vec![1u32, 2, 4, 8]), prop::sample::select(vec![1u32, 2, 4])),
        dp in dp_sync(),
        sched in schedule(),
        tcp in prop::sample::select(vec![false, true]),
        faulted in prop::sample::select(vec![false, true]),
        raw in raw_faults(),
    ) {
        let cfg = EngineConfig {
            schedule: sched,
            dp_sync: dp,
            transport: if tcp { TransportPolicy::ForceTcpInterNode } else { TransportPolicy::Auto },
            ..EngineConfig::default()
        };
        let fitted = built(fleet, shape, &cfg);
        prop_assume!(fitted.is_some());
        let (topo, spec) = fitted.expect("prop_assume! rejected shapes that do not fit");
        let faults = faulted.then(|| fault_plan(&topo, raw));
        both_ways(&topo, &spec, faults.as_ref())?;
    }

    /// Near-lockstep point-to-point programs with colliding instants.
    #[test]
    fn classes_replay_lockstep_sends_bit_for_bit(
        k in 1u32..=8,
        orders in prop::collection::vec(prop::sample::select(vec![false, true]), 1..=4),
        picks in prop::collection::vec(0usize..6, 1..=4),
        skew in 0usize..3,
        bytes in prop::sample::select(vec![0u64, 1, 4096, 1 << 20]),
    ) {
        let (topo, spec) = lockstep(k, &orders, &picks, skew, bytes);
        both_ways(&topo, &spec, None)?;
    }

    /// Sibling collectives launched back to back, alike or not, with
    /// sends, timers and zero-latency starts between and around them:
    /// half the cases are hand-made templates, half drawn at random.
    #[test]
    fn classes_fold_sibling_collectives_bit_for_bit(
        pick in 0usize..2 * TEMPLATES,
        fleet in (prop::sample::select(vec![false, true]), prop::sample::select(vec![false, true])),
        m in 1u32..=3,
        shapes in prop::collection::vec(0usize..SHAPES.len(), 1..=2),
        kinds in prop::collection::vec(0usize..KINDS.len(), 1..=2),
        bytes in prop::collection::vec(
            prop::sample::select(vec![0u64, 1, 4096, 8192, 1 << 20]),
            1..=2,
        ),
        channels in prop::collection::vec(1u32..=2, 1..=2),
        mids in prop::collection::vec(0usize..9, 1..=2),
        send_bytes in prop::sample::select(vec![0u64, 4096, 325_000]),
        gate in prop::sample::select(vec![false, true]),
        picks in prop::collection::vec(0usize..7, 1..=3),
        skew in 0usize..3,
    ) {
        let draw = if pick < TEMPLATES {
            template(pick, &picks[1..])
        } else {
            Siblings {
                zero_latency: fleet.0,
                spread: fleet.1,
                m, shapes, kinds, bytes, channels, mids, send_bytes, gate, picks, skew,
            }
        };
        let (topo, spec) = siblings(&draw);
        both_ways(&topo, &spec, None)?;
    }
}

/// On a paper-shaped cell classes do cut the work: fewer timers, fewer
/// wake-up steps, fewer send entries, with every report field unchanged.
#[test]
fn classes_cut_timers_and_send_entries_on_a_pipeline() {
    let cfg = EngineConfig::default();
    let (topo, spec) =
        built((0, 4, NicType::InfiniBand), (1, 2), &cfg).expect("4 IB nodes fit t = 1, p = 2");
    let report = both_ways(&topo, &spec, None)
        .expect("classes replay the per-device path")
        .expect("the clean pipeline cell executes");
    let c = report.classes;
    assert!(c.class_timers * 4 <= c.compute_timers, "{c:?}");
    assert!(c.steps_after() * 4 <= c.steps_before(), "{c:?}");
    assert!(c.recv_steps < c.recv_wakeups, "{c:?}");
}

/// With tensor-parallel siblings each stage runs `t` mirror-image DP
/// collectives at one instant, and they fold into collective classes:
/// fewer entries and events, every report field unchanged.
#[test]
fn sibling_dp_collectives_fold_into_classes() {
    let cfg = EngineConfig {
        dp_sync: DpSyncStrategy::DistributedOptimizer,
        ..EngineConfig::default()
    };
    let (topo, spec) =
        built((0, 4, NicType::InfiniBand), (4, 2), &cfg).expect("4 IB nodes fit t = 4, p = 2");
    let solo = run(&topo, &spec, None, true).expect("the solo cell executes");
    let report = both_ways(&topo, &spec, None)
        .expect("collective classes replay one collective per instance")
        .expect("the clean cell executes");
    let c = report.classes;
    assert!(c.collectives_folded * 2 >= c.collectives, "{c:?}");
    assert!(report.launch_entries * 2 <= solo.launch_entries);
    assert!(report.events * 2 <= solo.events);
}
