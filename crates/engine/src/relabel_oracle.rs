//! Key-relabeling oracle for the executor's message slots. The executor
//! resolves every send and receive to a dense slot once, at setup, so the
//! labels a program happens to give its messages must not matter: with
//! every key's (microbatch, chunk) pair relabeled through one bijection
//! onto sparse values up to `u32::MAX`, a spec must replay bit for bit.

use std::collections::{BTreeMap, BTreeSet};

use holmes_netsim::{ChurnKind, SimTime};
use holmes_topology::{presets, NicType, Rank, Topology};
use proptest::prelude::*;

use crate::builder::EngineConfig;
use crate::class_oracle::{built, dp_sync, fault_plan, fingerprint, nic, raw_faults, schedule};
use crate::executor::{execute_inner, ExecError, ExecutionSpec, TransportPolicy};
use crate::fault::FaultPlan;
use crate::ops::{Channel, ComputeLabel, MsgKey, Op};
use crate::validate::SpecError;

/// SplitMix64, the relabeling's draw stream.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A sparse label: within 4 of `u32::MAX`, below 4, or anywhere.
fn sparse(state: &mut u64) -> u32 {
    let draw = splitmix(state);
    let value = (draw >> 32) as u32;
    match draw % 4 {
        0 => u32::MAX - value % 4,
        1 => value % 4,
        _ => value,
    }
}

fn key_of(op: &Op) -> Option<MsgKey> {
    match *op {
        Op::Send { key, .. } | Op::Recv { key } => Some(key),
        _ => None,
    }
}

/// Relabel every message key's (microbatch, chunk) pair through one
/// bijection drawn from `seed`. One pair maps to `(u32::MAX, u32::MAX)`,
/// the rest to distinct sparse pairs, so keys of one stream may land in
/// several and keys of several in one. Returns the relabeled spec and
/// the key map.
fn relabel(spec: &ExecutionSpec, seed: u64) -> (ExecutionSpec, BTreeMap<MsgKey, MsgKey>) {
    let keys: BTreeSet<MsgKey> = spec
        .programs
        .iter()
        .flat_map(|(_, program)| program.iter().filter_map(key_of))
        .collect();
    let pairs: BTreeSet<(u32, u32)> = keys.iter().map(|k| (k.microbatch, k.chunk)).collect();
    let top = seed as usize % pairs.len().max(1);
    let mut state = seed;
    let mut used = BTreeSet::new();
    let mut pair_map = BTreeMap::new();
    for (i, &pair) in pairs.iter().enumerate() {
        let mut target = (u32::MAX, u32::MAX);
        if i != top {
            target = (sparse(&mut state), sparse(&mut state));
        }
        while target == (u32::MAX, u32::MAX) && i != top || !used.insert(target) {
            target = (sparse(&mut state), sparse(&mut state));
        }
        pair_map.insert(pair, target);
    }
    let map: BTreeMap<MsgKey, MsgKey> = keys
        .iter()
        .map(|&k| {
            let (microbatch, chunk) = pair_map[&(k.microbatch, k.chunk)];
            (
                k,
                MsgKey {
                    microbatch,
                    chunk,
                    ..k
                },
            )
        })
        .collect();
    let programs = spec
        .programs
        .iter()
        .map(|(rank, program)| {
            let program = program
                .iter()
                .map(|&op| match op {
                    Op::Send { key, bytes } => Op::Send {
                        key: map[&key],
                        bytes,
                    },
                    Op::Recv { key } => Op::Recv { key: map[&key] },
                    other => other,
                })
                .collect();
            (*rank, program)
        })
        .collect();
    let relabeled = ExecutionSpec {
        programs,
        ..spec.clone()
    };
    (relabeled, map)
}

/// Run `spec` and its relabeling and require the same outcome: reports
/// bit-equal in every field, or the same error, whose deadlock text or
/// structural defect names the relabeled keys.
fn relabeled_alike(
    topo: &Topology,
    spec: &ExecutionSpec,
    plan: Option<&FaultPlan>,
    seed: u64,
) -> Result<(), TestCaseError> {
    let (relabeled, map) = relabel(spec, seed);
    let a = execute_inner(topo, spec.clone(), plan, None);
    let b = execute_inner(topo, relabeled, plan, None);
    match (a, b) {
        (Ok(a), Ok(b)) => {
            prop_assert_eq!(fingerprint(&a), fingerprint(&b));
            prop_assert_eq!(a.events, b.events);
            prop_assert_eq!(a.launch_entries, b.launch_entries);
            prop_assert_eq!(a.classes, b.classes);
            Ok(())
        }
        (Err(ExecError::Deadlock { stuck: a }), Err(ExecError::Deadlock { stuck: b })) => {
            let want: Vec<String> = a
                .iter()
                .map(|line| {
                    map.iter()
                        .map(|(from, to)| (format!("{from:?}"), format!("{to:?}")))
                        .find_map(|(from, to)| {
                            line.strip_suffix(&from).map(|head| format!("{head}{to}"))
                        })
                        .unwrap_or_else(|| line.clone())
                })
                .collect();
            prop_assert_eq!(want, b);
            Ok(())
        }
        (Err(ExecError::InvalidSpec(a)), Err(ExecError::InvalidSpec(b))) => {
            let want = match a {
                SpecError::DuplicateKey(key) => SpecError::DuplicateKey(map[&key]),
                SpecError::MisroutedOp(key) => SpecError::MisroutedOp(map[&key]),
                other => other,
            };
            prop_assert_eq!(want, b);
            Ok(())
        }
        (Err(a), Err(b)) => {
            prop_assert_eq!(a, b);
            Ok(())
        }
        (a, b) => Err(TestCaseError::Fail(format!(
            "plain {:?} vs relabeled {:?}",
            a.map(|r| r.total_seconds),
            b.map(|r| r.total_seconds)
        ))),
    }
}

/// The devices of the hand-built programs: two on each of two IB nodes.
const DEVICES: [u32; 4] = [0, 1, 8, 9];

/// How a hand-built point-to-point program is drawn.
#[derive(Debug, Clone)]
struct P2p {
    /// Per device, a sort key: messages flow only from devices earlier
    /// in this order to later ones, so only an orphan receive deadlocks.
    order: Vec<u32>,
    /// Per message: (sender position, receiver step), (gradient
    /// channel, chunk, microbatch), (bytes menu index, send priority,
    /// receive priority).
    msgs: Vec<Msg>,
    /// Compute ops: (device, duration menu index, priority).
    computes: Vec<(usize, usize, u32)>,
    /// This message's send runs twice: one key sent twice.
    dup: usize,
    /// The last device also waits for a message nobody sends.
    orphan: bool,
    /// Preempt this node at this instant (ns), retiring its devices.
    preempt: Option<(u64, u32)>,
}

type Msg = ((usize, usize), (bool, u32, u32), (usize, u32, u32));

/// Build `d` on two IB nodes. Every device's ops run in priority order,
/// so receives are often posted before their sends and microbatches go
/// out and arrive in any order; durations include zero, a nanosecond
/// and the route latency, so starts and completions collide.
fn p2p(d: &P2p) -> (Topology, ExecutionSpec, Option<FaultPlan>) {
    let topo = presets::homogeneous(NicType::InfiniBand, 2);
    let mut sim = holmes_netsim::NetSim::new();
    let fabric = holmes_netsim::Fabric::build(&topo, &mut sim);
    let lat = fabric.route(&topo, Rank(0), Rank(8)).latency.as_secs_f64();
    let menu = [0.0, 1e-9, lat, 1e-3, 0.1, 0.5];
    let sizes = [0u64, 1, 4096, 1 << 20, 1 << 30];
    let mut order: Vec<usize> = (0..DEVICES.len()).collect();
    order.sort_by_key(|&i| (d.order[i], i));
    // Per device, (priority, op) in draw order.
    let mut ops: Vec<Vec<(u32, Op)>> = vec![Vec::new(); DEVICES.len()];
    for (i, &((from, step), (grad, chunk, microbatch), (size, send_at, recv_at))) in
        d.msgs.iter().enumerate()
    {
        let to = from + 1 + step % (DEVICES.len() - 1 - from);
        let (from, to) = (order[from], order[to]);
        let key = MsgKey {
            from: Rank(DEVICES[from]),
            to: Rank(DEVICES[to]),
            channel: if grad {
                Channel::Gradient
            } else {
                Channel::Activation
            },
            microbatch,
            chunk,
        };
        let send = Op::Send {
            key,
            bytes: sizes[size],
        };
        ops[from].push((send_at, send));
        if i == d.dup {
            ops[from].push((send_at / 2, send));
        }
        ops[to].push((recv_at, Op::Recv { key }));
    }
    for &(device, duration, at) in &d.computes {
        let label = ComputeLabel::Forward { microbatch: at };
        let op = Op::Compute {
            label,
            seconds: menu[duration],
        };
        ops[device].push((at, op));
    }
    if d.orphan {
        let (from, to) = (order[0], order[DEVICES.len() - 1]);
        let key = MsgKey {
            from: Rank(DEVICES[from]),
            to: Rank(DEVICES[to]),
            channel: Channel::Activation,
            microbatch: 7,
            chunk: 7,
        };
        ops[to].push((u32::MAX, Op::Recv { key }));
    }
    let programs = DEVICES
        .iter()
        .zip(ops)
        .map(|(&rank, mut ops)| {
            ops.sort_by_key(|&(at, _)| at);
            (Rank(rank), ops.into_iter().map(|(_, op)| op).collect())
        })
        .collect();
    let spec = ExecutionSpec {
        programs,
        collectives: Vec::new(),
        transport: TransportPolicy::Auto,
    };
    let plan = d.preempt.map(|(at, node)| {
        let mut plan = FaultPlan::none();
        plan.churn_event(SimTime(at), node, ChurnKind::NodePreempt);
        plan
    });
    (topo, spec, plan)
}

/// Hand-built program `i`, each built around one case the slots must
/// get right: a receive posted long before its send; one key sent twice;
/// microbatches sent in reverse and received in order; a device on a
/// preempted node with unsent messages, delivered stale to a waiting
/// receiver; and a receive nobody sends to (a deadlock).
fn template(i: usize, microbatch: u32) -> P2p {
    // Device 0 → 2 (rank 0 → 8), activation, chunk 0.
    let msg =
        |microbatch, send_at, recv_at| ((0, 1), (false, 0, microbatch), (3, send_at, recv_at));
    let base = P2p {
        order: vec![0, 1, 2, 3],
        msgs: vec![msg(microbatch, 10, 0)],
        // Device 0 computes for 0.1 s before sending.
        computes: vec![(0, 4, 5)],
        dup: usize::MAX,
        orphan: false,
        preempt: None,
    };
    match i {
        0 => base,
        1 => P2p { dup: 0, ..base },
        2 => P2p {
            msgs: (0..4).map(|k| msg(microbatch + k, 10 - k, k)).collect(),
            ..base
        },
        // Node 0 goes at 0.05 s, while device 0 still computes.
        3 => P2p {
            preempt: Some((50_000_000, 0)),
            ..base
        },
        _ => P2p {
            orphan: true,
            ..base
        },
    }
}

/// Hand-built templates [`template`] can build.
const TEMPLATES: usize = 5;

proptest! {
    /// Built iterations, clean or faulted, replay bit for bit with their
    /// message keys relabeled.
    #[test]
    fn relabeled_built_iterations_replay_bit_for_bit(
        fleet in (0u8..4, 1u32..=4, nic()),
        shape in (prop::sample::select(vec![1u32, 2, 4]), prop::sample::select(vec![1u32, 2, 4])),
        (dp, sched) in (dp_sync(), schedule()),
        faulted in prop::sample::select(vec![false, true]),
        raw in raw_faults(),
        seed in 0u64..u64::MAX,
    ) {
        let cfg = EngineConfig {
            schedule: sched,
            dp_sync: dp,
            ..EngineConfig::default()
        };
        let fitted = built(fleet, shape, &cfg);
        prop_assume!(fitted.is_some());
        let (topo, spec) = fitted.expect("prop_assume! rejected shapes that do not fit");
        let faults = faulted.then(|| fault_plan(&topo, raw));
        relabeled_alike(&topo, &spec, faults.as_ref(), seed)?;
    }

    /// Hand-built point-to-point programs replay bit for bit with their
    /// message keys relabeled: half the cases are templates, half drawn
    /// at random.
    #[test]
    fn relabeled_point_to_point_programs_replay_bit_for_bit(
        pick in 0usize..2 * TEMPLATES,
        order in prop::collection::vec(0u32..100, 4..=4),
        msgs in prop::collection::vec(
            ((0usize..3, 0usize..3), (prop::sample::select(vec![false, true]), 0u32..3, 0u32..6),
             (0usize..5, 0u32..100, 0u32..100)),
            1..=12,
        ),
        computes in prop::collection::vec((0usize..4, 0usize..6, 0u32..100), 0..=8),
        (dup, orphan) in (0usize..16, prop::sample::select(vec![false, false, false, true])),
        preempt in (prop::sample::select(vec![false, true]), 0u64..1_000_000_000, 0u32..2),
        seed in 0u64..u64::MAX,
    ) {
        let draw = if pick < TEMPLATES {
            template(pick, seed as u32 % 8)
        } else {
            P2p {
                order, msgs, computes, dup, orphan,
                preempt: preempt.0.then_some((preempt.1, preempt.2)),
            }
        };
        let (topo, spec, plan) = p2p(&draw);
        relabeled_alike(&topo, &spec, plan.as_ref(), seed)?;
    }
}

/// Each template runs its case: the receive waits, the second send of a
/// key is a typed error naming it, reversed microbatches all land, the
/// preempted sender's message is delivered stale, and the orphan
/// deadlocks.
#[test]
fn templates_exercise_their_cases() {
    for i in 0..TEMPLATES {
        let (topo, spec, plan) = p2p(&template(i, 3));
        relabeled_alike(&topo, &spec, plan.as_ref(), 11).expect("relabeled run matches");
        let report = execute_inner(&topo, spec, plan.as_ref(), None);
        match i {
            // The receive waits out the sender's 0.1 s compute.
            0 | 2 => {
                let r = report.expect("a template without an orphan receive completes");
                assert!(r.total_seconds > 0.1, "{}", r.total_seconds);
            }
            1 => assert!(
                matches!(
                    report,
                    Err(ExecError::InvalidSpec(SpecError::DuplicateKey(key))) if key.microbatch == 3
                ),
                "{report:?}"
            ),
            // The receiver wakes at the preemption, before the sender's
            // compute would have ended.
            3 => {
                let r = report.expect("a preempted sender's messages land stale");
                assert!(r.total_seconds < 0.1, "{}", r.total_seconds);
            }
            _ => assert!(matches!(report, Err(ExecError::Deadlock { .. }))),
        }
    }
}
