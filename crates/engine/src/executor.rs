//! Event-driven execution of device programs over the network simulator.
//!
//! Collectives are not hand-rolled here: every algorithm's round/chunk
//! structure comes from the shared [`holmes_netsim::algo`] IR. The
//! executor builds one [`CollSchedule`] per distinct (kind, members,
//! bytes per channel) and replays it flow-by-flow for every instance and
//! channel — round `r+1` launches when the last flow of round `r` lands,
//! so the replay inherits full max-min contention fidelity from the
//! simulator while the *algorithm* stays single-sourced with the
//! analytic layers.
//!
//! Setup lowers the spec once: every send and receive gets a dense
//! message slot and every collective a shared schedule, so the event
//! loop hashes no message key and builds no schedule.
//!
//! A round's transfers that share (source node, destination node, bytes)
//! launch as one counted netsim entry ([`FlowSpec::count`]). They share a
//! route, latency and rate cap and start at one instant with consecutive
//! event seqs, so netsim would fold them into one twin group anyway; the
//! entry spares the per-flow route lookup, token, `FlowStart` event,
//! activation and completion. The group shares fate under faults too: a
//! timeout, retry, TCP fallback or churn cancel acts on the whole entry,
//! and the fault counters add its count. Routes come from a per-execution
//! [`RouteTable`] instead of a topology walk per transfer.
//!
//! Under link faults or churn every started entry gets one record, in
//! token order: retries, churn cancellation and NIC-loss attribution all
//! read it, and a relaunch goes through the first launch's routine
//! (DESIGN.md §7).
//!
//! Devices advance in replica classes. A device that starts a compute op
//! parks on its class's one compute timer, and later devices whose
//! timers would fire at the same instant and pop right behind it join
//! that class instead of scheduling their own. When the timer fires the
//! class wakes its members in join order, which is the order their own
//! timers would have popped in. Point-to-point sends that netsim would
//! merge into one twin group (same instant, route and bytes, started
//! back to back) start as one counted entry whose completion delivers
//! every message it carries in send order. Collectives go the same way:
//! a collective launched at the same instant as the newest one, with the
//! same node-level rounds, right behind it, folds into that collective's
//! class and rides its counted entries round by round. Each rule checks
//! the exact condition under which the merged event replays the
//! per-device ones, so a class of one is simply today's path (DESIGN.md
//! §6.1.2).

use std::collections::{BTreeMap, HashMap};

use holmes_netsim::algo::CollSchedule;
use holmes_netsim::{
    ChurnKind, Completion, Fabric, FlowId, FlowSpec, LinkId, NetSim, RouteTable, SimDuration,
};
use holmes_topology::{Rank, Topology};

use crate::fault::{
    DegradedCondition, FaultPlan, FaultTarget, FaultWindow, RetryPolicy, Straggler,
};
use crate::ops::{Channel, ComputeLabel, MsgKey, Op};
use crate::timeline::{Span, SpanKind, Timeline};
use crate::validate::SpecError;

pub use holmes_netsim::algo::CollKind;

/// A collective instance shared by a device group.
#[derive(Debug, Clone)]
pub struct CollectiveSpec {
    /// Algorithm.
    pub kind: CollKind,
    /// Member devices in ring order.
    pub devices: Vec<Rank>,
    /// Buffer size in bytes (the full gradient/parameter buffer).
    pub bytes: u64,
    /// Concurrent channels (NCCL-style): the buffer splits `channels`
    /// ways and each slice runs its own ring/tree simultaneously, letting
    /// one collective drive several NIC ports. `0` is treated as `1`.
    pub channels: u32,
}

impl CollectiveSpec {
    /// A single-channel collective (the common case).
    pub fn new(kind: CollKind, devices: Vec<Rank>, bytes: u64) -> Self {
        CollectiveSpec {
            kind,
            devices,
            bytes,
            channels: 1,
        }
    }
}

/// Which transport the communicator layer may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportPolicy {
    /// Holmes's Automatic NIC Selection: every pair uses the best
    /// transport the hardware allows (RDMA within compatible clusters).
    #[default]
    Auto,
    /// NIC-oblivious baseline: stock NCCL picks one transport valid for
    /// every pair in the job, so heterogeneous jobs fall back to TCP for
    /// all inter-node traffic.
    ForceTcpInterNode,
}

/// A complete, runnable iteration: one program per device plus the shared
/// collective table.
#[derive(Debug, Clone)]
pub struct ExecutionSpec {
    /// `(device, program)` pairs; devices may appear once each.
    pub programs: Vec<(Rank, Vec<Op>)>,
    /// Collectives referenced by `CollStart`/`CollWait` ids.
    pub collectives: Vec<CollectiveSpec>,
    /// Transport selection policy.
    pub transport: TransportPolicy,
}

/// Execution failure.
///
/// Marked `#[non_exhaustive]`: the fault taxonomy grows, so downstream
/// matches must carry a wildcard arm and keep compiling when new
/// variants appear:
///
/// ```
/// use holmes_engine::ExecError;
///
/// fn describe(e: &ExecError) -> &'static str {
///     match e {
///         ExecError::Deadlock { .. } => "program structure bug",
///         ExecError::Degraded { .. } => "unrecovered fault",
///         ExecError::Unrecoverable { .. } => "retry budget exhausted",
///         _ => "other failure",
///     }
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ExecError {
    /// The simulation drained with devices still blocked — a deadlock in
    /// the op programs (e.g. a recv whose send never posts).
    Deadlock {
        /// Human-readable description of each stuck device.
        stuck: Vec<String>,
    },
    /// A collective never launched because some member never arrived.
    CollectiveIncomplete {
        /// Collective id.
        id: u32,
        /// Members arrived vs expected.
        arrived: u32,
        /// Expected member count.
        expected: u32,
    },
    /// Execution stalled with traffic parked on faulted links and no
    /// recovery path: the fault plan left links dead forever and either
    /// retries were disabled or no TCP fallback existed. Distinct from
    /// [`ExecError::Deadlock`], which is a *program* bug: here the op
    /// programs are sound and only the network died under them.
    ///
    /// ```
    /// # use holmes_engine::ExecError;
    /// let e = ExecError::Degraded { conditions: vec![], parked_flows: 3 };
    /// assert!(e.to_string().contains("3 flows parked"));
    /// ```
    Degraded {
        /// Degradations the executor observed before stalling.
        conditions: Vec<crate::fault::DegradedCondition>,
        /// Flows left parked on dead links when the event queue drained.
        parked_flows: u64,
    },
    /// A transfer exhausted its bounded retry budget
    /// ([`crate::fault::RetryPolicy::max_retries`]) without completing —
    /// every relaunch parked again on a dead link with no fallback left
    /// to try.
    ///
    /// ```
    /// # use holmes_engine::ExecError;
    /// # use holmes_topology::Rank;
    /// let e = ExecError::Unrecoverable { from: Rank(0), to: Rank(8), attempts: 5 };
    /// assert!(e.to_string().contains("abandoned"));
    /// ```
    Unrecoverable {
        /// Sending device of the abandoned transfer.
        from: Rank,
        /// Receiving device of the abandoned transfer.
        to: Rank,
        /// Total attempts made (first launch + retries).
        attempts: u32,
    },
    /// A node was preempted mid-iteration
    /// ([`holmes_netsim::ChurnKind::NodePreempt`]) and the spec's
    /// collectives cannot tolerate member loss: ring/tree schedules
    /// thread the buffer through every member, so the executor fails
    /// fast and deterministically at the churn event instead of
    /// deadlocking. Parameter-server specs continue degraded and never
    /// surface this.
    ///
    /// ```
    /// # use holmes_engine::ExecError;
    /// let e = ExecError::NodeLost { node: 2, at_seconds: 0.5 };
    /// assert!(e.to_string().contains("preempted"));
    /// ```
    NodeLost {
        /// Global node index (cluster-major).
        node: u32,
        /// When the preemption arrived, in iteration seconds.
        at_seconds: f64,
    },
    /// Like [`ExecError::NodeLost`], but the departure was announced
    /// ([`holmes_netsim::ChurnKind::NodeDrain`]) — the scheduler gets to
    /// re-plan instead of restoring from a checkpoint.
    ///
    /// ```
    /// # use holmes_engine::ExecError;
    /// let e = ExecError::NodeDraining { node: 2, at_seconds: 0.5 };
    /// assert!(e.to_string().contains("draining"));
    /// ```
    NodeDraining {
        /// Global node index (cluster-major).
        node: u32,
        /// When the drain arrived, in iteration seconds.
        at_seconds: f64,
    },
    /// A device carries two programs in [`ExecutionSpec::programs`].
    /// Checked before any flow starts.
    ///
    /// ```
    /// # use holmes_engine::ExecError;
    /// # use holmes_topology::Rank;
    /// let e = ExecError::DuplicateProgram { device: Rank(3) };
    /// assert!(e.to_string().contains("two programs"));
    /// ```
    DuplicateProgram {
        /// The device named twice.
        device: Rank,
    },
    /// A collective lists no member devices. Checked before any flow
    /// starts.
    ///
    /// ```
    /// # use holmes_engine::ExecError;
    /// let e = ExecError::EmptyCollective { id: 2 };
    /// assert!(e.to_string().contains("no members"));
    /// ```
    EmptyCollective {
        /// Collective id.
        id: u32,
    },
    /// A program, a send endpoint or a collective member names a rank
    /// past the topology's last device. Checked before any flow starts.
    ///
    /// ```
    /// # use holmes_engine::ExecError;
    /// # use holmes_topology::Rank;
    /// let e = ExecError::RankOutsideTopology { rank: Rank(64), devices: 32 };
    /// assert!(e.to_string().contains("outside the topology"));
    /// ```
    RankOutsideTopology {
        /// The offending rank.
        rank: Rank,
        /// Devices in the topology.
        devices: u32,
    },
    /// The spec's structure is broken: the first hard [`SpecError`] met
    /// (any but an unmatched send or receive, which surfaces as
    /// [`ExecError::Deadlock`]). Checked before any flow starts.
    InvalidSpec(SpecError),
    /// A link fault names fabric the run does not have: a node index past
    /// the topology's last node, or [`FaultTarget::Trunk`] without
    /// [`FaultPlan::trunk_bytes_per_sec`]. Checked before any flow starts.
    ///
    /// ```
    /// # use holmes_engine::{ExecError, FaultTarget};
    /// let e = ExecError::FaultTargetMissing { target: FaultTarget::Trunk };
    /// assert!(e.to_string().contains("not in the fabric"));
    /// ```
    FaultTargetMissing {
        /// The fault target with no fabric links behind it.
        target: FaultTarget,
    },
    /// A straggler names a rank past the topology's last device, or a
    /// slowdown that is not a finite positive factor. Checked before any
    /// flow starts.
    BadStraggler {
        /// The straggling rank.
        rank: Rank,
        /// Its compute-time multiplier.
        slowdown: f64,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Deadlock { stuck } => {
                write!(f, "deadlock; stuck devices: {}", stuck.join("; "))
            }
            ExecError::CollectiveIncomplete {
                id,
                arrived,
                expected,
            } => write!(
                f,
                "collective {id} incomplete: {arrived}/{expected} members arrived"
            ),
            ExecError::Degraded {
                conditions,
                parked_flows,
            } => write!(
                f,
                "execution degraded beyond recovery: {parked_flows} flows parked \
                 on dead links ({} conditions observed)",
                conditions.len()
            ),
            ExecError::Unrecoverable { from, to, attempts } => write!(
                f,
                "transfer {from} -> {to} abandoned after {attempts} attempts"
            ),
            ExecError::NodeLost { node, at_seconds } => write!(
                f,
                "node {node} preempted at {at_seconds:.3}s; collectives cannot \
                 continue without its ranks"
            ),
            ExecError::NodeDraining { node, at_seconds } => write!(
                f,
                "node {node} draining since {at_seconds:.3}s; collectives cannot \
                 continue without its ranks"
            ),
            ExecError::DuplicateProgram { device } => {
                write!(f, "device {device} has two programs")
            }
            ExecError::EmptyCollective { id } => write!(f, "collective {id} has no members"),
            ExecError::RankOutsideTopology { rank, devices } => {
                write!(f, "rank {rank} is outside the topology ({devices} devices)")
            }
            ExecError::InvalidSpec(d) => write!(f, "invalid spec: {d}"),
            ExecError::FaultTargetMissing { target } => {
                write!(
                    f,
                    "fault plan targets {target:?}, which is not in the fabric"
                )
            }
            ExecError::BadStraggler { rank, slowdown } => write!(
                f,
                "straggler {rank} with slowdown {slowdown}: the rank must be in the \
                 topology and the slowdown finite and positive"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

/// Traffic through one node's uplinks during an iteration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NodeLinkUsage {
    /// Bytes through the node's RDMA uplink + downlink.
    pub rdma_bytes: f64,
    /// Bytes through the node's Ethernet uplink + downlink.
    pub eth_bytes: f64,
    /// Mean utilization of the RDMA uplink over the iteration.
    pub rdma_utilization: f64,
    /// Mean utilization of the Ethernet uplink over the iteration.
    pub eth_utilization: f64,
}

/// Wall-clock decomposition of one executed iteration.
#[derive(Debug, Clone, Default)]
pub struct IterationReport {
    /// End-to-end iteration seconds (last device finish).
    pub total_seconds: f64,
    /// Per-device finish times, indexed as `programs` was.
    pub device_finish_seconds: Vec<f64>,
    /// Busy compute seconds per device (forward + backward + optimizer).
    pub device_compute_seconds: Vec<f64>,
    /// Max over devices of forward compute seconds.
    pub forward_seconds_max: f64,
    /// Max over devices of backward compute seconds.
    pub backward_seconds_max: f64,
    /// Max over devices of optimizer compute seconds.
    pub optimizer_seconds_max: f64,
    /// Wall time (launch → done) of each collective, by kind.
    pub collective_wall_seconds: BTreeMap<CollKind, Vec<f64>>,
    /// (launch, done) spans of each collective, by kind — bucketed
    /// collectives overlap, so operation-level timing (e.g. Figure 3's
    /// grads-reduce-scatter cost) uses the *union* of spans, not the sum.
    pub collective_spans: BTreeMap<CollKind, Vec<(f64, f64)>>,
    /// Simulator events processed (diagnostic).
    pub events: u64,
    /// Engine flows completed (diagnostic): netsim simulates each group
    /// of twin flows — started at one instant with identical path, bytes
    /// and rate cap — as one engine flow, so this counts a group once.
    /// Per-flow counts come from observation (`netsim.flows_finished`).
    pub flows: u64,
    /// Netsim entries the executor started (diagnostic): a collective
    /// round's transfers sharing source node, destination node and bytes
    /// start as one counted entry, and so do point-to-point sends that
    /// would twin-merge in netsim; every other transfer starts as its own.
    pub launch_entries: u64,
    /// Replica-class census of the run (diagnostic).
    pub classes: ClassCensus,
    /// Full per-device span timeline (compute, pipeline waits, collective
    /// waits); an observed run copies it into the session's merged trace.
    pub timeline: Timeline,
    /// Per-node uplink traffic and utilization, in global node order.
    pub node_link_usage: Vec<NodeLinkUsage>,
    /// Link degradation windows observed during the iteration (empty on
    /// fault-free runs).
    pub fault_windows: Vec<FaultWindow>,
    /// Degradations the executor reacted to, in detection order.
    pub degraded_conditions: Vec<DegradedCondition>,
    /// Timed-out transfers that were cancelled and relaunched.
    pub flow_retries: u64,
    /// Flows routed over TCP/Ethernet because an endpoint lost its RDMA
    /// NIC mid-iteration.
    pub tcp_fallback_flows: u64,
}

impl IterationReport {
    /// Figure 3's metric: wall-clock time the iteration spends with at
    /// least one gradient reduce-scatter in flight (union of spans — the
    /// bucketed collectives of the overlapped optimizer run concurrently).
    pub fn reduce_scatter_seconds(&self) -> f64 {
        self.collective_kind_seconds(CollKind::ReduceScatter)
    }

    /// Union-of-spans seconds for a collective kind.
    pub fn collective_kind_seconds(&self, kind: CollKind) -> f64 {
        let mut spans = self
            .collective_spans
            .get(&kind)
            .cloned()
            .unwrap_or_default();
        spans.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let mut total = 0.0;
        let mut current: Option<(f64, f64)> = None;
        for (start, end) in spans {
            match current {
                Some((cs, ce)) if start <= ce => current = Some((cs, ce.max(end))),
                Some((cs, ce)) => {
                    total += ce - cs;
                    current = Some((start, end));
                }
                None => current = Some((start, end)),
            }
        }
        if let Some((cs, ce)) = current {
            total += ce - cs;
        }
        total
    }
}

/// How the executor grouped device wake-ups into replica classes
/// (diagnostic). A device *advance step* is one wake-up that resumes
/// devices: a fired compute timer or a landed message. Before classes,
/// every device took its own step for each; with them a class timer or
/// a counted send entry resumes all of its devices in one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClassCensus {
    /// Classes formed by the devices' first advance at time zero.
    pub classes_at_start: u64,
    /// Classes whose members did not all move on to one next class:
    /// they parked on different timers, directly or after waiting for
    /// messages or collectives that released them at different instants.
    pub splits: u64,
    /// Compute ops started: one timer each without classes.
    pub compute_timers: u64,
    /// Class compute timers actually scheduled.
    pub class_timers: u64,
    /// Devices resumed by a landed message.
    pub recv_wakeups: u64,
    /// Send-entry completions that resumed at least one device.
    pub recv_steps: u64,
    /// Collective instances launched with rounds to replay.
    pub collectives: u64,
    /// Of those, instances folded into another's rounds: one collective
    /// class replays its rounds for all of them.
    pub collectives_folded: u64,
    /// Distinct collective schedules built: instances with the same
    /// kind, members and bytes per channel share one.
    pub schedules_built: u64,
}

impl ClassCensus {
    /// Device advance steps without classes: one per compute op and one
    /// per message wake-up.
    pub fn steps_before(&self) -> u64 {
        self.compute_timers + self.recv_wakeups
    }

    /// Device advance steps taken: one per class timer and one per send
    /// entry that resumed devices.
    pub fn steps_after(&self) -> u64 {
        self.class_timers + self.recv_steps
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum DevStatus {
    Runnable,
    Computing,
    WaitingMsg(MsgKey),
    WaitingColl(u32),
    Done,
}

#[derive(Debug)]
struct DevState {
    rank: Rank,
    /// Index of the program's first op in [`Executor::op_msg`].
    first_op: usize,
    pc: usize,
    status: DevStatus,
    finish: f64,
    compute_seconds: f64,
    forward_seconds: f64,
    backward_seconds: f64,
    optimizer_seconds: f64,
    /// Start time of the in-progress wait span, if blocked.
    wait_since: f64,
}

/// Transfers started as one counted netsim entry: `count` transfers of
/// `bytes` each from `from`'s node to `to`'s node, represented by the
/// first of them (a collective round's group, or sends).
#[derive(Debug, Clone, Copy)]
struct Launch {
    from: Rank,
    to: Rank,
    bytes: u64,
    count: u32,
}

/// A collective's IR round schedule grouped into counted entries: round
/// `r` launches `launches[round_ends[r - 1]..round_ends[r]]`. Each
/// channel carries `bytes / channels` of the buffer, so one schedule
/// serves all of them, and instances with the same kind, members and
/// bytes per channel share one.
#[derive(Debug)]
struct Rounds {
    launches: Vec<Launch>,
    round_ends: Vec<u32>,
}

/// Group each round of `schedule` into [`Launch`]es by (source node,
/// destination node, bytes), in first-appearance order.
#[expect(clippy::cast_possible_truncation, reason = "launch indices are u32")]
fn group_rounds(schedule: &CollSchedule, gpus_per_node: u32) -> Rounds {
    let mut launches: Vec<Launch> = Vec::new();
    // The current round's group keys, parallel to its launches.
    let mut keys: Vec<(u32, u32, u64)> = Vec::new();
    let mut round_ends = Vec::with_capacity(schedule.round_count() as usize);
    for round in schedule.rounds() {
        let start = launches.len();
        keys.clear();
        for t in round.transfers() {
            let key = (t.from.0 / gpus_per_node, t.to.0 / gpus_per_node, t.bytes);
            // Ring-ordered rounds put a node pair's transfers side by
            // side, so the newest group is the likeliest match.
            match keys.iter().rposition(|k| *k == key) {
                Some(i) => launches[start + i].count += 1,
                None => {
                    keys.push(key);
                    launches.push(Launch {
                        from: t.from,
                        to: t.to,
                        bytes: t.bytes,
                        count: 1,
                    });
                }
            }
        }
        round_ends.push(launches.len() as u32);
    }
    Rounds {
        launches,
        round_ends,
    }
}

#[derive(Debug)]
struct CollState {
    kind: CollKind,
    devices: Vec<Rank>,
    /// Index of the [`Rounds`] every channel replays in
    /// [`Executor::schedules`].
    rounds: usize,
    /// Collectives folded into this one's rounds, in join order: each
    /// entry carries its launch's count once per class member.
    followers: Vec<usize>,
    /// Per-channel current round.
    round: Vec<u32>,
    arrived: u32,
    /// Per-channel outstanding entries of the current round.
    outstanding: Vec<u32>,
    /// Channels that finished all rounds.
    channels_done: u32,
    done: bool,
    launch_time: f64,
    wall: f64,
    waiters: Vec<usize>,
}

#[derive(Debug, Clone, Copy)]
enum Token {
    /// Replica class `class`'s compute timer fired.
    ComputeDone {
        class: u32,
    },
    /// A send entry landed: it carried the messages
    /// `sent[first..first + count]`.
    MsgArrived {
        first: u32,
        count: u32,
    },
    CollFlow {
        coll: usize,
        channel: u32,
    },
    /// Entry `entry`'s timeout fired.
    FlowTimeout {
        entry: usize,
    },
}

/// The newest point-to-point send entry, while later sends may still
/// join it as extra logical flows.
#[derive(Debug, Clone, Copy)]
struct OpenSend {
    flow: FlowId,
    token: u64,
    /// Source and destination node: with the transport fixed they
    /// determine the route, so its latency and rate cap too.
    nodes: (usize, usize),
    bytes: u64,
    /// When the entry was started and when it starts streaming, in ns.
    started: u64,
    at: u64,
}

/// The newest collective launched with rounds, while a collective
/// launched at the same instant may still fold into its class.
#[derive(Debug, Clone, Copy)]
struct OpenColl {
    leader: usize,
    /// Launch instant, in ns.
    at: u64,
}

/// One started netsim entry, recorded when the fault plan carries link
/// faults or churn: retries, churn cancellation and NIC-loss attribution
/// all read it.
#[derive(Debug)]
struct Entry {
    /// The transfers the entry carries.
    launch: Launch,
    /// The semantic token (`MsgArrived` / `CollFlow`) dispatched when
    /// any attempt of the entry completes.
    token: u64,
    /// The current attempt.
    flow: FlowId,
    /// Whether the current attempt was routed over TCP/Ethernet.
    tcp: bool,
    retries_left: u32,
    timeout_seconds: f64,
    /// Landed, or cancelled and delivered as stale.
    done: bool,
}

/// What the fault path declared lost on one node.
#[derive(Debug, Clone, Copy, Default)]
struct NodeLoss {
    /// The RDMA NIC: traffic touching the node routes over TCP.
    nic: bool,
    /// The node itself, preempted or drained under a member-loss-tolerant
    /// spec: its devices are retired and transfers touching it are
    /// delivered at once as stale.
    node: bool,
}

struct Executor<'t> {
    topo: &'t Topology,
    sim: NetSim,
    fabric: Fabric,
    routes: RouteTable,
    transport: TransportPolicy,
    devs: Vec<DevState>,
    programs: Vec<Vec<Op>>,
    /// Per op of every program, back to back in program order: a send's
    /// or receive's message slot, an index into `msg_arrived` and
    /// `msg_waiter` resolved once at setup ([`lower`]).
    op_msg: Vec<u32>,
    colls: Vec<CollState>,
    /// The distinct schedules the collectives replay.
    schedules: Vec<Rounds>,
    tokens: Vec<Token>,
    msg_arrived: Vec<bool>,
    msg_waiter: Vec<Option<usize>>,
    timeline: Timeline,
    /// [`FaultPlan::armed_retry`]: set only when the fault plan carries
    /// link faults, so no other run times a flow out.
    retry: Option<RetryPolicy>,
    /// Whether started entries are recorded in `entries`: when the fault
    /// plan carries link faults or churn.
    track: bool,
    /// Every entry started while `track` is set, pathless intra-node ones
    /// included, in start order, which is token order: a completion finds
    /// its entry by binary search on the token.
    entries: Vec<Entry>,
    /// Per node, what the fault path declared lost (empty without a
    /// fault plan).
    lost: Vec<NodeLoss>,
    /// Per device rank, its compute-time multiplier (empty unless the
    /// plan has stragglers).
    slowdown: Vec<f64>,
    /// Currently open non-healthy windows: link → (start, health).
    /// Ordered map: the iteration-end sweep drains it into the report, and
    /// that emission order must be deterministic (link-id sorted).
    open_faults: BTreeMap<LinkId, (f64, holmes_netsim::LinkHealth)>,
    fault_windows: Vec<FaultWindow>,
    conditions: Vec<DegradedCondition>,
    /// Logical transfers retried ([`IterationReport::flow_retries`]).
    flow_retries: u64,
    /// Logical transfers routed over TCP after a NIC loss
    /// ([`IterationReport::tcp_fallback_flows`]).
    tcp_fallback_flows: u64,
    /// Netsim entries started ([`IterationReport::launch_entries`]).
    launch_entries: u64,
    /// Replica classes: the devices parked on each class's compute timer,
    /// in join order (emptied when the timer fires).
    classes: Vec<Vec<usize>>,
    /// Member vectors of fired classes, cleared for reuse by new ones.
    spare_classes: Vec<Vec<usize>>,
    /// Each device's latest class ([`NO_CLASS`] before its first).
    class_of: Vec<u32>,
    /// Per class, the class its members moved on to: [`NO_CLASS`] until
    /// the first one parks again, [`SPLIT`] once two parted ways.
    successor: Vec<u32>,
    /// Classes whose pending timer a new device may still join, with the
    /// instant (ns) it fires at.
    open_classes: Vec<(u64, u32)>,
    /// The newest send entry, while a send may still join it.
    open_send: Option<OpenSend>,
    /// The newest collective class, while a collective may still fold
    /// into it, with its round-0 entries and their distinct start
    /// instants (ns).
    open_coll: Option<OpenColl>,
    open_coll_flows: Vec<FlowId>,
    open_coll_starts: Vec<u64>,
    /// `sim.seq_mark()` just after the executor's own newest event.
    seq_mark: u64,
    /// Message slots of every send entry, entry after entry.
    sent: Vec<usize>,
    /// Sends may join entries and collectives may fold into classes: off
    /// when `track` is set (faults act on single entries), and in `solo`
    /// runs.
    joins: bool,
    /// Classes of one, one entry per send and one collective per
    /// instance, today's per-device path (set only by tests, as the
    /// reference the class path must match).
    solo: bool,
    census: ClassCensus,
}

/// No class yet, or no successor yet.
const NO_CLASS: u32 = u32::MAX;
/// A class whose members moved on to different classes.
const SPLIT: u32 = u32::MAX - 1;

#[cfg(test)]
thread_local! {
    /// Forces classes of one in executions started on this thread.
    pub(crate) static SOLO: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn solo_forced() -> bool {
    #[cfg(test)]
    {
        SOLO.with(|s| s.get())
    }
    #[cfg(not(test))]
    {
        false
    }
}

/// Execute a spec on a topology. See [`IterationReport`].
///
/// A structurally broken spec returns [`ExecError::InvalidSpec`] before
/// any flow starts, in every build profile.
pub fn execute(topo: &Topology, spec: ExecutionSpec) -> Result<IterationReport, ExecError> {
    execute_inner(topo, spec, None, None)
}

/// Execute a spec under a deterministic [`FaultPlan`].
///
/// Link faults are translated onto fabric links and injected as
/// first-class simulator events; every inter-node flow is armed with a
/// timeout per [`crate::fault::RetryPolicy`], and parked flows are
/// retried with exponential backoff — falling back to TCP when a down
/// RDMA link is to blame. The report's
/// [`IterationReport::fault_windows`] and
/// [`IterationReport::degraded_conditions`] record what happened; an
/// empty plan behaves exactly like [`execute`].
pub fn execute_with_faults(
    topo: &Topology,
    spec: ExecutionSpec,
    plan: &FaultPlan,
) -> Result<IterationReport, ExecError> {
    execute_inner(topo, spec, Some(plan), None)
}

/// Shared body of [`execute`], [`execute_with_faults`] and
/// [`crate::simulate_iteration`]. With `obs` set the simulator collects
/// flow-level records, and on return the session holds the merged
/// engine and netsim trace spans plus the execution's metrics (fault
/// counters, collective wall-time histogram, per-flow timings). Failed
/// executions still contribute their counters and netsim records.
/// Without it every collection branch is skipped, so observation never
/// changes behaviour.
#[expect(clippy::expect_used, reason = "lower keeps ranks inside `topo`")]
pub(crate) fn execute_inner(
    topo: &Topology,
    spec: ExecutionSpec,
    plan: Option<&FaultPlan>,
    obs: Option<&mut holmes_obs::ObsSession>,
) -> Result<IterationReport, ExecError> {
    let lowered = lower(topo, &spec)?;
    if let Some(plan) = plan {
        check_fault_targets(topo, plan)?;
    }
    let mut sim = NetSim::new();
    if obs.is_some() {
        sim.enable_obs();
    }
    let fabric = match plan.and_then(|p| p.trunk_bytes_per_sec) {
        Some(bw) => Fabric::build_with_trunk(topo, &mut sim, bw),
        None => Fabric::build(topo, &mut sim),
    };
    let n = spec.programs.len();
    let mut devs = Vec::with_capacity(n);
    let mut programs = Vec::with_capacity(n);
    let mut first_op = 0;
    for (rank, program) in spec.programs {
        devs.push(DevState {
            rank,
            first_op,
            pc: 0,
            status: DevStatus::Runnable,
            finish: 0.0,
            compute_seconds: 0.0,
            forward_seconds: 0.0,
            backward_seconds: 0.0,
            optimizer_seconds: 0.0,
            wait_since: 0.0,
        });
        first_op += program.len();
        programs.push(program);
    }
    // One IR schedule per distinct (kind, members, bytes per channel):
    // the overlapped optimizer's buckets of a DP group share theirs.
    // Degenerate groups (n ≤ 1) yield an empty schedule and complete
    // instantly on launch.
    let mut schedules: Vec<Rounds> = Vec::new();
    let mut memo: HashMap<(CollKind, &[Rank], u64), usize> = HashMap::new();
    let mut rounds_of = Vec::with_capacity(spec.collectives.len());
    // Collective entries launched at most: each channel launches every
    // entry of its schedule once.
    let mut coll_entries = 0;
    for c in &spec.collectives {
        let channels = c.channels.max(1);
        let bytes = c.bytes / u64::from(channels);
        let next = schedules.len();
        let rounds = *memo
            .entry((c.kind, c.devices.as_slice(), bytes))
            .or_insert(next);
        if rounds == next {
            let schedule = c.kind.schedule(&c.devices, bytes, |r| {
                topo.coord(r)
                    .expect("lower keeps collective ranks inside the topology")
                    .cluster
                    .0
            });
            schedules.push(group_rounds(&schedule, topo.gpus_per_node()));
        }
        coll_entries += channels as usize * schedules[rounds].launches.len();
        rounds_of.push(rounds);
    }
    drop(memo);
    let colls = spec
        .collectives
        .into_iter()
        .zip(rounds_of)
        .map(|(c, rounds)| {
            let channels = c.channels.max(1) as usize;
            CollState {
                kind: c.kind,
                devices: c.devices,
                rounds,
                followers: Vec::new(),
                round: vec![0; channels],
                arrived: 0,
                outstanding: vec![0; channels],
                channels_done: 0,
                done: false,
                launch_time: 0.0,
                wall: 0.0,
                waiters: Vec::new(),
            }
        })
        .collect();

    let retry = plan.and_then(FaultPlan::armed_retry);
    let track = plan.is_some_and(|p| !p.link_faults.is_empty() || !p.churn.is_empty());
    let (mut lost, mut slowdown, mut conditions) = (Vec::new(), Vec::new(), Vec::new());
    if let Some(plan) = plan {
        for f in &plan.link_faults {
            for link in fabric.links_of(f.target) {
                sim.schedule_fault_at(f.at, link, f.health);
            }
        }
        for c in &plan.churn {
            // A node outside the fabric (a join announcing capacity that
            // is not wired up yet) carries no links: the event is a pure
            // membership signal.
            let node = c.node as usize;
            let links = (node < fabric.node_count()).then(|| fabric.node_link_ids(node));
            let links = links.map_or(Vec::new(), |(ru, rd, eu, ed)| vec![ru, rd, eu, ed]);
            sim.schedule_churn_at(c.at, c.node, c.kind, &links);
        }
        lost = vec![NodeLoss::default(); fabric.node_count()];
        for s in &plan.stragglers {
            // `check_fault_targets` kept the rank inside the topology.
            slowdown.resize(topo.device_count() as usize, 1.0);
            slowdown[s.rank.0 as usize] = s.slowdown;
            conditions.push(DegradedCondition::Straggler {
                rank: s.rank,
                slowdown: s.slowdown,
            });
        }
    }
    let seq_mark = sim.seq_mark();
    let solo = solo_forced();
    let mut exec = Executor {
        topo,
        sim,
        routes: fabric.route_table(),
        fabric,
        transport: spec.transport,
        devs,
        programs,
        op_msg: lowered.op_msg,
        colls,
        census: ClassCensus {
            schedules_built: schedules.len() as u64,
            ..ClassCensus::default()
        },
        schedules,
        // One class timer per compute op, one entry per send and each
        // collective entry once per channel, at most.
        tokens: Vec::with_capacity(lowered.compute_ops + lowered.sends + coll_entries),
        msg_arrived: vec![false; lowered.messages],
        msg_waiter: vec![None; lowered.messages],
        // One span per compute op and at most one per wait.
        timeline: Timeline {
            spans: Vec::with_capacity(lowered.compute_ops + lowered.wait_ops),
        },
        retry,
        track,
        entries: Vec::new(),
        lost,
        slowdown,
        open_faults: BTreeMap::new(),
        fault_windows: Vec::new(),
        conditions,
        flow_retries: 0,
        tcp_fallback_flows: 0,
        launch_entries: 0,
        classes: Vec::new(),
        spare_classes: Vec::new(),
        class_of: vec![NO_CLASS; n],
        successor: Vec::new(),
        open_classes: Vec::new(),
        open_send: None,
        open_coll: None,
        open_coll_flows: Vec::new(),
        open_coll_starts: Vec::new(),
        seq_mark,
        sent: Vec::with_capacity(lowered.sends),
        joins: !solo && !track,
        solo,
    };
    let result = exec.run();
    if let Some(session) = obs {
        let net = exec.sim.take_obs();
        crate::obs::record_execution(
            session,
            (exec.flow_retries, exec.tcp_fallback_flows),
            result.as_ref().ok(),
            net.as_ref(),
        );
    }
    result
}

/// A point-to-point stream: the messages from one device to another on
/// one channel and model chunk. Its keys differ only in microbatch.
type StreamKey = (Rank, Rank, Channel, u32);

/// The message slot of an op that is neither a send nor a receive.
const NO_MSG: u32 = u32::MAX;

/// Streams the setup walk keeps at hand per program: a pipeline stage
/// talks to at most two neighbours on two channels per model chunk.
const STREAM_CACHE: usize = 8;

/// What one walk over a spec's programs resolves before the event loop
/// starts, so no executed op hashes a [`MsgKey`].
struct Lowered {
    /// Per op of every program, back to back in program order: the
    /// message slot of a send or receive, [`NO_MSG`] for other ops.
    /// Sends and receives of one key share a slot.
    op_msg: Vec<u32>,
    /// Distinct message keys, the slots.
    messages: usize,
    sends: usize,
    compute_ops: usize,
    /// Receives and collective waits: the ops that may record a wait span.
    wait_ops: usize,
}

/// Check a spec and resolve its messages. Rejects what the executor
/// cannot replay: a device with two programs, a collective without
/// members or listing one twice, a program device, send endpoint or
/// collective member outside the topology, and every hard [`SpecError`]
/// in [`crate::validate_spec`]'s sense (unmatched sends and receives are
/// left to the run). Every send and receive gets the slot of its key:
/// its stream is found in a small per-program cache (a hash lookup on a
/// miss), then its microbatch by binary search in the stream's sorted
/// (microbatch, slot) list, so nothing is sized by a key's value.
/// Collective ops are checked against per-collective program stamps, so
/// the walk stays linear in ops plus collective memberships.
#[expect(
    clippy::cast_possible_truncation,
    reason = "spec ids and devices are u32"
)]
fn lower(topo: &Topology, spec: &ExecutionSpec) -> Result<Lowered, ExecError> {
    let devices = topo.device_count();
    let inside = |rank: Rank| {
        if rank.0 < devices {
            Ok(())
        } else {
            Err(ExecError::RankOutsideTopology { rank, devices })
        }
    };
    let refuse = |defect| Err(ExecError::InvalidSpec(defect));
    // One scratch allocation (each extra setup allocation measurably slows
    // the event loop through its heap layout): per device, a has-program
    // flag and, by a counting sort, its collectives, ascending, at
    // `member_of[first[d]..first[d + 1]]`; per collective, the program being
    // walked if a member, its last starter and its least unstarted member.
    let (n, colls) = (devices as usize, spec.collectives.len());
    let memberships: usize = spec.collectives.iter().map(|c| c.devices.len()).sum();
    let mut scratch = vec![0u32; 2 * n + 1 + memberships + 3 * colls];
    let (has_program, rest) = scratch.split_at_mut(n);
    let (first, rest) = rest.split_at_mut(n + 1);
    let (member_of, stamps) = rest.split_at_mut(memberships);
    stamps.fill(u32::MAX);
    let (member_in, rest) = stamps.split_at_mut(colls);
    let (started_in, missing) = rest.split_at_mut(colls);
    for (id, c) in spec.collectives.iter().enumerate() {
        if c.devices.is_empty() {
            return Err(ExecError::EmptyCollective { id: id as u32 });
        }
        for &rank in &c.devices {
            inside(rank)?;
            first[rank.0 as usize] += 1;
        }
    }
    for d in 1..=n {
        first[d] += first[d - 1];
    }
    for (id, c) in spec.collectives.iter().enumerate().rev() {
        for rank in &c.devices {
            first[rank.0 as usize] -= 1;
            member_of[first[rank.0 as usize] as usize] = id as u32;
        }
    }
    // A collective listing a device twice sits twice in a row in that
    // device's ascending list.
    for d in 0..n {
        let listed = &member_of[first[d] as usize..first[d + 1] as usize];
        if let Some(w) = listed.windows(2).find(|w| w[0] == w[1]) {
            let (id, device) = (w[0], Rank(d as u32));
            return refuse(SpecError::DuplicateMember { id, device });
        }
    }
    let ops = spec.programs.iter().map(|(_, p)| p.len()).sum();
    let mut lowered = Lowered {
        op_msg: Vec::with_capacity(ops),
        messages: 0,
        sends: 0,
        compute_ops: 0,
        wait_ops: 0,
    };
    let mut stream_of: HashMap<StreamKey, usize> = HashMap::new();
    let mut streams: Vec<Vec<(u32, u32)>> = Vec::new();
    let mut cache: Vec<(StreamKey, usize)> = Vec::with_capacity(STREAM_CACHE);
    // Per slot: whether a send (bit 0) and a receive (bit 1) were seen.
    let mut posted: Vec<u8> = Vec::new();
    for (p, (rank, program)) in spec.programs.iter().enumerate() {
        let (p, device) = (p as u32, *rank);
        inside(device)?;
        if std::mem::replace(&mut has_program[device.0 as usize], 1) == 1 {
            return Err(ExecError::DuplicateProgram { device });
        }
        let mine =
            &member_of[first[device.0 as usize] as usize..first[device.0 as usize + 1] as usize];
        for &c in mine {
            member_in[c as usize] = p;
        }
        cache.clear();
        for op in program {
            let (key, bit) = match *op {
                // A send posted by `key.from` is inside the topology.
                Op::Send { key, .. } if key.from == device => {
                    inside(key.to)?;
                    lowered.sends += 1;
                    (Some(key), 1)
                }
                Op::Recv { key } if key.to == device => {
                    lowered.wait_ops += 1;
                    (Some(key), 2)
                }
                Op::Send { key, .. } | Op::Recv { key } => {
                    return refuse(SpecError::MisroutedOp(key))
                }
                Op::Compute { .. } => {
                    lowered.compute_ops += 1;
                    (None, 0)
                }
                Op::CollStart { id } | Op::CollWait { id } => {
                    let c = id as usize;
                    if c >= colls {
                        return refuse(SpecError::UnknownCollective(id));
                    }
                    if member_in[c] != p {
                        return refuse(SpecError::NotACollectiveMember { id, device });
                    }
                    match (matches!(op, Op::CollStart { .. }), started_in[c] == p) {
                        (true, true) => return refuse(SpecError::RepeatedCollStart { id, device }),
                        (true, false) => started_in[c] = p,
                        (false, false) => return refuse(SpecError::WaitBeforeStart { id, device }),
                        (false, true) => lowered.wait_ops += 1,
                    }
                    (None, 0)
                }
            };
            let Some(key) = key else {
                lowered.op_msg.push(NO_MSG);
                continue;
            };
            let stream_key = (key.from, key.to, key.channel, key.chunk);
            let cached = cache.iter().rev().find(|(k, _)| *k == stream_key);
            let stream = match cached {
                Some(&(_, stream)) => stream,
                None => {
                    let next = streams.len();
                    let stream = *stream_of.entry(stream_key).or_insert(next);
                    if stream == next {
                        streams.push(Vec::new());
                    }
                    if cache.len() == STREAM_CACHE {
                        cache.remove(0);
                    }
                    cache.push((stream_key, stream));
                    stream
                }
            };
            let slots = &mut streams[stream];
            let slot = match slots.binary_search_by_key(&key.microbatch, |&(mb, _)| mb) {
                Ok(i) => slots[i].1,
                Err(i) => {
                    let slot = lowered.messages as u32;
                    slots.insert(i, (key.microbatch, slot));
                    lowered.messages += 1;
                    posted.push(0);
                    slot
                }
            };
            let seen = &mut posted[slot as usize];
            if *seen & bit != 0 {
                return refuse(SpecError::DuplicateKey(key));
            }
            *seen |= bit;
            lowered.op_msg.push(slot);
        }
        for &c in mine.iter().filter(|&&c| started_in[c as usize] != p) {
            missing[c as usize] = missing[c as usize].min(device.0);
        }
    }
    // Once any member starts a collective, every member with a program
    // must; an entirely unused collective is harmless.
    let unstarted = (0..colls).find(|&c| started_in[c] != u32::MAX && missing[c] != u32::MAX);
    match unstarted.map(|c| (c as u32, Rank(missing[c]))) {
        Some((id, device)) => refuse(SpecError::MissingCollStart { id, device }),
        None => Ok(lowered),
    }
}

/// Reject link faults whose target has no fabric links: a node past the
/// topology's last node, or the trunk when the plan builds none. Churn
/// on an out-of-range node stays valid (a pure membership signal).
/// Reject stragglers on a rank past the topology's last device or with a
/// slowdown that is not finite and positive.
fn check_fault_targets(topo: &Topology, plan: &FaultPlan) -> Result<(), ExecError> {
    for &Straggler { rank, slowdown } in &plan.stragglers {
        if rank.0 >= topo.device_count() || !(slowdown.is_finite() && slowdown > 0.0) {
            return Err(ExecError::BadStraggler { rank, slowdown });
        }
    }
    for f in &plan.link_faults {
        let present = match f.target {
            FaultTarget::NodeRdma(node) | FaultTarget::NodeEth(node) => node < topo.node_count(),
            FaultTarget::Trunk => plan.trunk_bytes_per_sec.is_some(),
        };
        if !present {
            return Err(ExecError::FaultTargetMissing { target: f.target });
        }
    }
    Ok(())
}

#[expect(
    clippy::cast_possible_truncation,
    reason = "ids and tokens index this run's own tables"
)]
impl<'t> Executor<'t> {
    #[expect(clippy::expect_used, reason = "tracked runs record every entry")]
    fn run(&mut self) -> Result<IterationReport, ExecError> {
        for dev in 0..self.devs.len() {
            self.advance(dev);
        }
        self.census.classes_at_start = self.classes.len() as u64;
        while let Some(completion) = self.sim.next() {
            match completion {
                Completion::Flow { token, .. } => {
                    if self.track {
                        let e = self
                            .entries
                            .binary_search_by_key(&token, |e| e.token)
                            .expect("a tracked run records every entry it starts");
                        self.entries[e].done = true;
                    }
                    self.dispatch(token)?;
                }
                Completion::Timer { token } => self.dispatch(token)?,
                Completion::Fault { link, health } => self.on_fault(link, health),
                Completion::Churn { node, kind } => self.on_churn(node, kind)?,
            }
        }
        if self.sim.stalled() {
            // Traffic is parked on dead links and nothing left in the
            // queue can revive it: the faults won, not the programs.
            return Err(ExecError::Degraded {
                conditions: self.conditions.clone(),
                parked_flows: self.sim.parked_flow_tokens().len() as u64,
            });
        }
        self.finish_report()
    }

    fn dispatch(&mut self, token: u64) -> Result<(), ExecError> {
        match self.tokens[token as usize] {
            Token::ComputeDone { class } => self.wake_class(class),
            Token::MsgArrived { first, count } => {
                let mut woken = 0;
                for i in first..first + count {
                    let msg = self.sent[i as usize];
                    self.msg_arrived[msg] = true;
                    if let Some(dev) = self.msg_waiter[msg].take() {
                        woken += 1;
                        self.resume(dev, SpanKind::RecvWait);
                    }
                }
                self.census.recv_wakeups += woken;
                self.census.recv_steps += u64::from(woken > 0);
            }
            Token::CollFlow { coll, channel } => {
                self.coll_flow_done(coll, channel);
            }
            Token::FlowTimeout { entry } => self.handle_timeout(entry)?,
        }
        Ok(())
    }

    /// Record a link-health transition arriving from the simulator.
    fn on_fault(&mut self, link: LinkId, health: holmes_netsim::LinkHealth) {
        let now = self.sim.now().as_secs_f64();
        if let Some((start, h)) = self.open_faults.remove(&link) {
            self.fault_windows.push(FaultWindow {
                link,
                health: h,
                start_seconds: start,
                end_seconds: now,
            });
        }
        if !health.is_healthy() {
            self.open_faults.insert(link, (now, health));
            if let holmes_netsim::LinkHealth::Degraded { fraction } = health {
                self.conditions.push(DegradedCondition::DegradedLink {
                    link,
                    fraction,
                    at_seconds: now,
                });
            }
        }
    }

    /// React to a node-membership completion. Joins are pure signals —
    /// the simulator already restored the node's links. Losses (preempt
    /// / drain) either retire the node's devices and continue degraded
    /// (every collective touching them is member-loss tolerant, i.e.
    /// parameter-server) or fail fast with a deterministic error so the
    /// reliability layer can re-plan or restore.
    fn on_churn(&mut self, node: u32, kind: ChurnKind) -> Result<(), ExecError> {
        let now = self.sim.now().as_secs_f64();
        self.conditions.push(DegradedCondition::NodeChurn {
            node,
            kind,
            at_seconds: now,
        });
        if kind == ChurnKind::NodeJoin {
            return Ok(());
        }
        let node_idx = node as usize;
        if node_idx >= self.lost.len() || std::mem::replace(&mut self.lost[node_idx].node, true) {
            return Ok(());
        }
        // A collective blocks continuation only when it threads *through*
        // the lost node: PS kinds survive any member loss, untouched
        // groups don't care, and a group living entirely on lost nodes
        // has no survivor left to wedge (its retired members auto-arrive
        // and the stale schedule drains at zero cost).
        let tolerant = self.colls.iter().all(|c| {
            let lost = |r: &Rank| self.lost[self.fabric.node_of(*r)].node;
            c.kind.survives_member_loss()
                || !c.devices.iter().any(&lost)
                || c.devices.iter().all(lost)
        });
        if !tolerant {
            return Err(match kind {
                ChurnKind::NodeDrain => ExecError::NodeDraining {
                    node,
                    at_seconds: now,
                },
                _ => ExecError::NodeLost {
                    node,
                    at_seconds: now,
                },
            });
        }
        // Cancel in-flight entries touching the node, in token order, and
        // deliver their semantic tokens immediately: the data is stale,
        // not lost. Entries the deliveries start cannot touch the node.
        for e in 0..self.entries.len() {
            let rec = &self.entries[e];
            let touches = |r: Rank| self.fabric.node_of(r) == node_idx;
            if rec.done || !(touches(rec.launch.from) || touches(rec.launch.to)) {
                continue;
            }
            let (flow, token) = (rec.flow, rec.token);
            self.sim.cancel_flow(flow);
            self.entries[e].done = true;
            self.dispatch(token)?;
        }
        // Retire the node's devices: deliver each one's unsent pipeline
        // messages (stale) and arrive at its pending collectives so the
        // survivors can launch without it.
        for dev in 0..self.devs.len() {
            if self.fabric.node_of(self.devs[dev].rank) != node_idx
                || self.devs[dev].status == DevStatus::Done
            {
                continue;
            }
            let pc = self.devs[dev].pc;
            match self.devs[dev].status {
                DevStatus::WaitingMsg(_) => {
                    let msg = self.msg_of(dev, pc);
                    if self.msg_waiter[msg] == Some(dev) {
                        self.msg_waiter[msg] = None;
                    }
                }
                DevStatus::WaitingColl(id) => {
                    self.colls[id as usize].waiters.retain(|&w| w != dev);
                }
                _ => {}
            }
            let len = self.programs[dev].len();
            self.devs[dev].pc = len;
            self.devs[dev].status = DevStatus::Done;
            self.devs[dev].finish = now;
            for i in pc..len {
                match self.programs[dev][i] {
                    Op::Send { .. } => {
                        let msg = self.msg_of(dev, i);
                        if !self.msg_arrived[msg] {
                            self.msg_arrived[msg] = true;
                            if let Some(w) = self.msg_waiter[msg].take() {
                                self.resume(w, SpanKind::RecvWait);
                            }
                        }
                    }
                    Op::CollStart { id } => self.arrive(id as usize),
                    _ => {}
                }
            }
        }
        Ok(())
    }

    /// React to entry `e`'s armed timeout: ignore it if the entry
    /// landed, push the deadline out if it is merely slow, cancel and
    /// relaunch it (over TCP on NIC death) if it is parked on a dead link.
    #[expect(clippy::expect_used, reason = "armed only with a retry policy")]
    fn handle_timeout(&mut self, e: usize) -> Result<(), ExecError> {
        let policy = self.retry.expect("timeouts need a retry policy");
        let rec = &mut self.entries[e];
        if rec.done {
            return Ok(());
        }
        rec.timeout_seconds *= policy.backoff_multiplier;
        if !self.sim.parked_flow_tokens().contains(&rec.token) {
            // Slow but moving (degraded or contended): surfacing happens
            // via `on_fault`; here we only push the deadline out.
            let next = SimDuration::from_secs_f64(rec.timeout_seconds);
            let t = self.token(Token::FlowTimeout { entry: e });
            self.set_timer(next, t);
            return Ok(());
        }
        if rec.retries_left == 0 {
            return Err(ExecError::Unrecoverable {
                from: rec.launch.from,
                to: rec.launch.to,
                attempts: policy.max_retries + 1,
            });
        }
        rec.retries_left -= 1;
        let (l, token, flow, tcp) = (rec.launch, rec.token, rec.flow, rec.tcp);
        self.flow_retries += u64::from(l.count);
        self.sim.cancel_flow(flow);
        // Attribute the park: a down RDMA link on the entry's route means
        // its node's NIC is lost, so declare it and fall back to TCP for
        // this and all future traffic touching the node (paper §3.2
        // fallback). An RDMA route's only RDMA links are the sender node's
        // uplink and the receiver node's downlink, in that order.
        let (src, dst) = (self.fabric.node_of(l.from), self.fabric.node_of(l.to));
        if !tcp {
            let route = self
                .routes
                .route(&self.fabric, self.topo, l.from, l.to, false);
            let (up, down) = (
                self.fabric.node_link_ids(src).0,
                self.fabric.node_link_ids(dst).1,
            );
            for (link, node) in [(up, src), (down, dst)] {
                let dead = self.sim.link_health(link).is_some_and(|h| h.is_down());
                if dead
                    && route.path.contains(&link)
                    && !std::mem::replace(&mut self.lost[node].nic, true)
                {
                    self.conditions.push(DegradedCondition::LostNic {
                        node: node as u32,
                        at_seconds: self.sim.now().as_secs_f64(),
                    });
                }
            }
        }
        let force_tcp = tcp || self.lost[src].nic || self.lost[dst].nic;
        if force_tcp {
            self.tcp_fallback_flows += u64::from(l.count);
        }
        self.launch(l, token, force_tcp, Some(e));
        Ok(())
    }

    fn token(&mut self, t: Token) -> u64 {
        self.tokens.push(t);
        (self.tokens.len() - 1) as u64
    }

    /// The message slot of device `dev`'s send or receive at `pc`.
    fn msg_of(&self, dev: usize, pc: usize) -> usize {
        self.op_msg[self.devs[dev].first_op + pc] as usize
    }

    /// Close the open classes and send entry if the simulator scheduled
    /// an event of its own since the executor's newest one: it may sit
    /// between a class's timer and a joiner's. The open collective class
    /// stays: netsim batches every flow start of an instant regardless
    /// of sequence numbers between them.
    fn sync_mark(&mut self) {
        if self.sim.seq_mark() != self.seq_mark {
            self.open_classes.clear();
            self.open_send = None;
            self.seq_mark = self.sim.seq_mark();
        }
    }

    /// Account for an event the executor is about to schedule at `at`
    /// (ns): it would pop between an open class's timer, the open send
    /// entry's start or one of the open collective's round-0 starts at
    /// that instant and any later joiner, so those close.
    fn before_push(&mut self, at: u64) {
        self.sync_mark();
        self.open_classes.retain(|&(t, _)| t != at);
        if self.open_send.is_some_and(|s| s.at == at) {
            self.open_send = None;
        }
        if self.open_coll.is_some() && self.open_coll_starts.contains(&at) {
            self.open_coll = None;
        }
        self.seq_mark += 1;
    }

    fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.before_push(self.sim.now().0 + delay.0);
        self.sim.set_timer(delay, token);
    }

    /// Start a netsim entry. A send or collective joins no entry started
    /// before another, so every start closes the open send and the open
    /// collective class.
    fn start_flow(&mut self, spec: FlowSpec) -> FlowId {
        self.before_push(self.sim.now().0 + spec.latency.0);
        self.open_send = None;
        self.open_coll = None;
        self.launch_entries += 1;
        self.sim.start_flow(spec)
    }

    /// Park computing device `dev` for `seconds` on a class timer: the
    /// open class firing at the same instant, or a new one.
    fn park(&mut self, dev: usize, seconds: f64) {
        self.census.compute_timers += 1;
        let delay = SimDuration::from_secs_f64(seconds);
        let at = self.sim.now().0 + delay.0;
        self.sync_mark();
        let open = self.open_classes.iter().find(|&&(t, _)| t == at);
        if let Some(&(_, class)) = open.filter(|_| !self.solo) {
            self.classes[class as usize].push(dev);
            self.follow(dev, class);
            return;
        }
        let class = self.classes.len() as u32;
        let mut members = self.spare_classes.pop().unwrap_or_default();
        members.push(dev);
        self.classes.push(members);
        self.successor.push(NO_CLASS);
        self.follow(dev, class);
        let token = self.token(Token::ComputeDone { class });
        self.set_timer(delay, token);
        self.census.class_timers += 1;
        self.open_classes.push((at, class));
    }

    /// Move `dev` from its previous class to `class`, counting a split
    /// the first time the previous class's members part ways.
    fn follow(&mut self, dev: usize, class: u32) {
        let prev = std::mem::replace(&mut self.class_of[dev], class);
        if let Some(next) = self.successor.get_mut(prev as usize) {
            if *next == NO_CLASS {
                *next = class;
            } else if *next != class && *next != SPLIT {
                *next = SPLIT;
                self.census.splits += 1;
            }
        }
    }

    /// Class `class`'s timer fired: resume its members in join order,
    /// as their own timers would have popped.
    fn wake_class(&mut self, class: u32) {
        self.open_classes.retain(|&(_, c)| c != class);
        let mut members = std::mem::take(&mut self.classes[class as usize]);
        for &dev in &members {
            // A churn-retired member's program is over: its tick is a
            // no-op.
            if self.devs[dev].status != DevStatus::Done {
                self.devs[dev].pc += 1;
                self.devs[dev].status = DevStatus::Runnable;
                self.advance(dev);
            }
        }
        members.clear();
        self.spare_classes.push(members);
    }

    /// Send one message of `bytes` from `from` to `to`, delivered as
    /// message slot `msg`: as an extra logical flow of the open send
    /// entry when netsim would twin it with that entry, else as a new
    /// entry.
    fn send(&mut self, from: Rank, to: Rank, bytes: u64, msg: usize) {
        let nodes = (self.fabric.node_of(from), self.fabric.node_of(to));
        self.sync_mark();
        if let Some(open) = self.open_send {
            if open.nodes == nodes
                && open.bytes == bytes
                && open.started == self.sim.now().0
                && self.sim.extend_pending_flow(open.flow, 1)
            {
                self.sent.push(msg);
                if let Token::MsgArrived { count, .. } = &mut self.tokens[open.token as usize] {
                    *count += 1;
                }
                return;
            }
        }
        let first = self.sent.len() as u32;
        self.sent.push(msg);
        let token = self.token(Token::MsgArrived { first, count: 1 });
        let l = Launch {
            from,
            to,
            bytes,
            count: 1,
        };
        if let Some((flow, at)) = self.route_flow(l, token) {
            if self.joins {
                self.open_send = Some(OpenSend {
                    flow,
                    token,
                    nodes,
                    bytes,
                    started: self.sim.now().0,
                    at,
                });
            }
        }
    }

    /// Start `l` as one counted entry delivering `token`, over TCP when
    /// an endpoint's NIC was lost or the transport ignores NICs. Returns
    /// the entry and the instant (ns) it starts streaming, or `None` when
    /// an endpoint's node left and the token was delivered as stale.
    fn route_flow(&mut self, l: Launch, token: u64) -> Option<(FlowId, u64)> {
        let mut lost_nic = false;
        if !self.lost.is_empty() {
            let (a, b) = (
                self.lost[self.fabric.node_of(l.from)],
                self.lost[self.fabric.node_of(l.to)],
            );
            if a.node || b.node {
                // One endpoint left the job: the member's contribution is
                // stale, not pending. Deliver the semantic token through
                // the event queue (zero-delay timer) so ordering relative
                // to other completions stays deterministic.
                self.set_timer(SimDuration::from_secs_f64(0.0), token);
                return None;
            }
            lost_nic = a.nic || b.nic;
        }
        let nic_oblivious = self.transport == TransportPolicy::ForceTcpInterNode;
        if lost_nic && !nic_oblivious {
            self.tcp_fallback_flows += u64::from(l.count);
        }
        Some(self.launch(l, token, lost_nic || nic_oblivious, None))
    }

    /// Start `l` as one netsim entry delivering `token`, over TCP/Ethernet
    /// when `tcp`, as a new attempt of entry record `relaunch` or, in a
    /// tracked run, under a new record. Under armed retries an entry that
    /// leaves its node gets a timeout, priced from its first route.
    /// Returns the entry and the instant (ns) it starts streaming.
    fn launch(
        &mut self,
        l: Launch,
        token: u64,
        tcp: bool,
        relaunch: Option<usize>,
    ) -> (FlowId, u64) {
        let route = self
            .routes
            .route(&self.fabric, self.topo, l.from, l.to, tcp);
        let (latency, rate_cap, pathless) = (route.latency, route.rate_cap, route.path.is_empty());
        let spec = FlowSpec {
            path: route.path.clone(),
            bytes: l.bytes,
            latency,
            rate_cap,
            token,
            count: l.count,
        };
        let flow = self.start_flow(spec);
        let at = self.sim.now().0 + latency.0;
        if !self.track {
            return (flow, at);
        }
        let e = match relaunch {
            Some(e) => {
                self.entries[e].flow = flow;
                self.entries[e].tcp = tcp;
                e
            }
            None => {
                // Without armed retries the policy goes unused.
                let policy = self.retry.unwrap_or_default();
                let est = latency.as_secs_f64()
                    + if rate_cap.is_finite() && rate_cap > 0.0 {
                        l.bytes as f64 / rate_cap
                    } else {
                        0.0
                    };
                self.entries.push(Entry {
                    launch: l,
                    token,
                    flow,
                    tcp,
                    retries_left: policy.max_retries,
                    timeout_seconds: (est * policy.timeout_factor).max(policy.min_timeout_seconds),
                    done: false,
                });
                self.entries.len() - 1
            }
        };
        if self.retry.is_some() && !pathless {
            let timeout = SimDuration::from_secs_f64(self.entries[e].timeout_seconds);
            let t = self.token(Token::FlowTimeout { entry: e });
            self.set_timer(timeout, t);
        }
        (flow, at)
    }

    /// Execute ops for `dev` until it blocks or finishes.
    fn advance(&mut self, dev: usize) {
        loop {
            let pc = self.devs[dev].pc;
            if pc >= self.programs[dev].len() {
                self.devs[dev].status = DevStatus::Done;
                self.devs[dev].finish = self.sim.now().as_secs_f64();
                return;
            }
            let op = self.programs[dev][pc];
            match op {
                Op::Compute { label, seconds } => {
                    let rank = self.devs[dev].rank.0 as usize;
                    let seconds = seconds * self.slowdown.get(rank).copied().unwrap_or(1.0);
                    let start = self.sim.now().as_secs_f64();
                    self.timeline.spans.push(Span {
                        device: self.devs[dev].rank,
                        kind: SpanKind::Compute(label),
                        start,
                        end: start + seconds,
                    });
                    let d = &mut self.devs[dev];
                    d.compute_seconds += seconds;
                    match label {
                        ComputeLabel::Forward { .. } => d.forward_seconds += seconds,
                        ComputeLabel::Optimizer => d.optimizer_seconds += seconds,
                        l if l.is_backward() => d.backward_seconds += seconds,
                        _ => {}
                    }
                    d.status = DevStatus::Computing;
                    self.park(dev, seconds);
                    return;
                }
                Op::Send { key, bytes } => {
                    let msg = self.msg_of(dev, pc);
                    self.send(key.from, key.to, bytes, msg);
                    self.devs[dev].pc += 1;
                }
                Op::Recv { key } => {
                    let msg = self.msg_of(dev, pc);
                    if self.msg_arrived[msg] {
                        self.devs[dev].pc += 1;
                    } else {
                        self.msg_waiter[msg] = Some(dev);
                        self.devs[dev].status = DevStatus::WaitingMsg(key);
                        self.devs[dev].wait_since = self.sim.now().as_secs_f64();
                        return;
                    }
                }
                Op::CollStart { id } => {
                    self.arrive(id as usize);
                    self.devs[dev].pc += 1;
                }
                Op::CollWait { id } => {
                    let idx = id as usize;
                    if self.colls[idx].done {
                        self.devs[dev].pc += 1;
                    } else {
                        self.colls[idx].waiters.push(dev);
                        self.devs[dev].status = DevStatus::WaitingColl(id);
                        self.devs[dev].wait_since = self.sim.now().as_secs_f64();
                        return;
                    }
                }
            }
        }
    }

    fn launch_collective(&mut self, id: usize) {
        self.colls[id].launch_time = self.sim.now().as_secs_f64();
        if self.rounds(id).round_ends.is_empty() {
            self.complete_collective(id);
            return;
        }
        self.census.collectives += 1;
        if self.fold(id) {
            self.census.collectives_folded += 1;
            return;
        }
        self.open_coll_flows.clear();
        self.open_coll_starts.clear();
        for channel in 0..self.colls[id].round.len() as u32 {
            self.launch_round(id, channel);
        }
        if self.joins {
            self.open_coll = Some(OpenColl {
                leader: id,
                at: self.sim.now().0,
            });
        }
    }

    /// Fold collective `id`, launching now, into the open collective
    /// class when netsim would run it in lockstep with the class: it
    /// launches at the class's instant with the same channels and
    /// node-level rounds, no entry started and no event was pushed at a
    /// round-0 start instant in between (either closes the class), and
    /// every round-0 entry of the class can still grow. Its entries
    /// would then take the flow ids right behind the class's, twin with
    /// them in one `FlowStart` batch and complete in the same harvest
    /// right behind them, round after round; the class's counted entries
    /// carry them instead (DESIGN.md §6.1.2).
    fn fold(&mut self, id: usize) -> bool {
        let Some(open) = self.open_coll else {
            return false;
        };
        if open.at != self.sim.now().0
            || !self.same_rounds(open.leader, id)
            || !self
                .open_coll_flows
                .iter()
                .all(|&f| self.sim.pending_flow_extends(f))
        {
            return false;
        }
        // Round-0 entries went out channel after channel, each channel's
        // in launch order.
        let rounds = &self.schedules[self.colls[id].rounds];
        let per_channel = rounds.round_ends[0] as usize;
        for (j, &flow) in self.open_coll_flows.iter().enumerate() {
            let by = rounds.launches[j % per_channel].count;
            let grown = self.sim.extend_pending_flow(flow, by);
            debug_assert!(grown, "a checked entry must extend");
        }
        self.colls[open.leader].followers.push(id);
        true
    }

    /// Whether collectives `a` and `b` replay the same channels and
    /// rounds of (source node, destination node, bytes, count) launches,
    /// so their entries share routes round by round. The kind is only a
    /// label netsim never sees, so it need not match.
    fn same_rounds(&self, a: usize, b: usize) -> bool {
        let (a, b) = (&self.colls[a], &self.colls[b]);
        if a.round.len() != b.round.len() {
            return false;
        }
        if a.rounds == b.rounds {
            return true;
        }
        let (a, b) = (&self.schedules[a.rounds], &self.schedules[b.rounds]);
        let node = |r: Rank| self.fabric.node_of(r);
        a.round_ends == b.round_ends
            && a.launches.iter().zip(&b.launches).all(|(x, y)| {
                (node(x.from), node(x.to), x.bytes, x.count)
                    == (node(y.from), node(y.to), y.bytes, y.count)
            })
    }

    /// The schedule collective `id` replays.
    fn rounds(&self, id: usize) -> &Rounds {
        &self.schedules[self.colls[id].rounds]
    }

    /// Launch the current round of `channel`: one counted entry per
    /// (source node, destination node, bytes) group, counted once per
    /// class member. Round 0's entries are kept for later folds.
    fn launch_round(&mut self, id: usize, channel: u32) {
        let coll = &self.colls[id];
        let round = coll.round[channel as usize] as usize;
        let members = 1 + coll.followers.len() as u32;
        let round_ends = &self.rounds(id).round_ends;
        let start = if round == 0 {
            0
        } else {
            round_ends[round - 1] as usize
        };
        let end = round_ends[round] as usize;
        debug_assert!(end > start, "round must have flows");
        self.colls[id].outstanding[channel as usize] = (end - start) as u32;
        for i in start..end {
            let l = self.rounds(id).launches[i];
            let token = self.token(Token::CollFlow { coll: id, channel });
            let count = l.count * members;
            let started = self.route_flow(Launch { count, ..l }, token);
            if let Some((flow, at)) = started.filter(|_| round == 0 && self.joins) {
                self.open_coll_flows.push(flow);
                if !self.open_coll_starts.contains(&at) {
                    self.open_coll_starts.push(at);
                }
            }
        }
    }

    fn coll_flow_done(&mut self, id: usize, channel: u32) {
        let c = channel as usize;
        self.colls[id].outstanding[c] -= 1;
        if self.colls[id].outstanding[c] > 0 {
            return;
        }
        self.colls[id].round[c] += 1;
        if (self.colls[id].round[c] as usize) < self.rounds(id).round_ends.len() {
            self.launch_round(id, channel);
        } else {
            self.colls[id].channels_done += 1;
            if self.colls[id].channels_done as usize == self.colls[id].round.len() {
                self.complete_collective(id);
            }
        }
    }

    /// Complete collective `id` and then every collective folded into
    /// its class, in join order, as their own last entries would have.
    fn complete_collective(&mut self, id: usize) {
        let followers = std::mem::take(&mut self.colls[id].followers);
        for member in std::iter::once(id).chain(followers) {
            let now = self.sim.now().as_secs_f64();
            self.colls[member].done = true;
            self.colls[member].wall = now - self.colls[member].launch_time;
            let kind = self.colls[member].kind;
            let waiters = std::mem::take(&mut self.colls[member].waiters);
            for dev in waiters {
                self.resume(dev, SpanKind::CollWait(kind));
            }
        }
    }

    /// Count a member's arrival at collective `id`; the last one launches it.
    fn arrive(&mut self, id: usize) {
        self.colls[id].arrived += 1;
        if self.colls[id].arrived as usize == self.colls[id].devices.len() {
            self.launch_collective(id);
        }
    }

    /// End `dev`'s wait, step past the op it blocked on and run on.
    fn resume(&mut self, dev: usize, kind: SpanKind) {
        self.end_wait_span(dev, kind);
        self.devs[dev].pc += 1;
        self.devs[dev].status = DevStatus::Runnable;
        self.advance(dev);
    }

    /// Close a wait span opened when `dev` blocked. Zero-length waits are
    /// not recorded.
    fn end_wait_span(&mut self, dev: usize, kind: SpanKind) {
        let now = self.sim.now().as_secs_f64();
        let since = self.devs[dev].wait_since;
        if now > since {
            self.timeline.spans.push(Span {
                device: self.devs[dev].rank,
                kind,
                start: since,
                end: now,
            });
        }
    }

    fn finish_report(&mut self) -> Result<IterationReport, ExecError> {
        // Validate everything drained cleanly.
        let mut stuck = Vec::new();
        for (i, d) in self.devs.iter().enumerate() {
            match d.status {
                DevStatus::Done => {}
                DevStatus::WaitingMsg(key) => stuck.push(format!(
                    "{} at op {} waiting for {:?}",
                    d.rank, self.devs[i].pc, key
                )),
                DevStatus::WaitingColl(id) => {
                    stuck.push(format!("{} waiting for collective {id}", d.rank))
                }
                other => stuck.push(format!("{} in state {other:?}", d.rank)),
            }
        }
        if !stuck.is_empty() {
            return Err(ExecError::Deadlock { stuck });
        }
        for (id, c) in self.colls.iter().enumerate() {
            if !c.done && c.arrived > 0 {
                return Err(ExecError::CollectiveIncomplete {
                    id: id as u32,
                    arrived: c.arrived,
                    expected: c.devices.len() as u32,
                });
            }
        }

        let max = |f: fn(&DevState) -> f64| self.devs.iter().map(f).fold(0.0, f64::max);
        let mut report = IterationReport {
            total_seconds: max(|d| d.finish),
            device_finish_seconds: self.devs.iter().map(|d| d.finish).collect(),
            device_compute_seconds: self.devs.iter().map(|d| d.compute_seconds).collect(),
            forward_seconds_max: max(|d| d.forward_seconds),
            backward_seconds_max: max(|d| d.backward_seconds),
            optimizer_seconds_max: max(|d| d.optimizer_seconds),
            collective_wall_seconds: BTreeMap::new(),
            collective_spans: BTreeMap::new(),
            events: self.sim.events_processed(),
            flows: self.sim.engine_flows_completed(),
            launch_entries: self.launch_entries,
            classes: self.census,
            timeline: std::mem::take(&mut self.timeline),
            node_link_usage: Vec::new(),
            fault_windows: std::mem::take(&mut self.fault_windows),
            degraded_conditions: std::mem::take(&mut self.conditions),
            flow_retries: self.flow_retries,
            tcp_fallback_flows: self.tcp_fallback_flows,
        };
        // Close windows the schedule never restored at the iteration end
        // (leftover retry timers can drain the simulator clock past the
        // last device finish; that tail is not part of the iteration).
        let end = self.sim.now().as_secs_f64().min(report.total_seconds);
        for (link, (start, health)) in std::mem::take(&mut self.open_faults) {
            report.fault_windows.push(FaultWindow {
                link,
                health,
                start_seconds: start,
                end_seconds: end.max(start),
            });
        }
        report.fault_windows.sort_by(|a, b| {
            a.start_seconds
                .partial_cmp(&b.start_seconds)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.link.0.cmp(&b.link.0))
        });
        let horizon = report.total_seconds;
        for node in 0..self.fabric.node_count() {
            let (rdma_up, rdma_down, eth_up, eth_down) = self.fabric.node_link_ids(node);
            let stat = |id| self.sim.link_stats(id).unwrap_or_default();
            let util = |id| {
                self.sim
                    .link_capacity(id)
                    .map(|cap| stat(id).utilization(cap, horizon))
                    .unwrap_or(0.0)
            };
            report.node_link_usage.push(NodeLinkUsage {
                rdma_bytes: stat(rdma_up).bytes + stat(rdma_down).bytes,
                eth_bytes: stat(eth_up).bytes + stat(eth_down).bytes,
                rdma_utilization: util(rdma_up).max(util(rdma_down)),
                eth_utilization: util(eth_up).max(util(eth_down)),
            });
        }
        for c in &self.colls {
            if c.done && !self.schedules[c.rounds].round_ends.is_empty() {
                report
                    .collective_wall_seconds
                    .entry(c.kind)
                    .or_default()
                    .push(c.wall);
                report
                    .collective_spans
                    .entry(c.kind)
                    .or_default()
                    .push((c.launch_time, c.launch_time + c.wall));
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Channel;
    use holmes_topology::{presets, NicType};

    fn topo2() -> Topology {
        presets::homogeneous(NicType::InfiniBand, 2)
    }

    fn compute(label: ComputeLabel, seconds: f64) -> Op {
        Op::Compute { label, seconds }
    }

    fn fwd(mb: u32, seconds: f64) -> Op {
        compute(ComputeLabel::Forward { microbatch: mb }, seconds)
    }

    #[test]
    fn single_device_compute_sequence() {
        let topo = topo2();
        let spec = ExecutionSpec {
            programs: vec![(Rank(0), vec![fwd(0, 0.5), fwd(1, 0.25)])],
            collectives: vec![],
            transport: TransportPolicy::Auto,
        };
        let r = execute(&topo, spec).unwrap();
        assert!((r.total_seconds - 0.75).abs() < 1e-9);
        assert!((r.forward_seconds_max - 0.75).abs() < 1e-9);
        assert_eq!(r.backward_seconds_max, 0.0);
    }

    #[test]
    fn send_recv_across_nodes() {
        let topo = topo2();
        let key = MsgKey {
            from: Rank(0),
            to: Rank(8),
            channel: Channel::Activation,
            microbatch: 0,
            chunk: 0,
        };
        // 23 GB over one IB port ≈ 1 s.
        let spec = ExecutionSpec {
            programs: vec![
                (
                    Rank(0),
                    vec![Op::Send {
                        key,
                        bytes: 23_000_000_000,
                    }],
                ),
                (Rank(8), vec![Op::Recv { key }]),
            ],
            collectives: vec![],
            transport: TransportPolicy::Auto,
        };
        let r = execute(&topo, spec).unwrap();
        assert!((r.total_seconds - 1.0).abs() < 0.01, "{}", r.total_seconds);
    }

    #[test]
    fn recv_before_send_still_completes() {
        let topo = topo2();
        let key = MsgKey {
            from: Rank(0),
            to: Rank(8),
            channel: Channel::Activation,
            microbatch: 0,
            chunk: 0,
        };
        // The receiver reaches its recv immediately; the sender computes
        // 0.5 s first. Total = 0.5 + transfer.
        let spec = ExecutionSpec {
            programs: vec![
                (
                    Rank(0),
                    vec![
                        fwd(0, 0.5),
                        Op::Send {
                            key,
                            bytes: 2_300_000_000,
                        },
                    ],
                ),
                (Rank(8), vec![Op::Recv { key }]),
            ],
            collectives: vec![],
            transport: TransportPolicy::Auto,
        };
        let r = execute(&topo, spec).unwrap();
        assert!((r.total_seconds - 0.6).abs() < 0.01, "{}", r.total_seconds);
    }

    #[test]
    fn missing_send_is_a_deadlock() {
        let topo = topo2();
        let key = MsgKey {
            from: Rank(0),
            to: Rank(8),
            channel: Channel::Activation,
            microbatch: 0,
            chunk: 0,
        };
        let spec = ExecutionSpec {
            programs: vec![(Rank(8), vec![Op::Recv { key }])],
            collectives: vec![],
            transport: TransportPolicy::Auto,
        };
        match execute(&topo, spec) {
            Err(ExecError::Deadlock { stuck }) => {
                assert_eq!(stuck, [format!("r8 at op 0 waiting for {key:?}")]);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn largest_labels_run_like_small_ones() {
        // Message slots are found by search, not indexed by a key's
        // value, so the largest microbatch and chunk run like the
        // smallest.
        let topo = topo2();
        let run = |label: u32| {
            let key = MsgKey {
                from: Rank(0),
                to: Rank(8),
                channel: Channel::Gradient,
                microbatch: label,
                chunk: label,
            };
            let spec = ExecutionSpec {
                programs: vec![
                    (
                        Rank(0),
                        vec![
                            fwd(0, 0.5),
                            Op::Send {
                                key,
                                bytes: 1 << 30,
                            },
                        ],
                    ),
                    (Rank(8), vec![Op::Recv { key }, fwd(1, 0.25)]),
                ],
                collectives: vec![],
                transport: TransportPolicy::Auto,
            };
            execute(&topo, spec).unwrap()
        };
        let (small, largest) = (run(0), run(u32::MAX));
        assert!(largest.total_seconds > 0.75, "{}", largest.total_seconds);
        assert_eq!(
            small.total_seconds.to_bits(),
            largest.total_seconds.to_bits()
        );
        assert_eq!(small.timeline.spans, largest.timeline.spans);
    }

    #[test]
    fn allreduce_collective_runs_and_reports_wall_time() {
        let topo = topo2();
        // 8 ranks on one node: NVLink ring, 1 GiB.
        let devices: Vec<Rank> = (0..8).map(Rank).collect();
        let mut programs = Vec::new();
        for &d in &devices {
            programs.push((d, vec![Op::CollStart { id: 0 }, Op::CollWait { id: 0 }]));
        }
        let spec = ExecutionSpec {
            programs,
            collectives: vec![CollectiveSpec {
                kind: CollKind::AllReduce,
                devices,
                bytes: 1 << 30,
                channels: 1,
            }],
            transport: TransportPolicy::Auto,
        };
        let r = execute(&topo, spec).unwrap();
        let walls = &r.collective_wall_seconds[&CollKind::AllReduce];
        assert_eq!(walls.len(), 1);
        // Ideal: 2·7/8·1GiB / 250GB/s ≈ 7.5 ms (+ latencies).
        assert!(walls[0] > 0.005 && walls[0] < 0.02, "wall = {}", walls[0]);
        assert!((r.total_seconds - walls[0]).abs() < 1e-9);
    }

    #[test]
    fn collective_waits_for_late_members() {
        let topo = topo2();
        let devices: Vec<Rank> = vec![Rank(0), Rank(1)];
        let spec = ExecutionSpec {
            programs: vec![
                (
                    Rank(0),
                    vec![Op::CollStart { id: 0 }, Op::CollWait { id: 0 }],
                ),
                (
                    Rank(1),
                    vec![fwd(0, 1.0), Op::CollStart { id: 0 }, Op::CollWait { id: 0 }],
                ),
            ],
            collectives: vec![CollectiveSpec {
                kind: CollKind::AllReduce,
                devices,
                bytes: 0,
                channels: 1,
            }],
            transport: TransportPolicy::Auto,
        };
        let r = execute(&topo, spec).unwrap();
        // Launch can only happen after rank 1's 1 s compute.
        assert!(r.total_seconds >= 1.0);
    }

    #[test]
    fn singleton_collective_is_instant() {
        let topo = topo2();
        let spec = ExecutionSpec {
            programs: vec![(
                Rank(0),
                vec![Op::CollStart { id: 0 }, Op::CollWait { id: 0 }],
            )],
            collectives: vec![CollectiveSpec {
                kind: CollKind::ReduceScatter,
                devices: vec![Rank(0)],
                bytes: 1 << 30,
                channels: 1,
            }],
            transport: TransportPolicy::Auto,
        };
        let r = execute(&topo, spec).unwrap();
        assert_eq!(r.total_seconds, 0.0);
    }

    #[test]
    fn degenerate_collectives_are_noops_for_every_kind() {
        // n == 1 used to hit `debug_assert!(n >= 2)` in the executor's
        // private tree_depth for trees; with the shared IR every kind
        // yields an empty schedule and completes instantly.
        let topo = topo2();
        for kind in [
            CollKind::AllReduce,
            CollKind::TreeAllReduce,
            CollKind::ReduceScatter,
            CollKind::AllGather,
            CollKind::Broadcast,
            CollKind::HierarchicalAllReduce,
        ] {
            let spec = ExecutionSpec {
                programs: vec![(
                    Rank(0),
                    vec![Op::CollStart { id: 0 }, Op::CollWait { id: 0 }],
                )],
                collectives: vec![CollectiveSpec::new(kind, vec![Rank(0)], 1 << 30)],
                transport: TransportPolicy::Auto,
            };
            let r = execute(&topo, spec).unwrap();
            assert_eq!(r.total_seconds, 0.0, "{kind:?} over 1 rank");
            assert!(r.collective_wall_seconds.is_empty(), "{kind:?}");
        }
        // n == 2 is a working 2-round tree, not a degenerate case.
        let devices = vec![Rank(0), Rank(1)];
        let programs = devices
            .iter()
            .map(|&d| (d, vec![Op::CollStart { id: 0 }, Op::CollWait { id: 0 }]))
            .collect();
        let spec = ExecutionSpec {
            programs,
            collectives: vec![CollectiveSpec::new(
                CollKind::TreeAllReduce,
                devices,
                1 << 30,
            )],
            transport: TransportPolicy::Auto,
        };
        let r = execute(&topo, spec).unwrap();
        assert!(r.total_seconds > 0.0);
        assert_eq!(r.collective_wall_seconds[&CollKind::TreeAllReduce].len(), 1);
    }

    #[test]
    fn hierarchical_allreduce_beats_flat_ring_across_clusters() {
        // Figure 4 Case 2 shape: two IB clusters joined only by Ethernet.
        // The flat ring drags every round through the slow cross-cluster
        // hops; the hierarchical schedule crosses them just twice.
        let topo = presets::same_nic_two_clusters(NicType::InfiniBand, 2);
        let run = |kind| {
            let devices: Vec<Rank> = (0..32).map(Rank).collect();
            let programs = devices
                .iter()
                .map(|&d| (d, vec![Op::CollStart { id: 0 }, Op::CollWait { id: 0 }]))
                .collect();
            let spec = ExecutionSpec {
                programs,
                collectives: vec![CollectiveSpec::new(kind, devices, 1 << 30)],
                transport: TransportPolicy::Auto,
            };
            execute(&topo, spec).unwrap().total_seconds
        };
        let flat = run(CollKind::AllReduce);
        let hier = run(CollKind::HierarchicalAllReduce);
        assert!(hier < 0.6 * flat, "hier {hier} vs flat {flat}");
        // On a single-cluster topology the hierarchical schedule falls
        // back to the flat ring exactly.
        let topo = topo2();
        let run_one = |kind| {
            let devices: Vec<Rank> = (0..16).map(Rank).collect();
            let programs = devices
                .iter()
                .map(|&d| (d, vec![Op::CollStart { id: 0 }, Op::CollWait { id: 0 }]))
                .collect();
            let spec = ExecutionSpec {
                programs,
                collectives: vec![CollectiveSpec::new(kind, devices, 1 << 28)],
                transport: TransportPolicy::Auto,
            };
            execute(&topo, spec).unwrap().total_seconds
        };
        assert_eq!(
            run_one(CollKind::HierarchicalAllReduce),
            run_one(CollKind::AllReduce)
        );
    }

    #[test]
    fn forced_tcp_slows_inter_node_collectives() {
        let topo = topo2();
        let devices: Vec<Rank> = vec![Rank(0), Rank(8)];
        let build = |transport| ExecutionSpec {
            programs: vec![
                (
                    Rank(0),
                    vec![Op::CollStart { id: 0 }, Op::CollWait { id: 0 }],
                ),
                (
                    Rank(8),
                    vec![Op::CollStart { id: 0 }, Op::CollWait { id: 0 }],
                ),
            ],
            collectives: vec![CollectiveSpec {
                kind: CollKind::AllReduce,
                devices: devices.clone(),
                bytes: 1 << 30,
                channels: 1,
            }],
            transport,
        };
        let auto = execute(&topo, build(TransportPolicy::Auto)).unwrap();
        let tcp = execute(&topo, build(TransportPolicy::ForceTcpInterNode)).unwrap();
        assert!(
            tcp.total_seconds > 3.0 * auto.total_seconds,
            "tcp {} vs auto {}",
            tcp.total_seconds,
            auto.total_seconds
        );
    }

    #[test]
    fn overlap_between_compute_and_collective() {
        let topo = topo2();
        let devices: Vec<Rank> = vec![Rank(0), Rank(8)];
        // Both members start the collective, then compute 1 s, then wait.
        // The ~0.37 s IB all-reduce hides under compute: total ≈ 1 s.
        let mut programs = Vec::new();
        for &d in &devices {
            programs.push((
                d,
                vec![
                    Op::CollStart { id: 0 },
                    compute(ComputeLabel::Backward { microbatch: 0 }, 1.0),
                    Op::CollWait { id: 0 },
                ],
            ));
        }
        let spec = ExecutionSpec {
            programs,
            collectives: vec![CollectiveSpec {
                kind: CollKind::AllReduce,
                devices,
                bytes: 4 << 30,
                channels: 1,
            }],
            transport: TransportPolicy::Auto,
        };
        let r = execute(&topo, spec).unwrap();
        assert!(
            (r.total_seconds - 1.0).abs() < 0.05,
            "total = {}",
            r.total_seconds
        );
        assert!((r.backward_seconds_max - 1.0).abs() < 1e-9);
    }

    #[test]
    fn report_diagnostics_are_populated() {
        let topo = topo2();
        let spec = ExecutionSpec {
            programs: vec![(Rank(0), vec![fwd(0, 0.1)])],
            collectives: vec![],
            transport: TransportPolicy::Auto,
        };
        let r = execute(&topo, spec).unwrap();
        assert!(r.events >= 1);
        assert_eq!(r.device_finish_seconds.len(), 1);
        assert_eq!(r.device_compute_seconds.len(), 1);
    }

    #[test]
    fn tree_allreduce_runs_and_beats_ring_on_latency() {
        // 2 ranks across nodes with tiny payload: tree = 2 hops, ring = 2
        // hops — equal there; use 16 ranks for a real depth difference.
        let topo = presets::homogeneous(NicType::InfiniBand, 2);
        let run = |kind| {
            let devices: Vec<Rank> = (0..16).map(Rank).collect();
            let programs = devices
                .iter()
                .map(|&d| (d, vec![Op::CollStart { id: 0 }, Op::CollWait { id: 0 }]))
                .collect();
            let spec = ExecutionSpec {
                programs,
                collectives: vec![CollectiveSpec::new(kind, devices, 4096)],
                transport: TransportPolicy::Auto,
            };
            execute(&topo, spec).unwrap().total_seconds
        };
        let ring = run(CollKind::AllReduce);
        let tree = run(CollKind::TreeAllReduce);
        // 4 KiB over 16 ranks: ring pays 30 round latencies, tree 8.
        assert!(tree < ring, "tree {tree} vs ring {ring}");
    }

    #[test]
    fn tree_allreduce_large_buffer_loses_to_ring() {
        let topo = presets::homogeneous(NicType::InfiniBand, 2);
        let run = |kind| {
            let devices: Vec<Rank> = (0..16).map(Rank).collect();
            let programs = devices
                .iter()
                .map(|&d| (d, vec![Op::CollStart { id: 0 }, Op::CollWait { id: 0 }]))
                .collect();
            let spec = ExecutionSpec {
                programs,
                collectives: vec![CollectiveSpec::new(kind, devices, 1 << 30)],
                transport: TransportPolicy::Auto,
            };
            execute(&topo, spec).unwrap().total_seconds
        };
        assert!(run(CollKind::AllReduce) < run(CollKind::TreeAllReduce));
    }

    #[test]
    fn multi_channel_collective_uses_more_ports() {
        // One inter-node ring flow is capped at one IB port (23 GB/s);
        // with 2 channels the two half-size rings ride 2 ports and finish
        // in about half the time.
        let topo = presets::homogeneous(NicType::InfiniBand, 2);
        let run = |channels| {
            let devices: Vec<Rank> = (0..16).map(Rank).collect();
            let programs = devices
                .iter()
                .map(|&d| (d, vec![Op::CollStart { id: 0 }, Op::CollWait { id: 0 }]))
                .collect();
            let spec = ExecutionSpec {
                programs,
                collectives: vec![CollectiveSpec {
                    kind: CollKind::ReduceScatter,
                    devices,
                    bytes: 8 << 30,
                    channels,
                }],
                transport: TransportPolicy::Auto,
            };
            execute(&topo, spec).unwrap().total_seconds
        };
        let one = run(1);
        let two = run(2);
        assert!(two < 0.6 * one, "2 channels {two} vs 1 channel {one}");
        // Beyond the port count there is nothing left to parallelize:
        // the node uplink saturates at 2 ports.
        let four = run(4);
        assert!(four > 0.4 * two, "4 channels {four} vs 2 channels {two}");
    }

    #[test]
    fn empty_fault_plan_is_byte_identical_to_execute() {
        let topo = topo2();
        let devices: Vec<Rank> = (0..16).map(Rank).collect();
        let build = || ExecutionSpec {
            programs: devices
                .iter()
                .map(|&d| (d, vec![Op::CollStart { id: 0 }, Op::CollWait { id: 0 }]))
                .collect(),
            collectives: vec![CollectiveSpec::new(
                CollKind::AllReduce,
                devices.clone(),
                1 << 28,
            )],
            transport: TransportPolicy::Auto,
        };
        let clean = execute(&topo, build()).unwrap();
        let faulted = execute_with_faults(&topo, build(), &FaultPlan::none()).unwrap();
        assert_eq!(
            clean.total_seconds.to_bits(),
            faulted.total_seconds.to_bits()
        );
        assert_eq!(clean.events, faulted.events);
        assert_eq!(clean.flows, faulted.flows);
        assert!(faulted.fault_windows.is_empty());
        assert!(faulted.degraded_conditions.is_empty());
        assert_eq!(faulted.flow_retries, 0);
    }

    #[test]
    fn trunk_degradation_stretches_the_run_and_reports_the_window() {
        use holmes_netsim::SimTime;
        let topo = presets::same_nic_two_clusters(NicType::InfiniBand, 2);
        let devices: Vec<Rank> = (0..32).map(Rank).collect();
        let build = || ExecutionSpec {
            programs: devices
                .iter()
                .map(|&d| (d, vec![Op::CollStart { id: 0 }, Op::CollWait { id: 0 }]))
                .collect(),
            collectives: vec![CollectiveSpec::new(
                CollKind::HierarchicalAllReduce,
                devices.clone(),
                1 << 30,
            )],
            transport: TransportPolicy::Auto,
        };
        // Both runs share a 12.5 GB/s trunk; only one degrades it.
        let mut base = FaultPlan::none();
        base.trunk_bytes_per_sec = Some(12.5e9);
        let clean = execute_with_faults(&topo, build(), &base).unwrap();
        let mut plan = base.clone();
        // Degrade the trunk to 10% for most of the iteration.
        plan.degrade_trunk(SimTime(1_000_000), SimTime(10_000_000_000), 0.1);
        let faulted = execute_with_faults(&topo, build(), &plan).unwrap();
        assert!(
            faulted.total_seconds > 1.5 * clean.total_seconds,
            "degraded {} vs clean {}",
            faulted.total_seconds,
            clean.total_seconds
        );
        assert!(!faulted.fault_windows.is_empty());
        let w = faulted.fault_windows[0];
        assert!(w.start_seconds < faulted.total_seconds);
        assert!(w.end_seconds > w.start_seconds);
        assert!(faulted
            .degraded_conditions
            .iter()
            .any(|c| matches!(c, DegradedCondition::DegradedLink { .. })));
    }

    /// Run one all-reduce over a single four-node IB cluster under `plan`.
    fn allreduce_on_ib4(plan: &FaultPlan) -> Result<IterationReport, ExecError> {
        let topo = presets::homogeneous(NicType::InfiniBand, 4);
        let devices: Vec<Rank> = (0..topo.device_count()).map(Rank).collect();
        let spec = ExecutionSpec {
            programs: devices
                .iter()
                .map(|&d| (d, vec![Op::CollStart { id: 0 }, Op::CollWait { id: 0 }]))
                .collect(),
            collectives: vec![CollectiveSpec::new(CollKind::AllReduce, devices, 1 << 20)],
            transport: TransportPolicy::Auto,
        };
        execute_with_faults(&topo, spec, plan)
    }

    #[test]
    fn trunk_fault_without_a_trunk_is_a_typed_error() {
        use holmes_netsim::SimTime;
        let mut plan = FaultPlan::none();
        plan.degrade_trunk(SimTime(1_000), SimTime(2_000), 0.5);
        assert_eq!(
            allreduce_on_ib4(&plan).unwrap_err(),
            ExecError::FaultTargetMissing {
                target: FaultTarget::Trunk
            }
        );
    }

    #[test]
    fn nic_fault_on_a_missing_node_is_a_typed_error() {
        use holmes_netsim::SimTime;
        let mut plan = FaultPlan::none();
        plan.kill_nic(SimTime(1_000), 99);
        assert_eq!(
            allreduce_on_ib4(&plan).unwrap_err(),
            ExecError::FaultTargetMissing {
                target: FaultTarget::NodeRdma(99)
            }
        );
    }

    #[test]
    fn nic_death_falls_back_to_tcp_and_completes() {
        use holmes_netsim::SimTime;
        let topo = topo2();
        let key = MsgKey {
            from: Rank(0),
            to: Rank(8),
            channel: Channel::Activation,
            microbatch: 0,
            chunk: 0,
        };
        // ~1 s of RDMA traffic; the sender's NIC dies at 0.2 s and never
        // recovers. The timeout machinery must detect the parked flow,
        // declare the NIC lost and complete the transfer over Ethernet.
        let spec = ExecutionSpec {
            programs: vec![
                (
                    Rank(0),
                    vec![Op::Send {
                        key,
                        bytes: 23_000_000_000,
                    }],
                ),
                (Rank(8), vec![Op::Recv { key }]),
            ],
            collectives: vec![],
            transport: TransportPolicy::Auto,
        };
        let mut plan = FaultPlan::none();
        plan.kill_nic(SimTime(200_000_000), 0);
        let r = execute_with_faults(&topo, spec, &plan).unwrap();
        assert!(r.flow_retries >= 1, "parked flow must be retried");
        assert!(r.tcp_fallback_flows >= 1, "retry must fall back to TCP");
        assert!(
            r.degraded_conditions
                .iter()
                .any(|c| matches!(c, DegradedCondition::LostNic { node: 0, .. })),
            "{:?}",
            r.degraded_conditions
        );
        // Ethernet is ~10x slower than one IB port; the transfer still
        // lands, late.
        assert!(r.total_seconds > 1.0, "{}", r.total_seconds);
        // Traffic after the fallback is on Ethernet.
        assert!(r.node_link_usage[0].eth_bytes > 0.0);
    }

    #[test]
    fn permanent_eth_and_rdma_death_is_unrecoverable() {
        use holmes_netsim::SimTime;
        let topo = topo2();
        let key = MsgKey {
            from: Rank(0),
            to: Rank(8),
            channel: Channel::Activation,
            microbatch: 0,
            chunk: 0,
        };
        let spec = ExecutionSpec {
            programs: vec![
                (
                    Rank(0),
                    vec![Op::Send {
                        key,
                        bytes: 23_000_000_000,
                    }],
                ),
                (Rank(8), vec![Op::Recv { key }]),
            ],
            collectives: vec![],
            transport: TransportPolicy::Auto,
        };
        let mut plan = FaultPlan::none();
        plan.kill_nic(SimTime(100_000_000), 0);
        plan.push(
            SimTime(100_000_000),
            FaultTarget::NodeEth(0),
            holmes_netsim::LinkHealth::Down,
        );
        match execute_with_faults(&topo, spec, &plan) {
            Err(ExecError::Unrecoverable { from, to, attempts }) => {
                assert_eq!(from, Rank(0));
                assert_eq!(to, Rank(8));
                assert!(attempts >= 2);
            }
            other => panic!("expected Unrecoverable, got {other:?}"),
        }
    }

    #[test]
    fn link_flap_recovers_without_fallback() {
        use holmes_netsim::SimTime;
        let topo = topo2();
        let key = MsgKey {
            from: Rank(0),
            to: Rank(8),
            channel: Channel::Activation,
            microbatch: 0,
            chunk: 0,
        };
        let spec = ExecutionSpec {
            programs: vec![
                (
                    Rank(0),
                    vec![Op::Send {
                        key,
                        bytes: 23_000_000_000,
                    }],
                ),
                (Rank(8), vec![Op::Recv { key }]),
            ],
            collectives: vec![],
            transport: TransportPolicy::Auto,
        };
        // Ethernet flaps down and back up while unused; RDMA stays
        // healthy, so the run completes with no retries at ~1 s.
        let mut plan = FaultPlan::none();
        plan.push(
            SimTime(100_000_000),
            FaultTarget::NodeEth(1),
            holmes_netsim::LinkHealth::Down,
        );
        plan.push(
            SimTime(300_000_000),
            FaultTarget::NodeEth(1),
            holmes_netsim::LinkHealth::Healthy,
        );
        let r = execute_with_faults(&topo, spec, &plan).unwrap();
        assert!((r.total_seconds - 1.0).abs() < 0.05, "{}", r.total_seconds);
        assert_eq!(r.tcp_fallback_flows, 0);
        assert_eq!(r.fault_windows.len(), 2, "{:?}", r.fault_windows);
        assert!(r.fault_windows.iter().all(|w| {
            (w.start_seconds - 0.1).abs() < 1e-6 && (w.end_seconds - 0.3).abs() < 1e-6
        }));
    }

    #[test]
    fn stragglers_slow_their_device_and_are_reported() {
        let topo = topo2();
        let build = || ExecutionSpec {
            programs: vec![(Rank(0), vec![fwd(0, 0.5)]), (Rank(1), vec![fwd(0, 0.5)])],
            collectives: vec![],
            transport: TransportPolicy::Auto,
        };
        let mut plan = FaultPlan::none();
        plan.straggler(Rank(1), 3.0);
        let r = execute_with_faults(&topo, build(), &plan).unwrap();
        assert!((r.device_finish_seconds[0] - 0.5).abs() < 1e-9);
        assert!((r.device_finish_seconds[1] - 1.5).abs() < 1e-9);
        assert!(matches!(
            r.degraded_conditions[0],
            DegradedCondition::Straggler { rank: Rank(1), .. }
        ));
    }

    /// Two 0.5 s forwards on two IB nodes' first devices, r1 straggling
    /// by `slowdown` (or `rank` straggling instead).
    fn straggler_probe(rank: Rank, slowdown: f64) -> Result<IterationReport, ExecError> {
        let spec = ExecutionSpec {
            programs: vec![(Rank(0), vec![fwd(0, 0.5)]), (Rank(1), vec![fwd(0, 0.5)])],
            collectives: vec![],
            transport: TransportPolicy::Auto,
        };
        let mut plan = FaultPlan::none();
        plan.straggler(rank, slowdown);
        execute_with_faults(&topo2(), spec, &plan)
    }

    #[test]
    fn an_infinite_slowdown_is_a_typed_error() {
        assert!(matches!(
            straggler_probe(Rank(1), f64::INFINITY),
            Err(ExecError::BadStraggler { rank: Rank(1), slowdown }) if slowdown == f64::INFINITY
        ));
    }

    #[test]
    fn a_nan_slowdown_is_a_typed_error() {
        assert!(matches!(
            straggler_probe(Rank(1), f64::NAN),
            Err(ExecError::BadStraggler { rank: Rank(1), slowdown }) if slowdown.is_nan()
        ));
    }

    #[test]
    fn a_negative_slowdown_is_a_typed_error() {
        assert_eq!(
            straggler_probe(Rank(1), -2.0).unwrap_err(),
            ExecError::BadStraggler {
                rank: Rank(1),
                slowdown: -2.0
            }
        );
    }

    #[test]
    fn a_straggler_outside_the_topology_is_a_typed_error() {
        assert_eq!(
            straggler_probe(Rank(999), 2.0).unwrap_err(),
            ExecError::BadStraggler {
                rank: Rank(999),
                slowdown: 2.0
            }
        );
    }

    #[test]
    fn a_collective_listing_a_member_twice_is_a_typed_error() {
        // r0 and r1 each start and wait on a collective listing r1 twice:
        // it would wait for a third arrival that never comes.
        let topo = presets::hybrid_two_cluster(2);
        let coll = vec![Op::CollStart { id: 0 }, Op::CollWait { id: 0 }];
        let spec = ExecutionSpec {
            programs: vec![(Rank(0), coll.clone()), (Rank(1), coll)],
            collectives: vec![CollectiveSpec::new(
                CollKind::AllReduce,
                vec![Rank(0), Rank(1), Rank(1)],
                1 << 20,
            )],
            transport: TransportPolicy::Auto,
        };
        let defect = SpecError::DuplicateMember {
            id: 0,
            device: Rank(1),
        };
        assert_eq!(crate::validate_spec(&spec), std::slice::from_ref(&defect));
        assert_eq!(
            execute(&topo, spec).unwrap_err(),
            ExecError::InvalidSpec(defect)
        );
    }

    #[test]
    fn duplicate_device_programs_rejected() {
        let topo = topo2();
        let r = execute(
            &topo,
            ExecutionSpec {
                programs: vec![(Rank(0), vec![]), (Rank(0), vec![])],
                collectives: vec![],
                transport: TransportPolicy::Auto,
            },
        );
        assert_eq!(
            r.unwrap_err(),
            ExecError::DuplicateProgram { device: Rank(0) }
        );
    }

    #[test]
    fn empty_collective_is_a_typed_error() {
        let topo = topo2();
        let r = execute(
            &topo,
            ExecutionSpec {
                programs: vec![(Rank(0), vec![])],
                collectives: vec![CollectiveSpec::new(CollKind::AllReduce, vec![], 1 << 20)],
                transport: TransportPolicy::Auto,
            },
        );
        assert_eq!(r.unwrap_err(), ExecError::EmptyCollective { id: 0 });
    }

    #[test]
    fn ranks_outside_the_topology_are_typed_errors() {
        let topo = topo2();
        let devices = topo.device_count();
        let outside = Rank(devices);
        let run = |programs: Vec<(Rank, Vec<Op>)>, collectives| {
            execute(
                &topo,
                ExecutionSpec {
                    programs,
                    collectives,
                    transport: TransportPolicy::Auto,
                },
            )
            .unwrap_err()
        };
        let want = ExecError::RankOutsideTopology {
            rank: outside,
            devices,
        };
        // A program on a device past the last one.
        assert_eq!(run(vec![(outside, vec![])], vec![]), want);
        // A send to one.
        let key = MsgKey {
            from: Rank(0),
            to: outside,
            channel: Channel::Activation,
            microbatch: 0,
            chunk: 0,
        };
        let send = Op::Send { key, bytes: 1 };
        assert_eq!(run(vec![(Rank(0), vec![send])], vec![]), want);
        // A collective member.
        let coll = CollectiveSpec::new(CollKind::AllReduce, vec![Rank(0), outside], 1 << 20);
        assert_eq!(run(vec![(Rank(0), vec![])], vec![coll]), want);
    }

    #[test]
    fn unknown_collectives_and_twice_posted_keys_are_typed_errors() {
        let topo = topo2();
        let run = |programs: Vec<(Rank, Vec<Op>)>, collectives| {
            execute(
                &topo,
                ExecutionSpec {
                    programs,
                    collectives,
                    transport: TransportPolicy::Auto,
                },
            )
            .unwrap_err()
        };
        // A start or a wait past the last collective.
        let want = ExecError::InvalidSpec(SpecError::UnknownCollective(3));
        assert_eq!(
            run(vec![(Rank(0), vec![Op::CollStart { id: 3 }])], vec![]),
            want
        );
        let coll = CollectiveSpec::new(CollKind::AllReduce, vec![Rank(0), Rank(8)], 1 << 20);
        let wait = vec![(Rank(0), vec![Op::CollWait { id: 3 }])];
        assert_eq!(run(wait, vec![coll]), want);
        // One key sent twice, or received twice.
        let key = MsgKey {
            from: Rank(0),
            to: Rank(8),
            channel: Channel::Activation,
            microbatch: 2,
            chunk: 0,
        };
        let send = Op::Send { key, bytes: 1 };
        let recv = Op::Recv { key };
        let want = ExecError::InvalidSpec(SpecError::DuplicateKey(key));
        let twice_sent = vec![(Rank(0), vec![send, send]), (Rank(8), vec![recv])];
        assert_eq!(run(twice_sent, vec![]), want);
        let twice_received = vec![(Rank(8), vec![recv, recv]), (Rank(0), vec![send])];
        assert_eq!(run(twice_received, vec![]), want);
    }

    #[test]
    fn structural_defects_are_refused_in_every_profile() {
        // Each spec must be refused before any flow starts, in both build
        // profiles: replayed, they return a wrong `Ok` (a start by a
        // non-member or a second start counts as another member's arrival)
        // or a deadlock found only after simulating.
        let topo = presets::hybrid_two_cluster(2);
        let (r0, r1, r9) = (Rank(0), Rank(1), Rank(9));
        let key = MsgKey {
            from: r0,
            to: r1,
            channel: Channel::Activation,
            microbatch: 0,
            chunk: 0,
        };
        let (start, wait) = (Op::CollStart { id: 0 }, Op::CollWait { id: 0 });
        let late = compute(ComputeLabel::Optimizer, 0.5);
        let cases = [
            (
                vec![
                    (r9, vec![Op::Send { key, bytes: 8 }]),
                    (r1, vec![Op::Recv { key }]),
                ],
                SpecError::MisroutedOp(key),
            ),
            (
                vec![
                    (r9, vec![start]),
                    (r0, vec![start, wait]),
                    (r1, vec![late, start, wait]),
                ],
                SpecError::NotACollectiveMember { id: 0, device: r9 },
            ),
            (
                vec![(r0, vec![start, wait]), (r1, vec![late])],
                SpecError::MissingCollStart { id: 0, device: r1 },
            ),
            (
                vec![(r0, vec![wait, start]), (r1, vec![start, wait])],
                SpecError::WaitBeforeStart { id: 0, device: r0 },
            ),
            (
                vec![
                    (r0, vec![start, start, wait]),
                    (r1, vec![late, start, wait]),
                ],
                SpecError::RepeatedCollStart { id: 0, device: r0 },
            ),
            (
                vec![
                    (r0, vec![start, start, wait]),
                    (r1, vec![late, start, start, wait]),
                ],
                SpecError::RepeatedCollStart { id: 0, device: r0 },
            ),
        ];
        for (programs, defect) in cases {
            let spec = ExecutionSpec {
                programs,
                collectives: vec![CollectiveSpec::new(
                    CollKind::AllReduce,
                    vec![r0, r1],
                    1 << 20,
                )],
                transport: TransportPolicy::Auto,
            };
            assert!(crate::validate_spec(&spec).contains(&defect), "{defect}");
            assert_eq!(
                execute(&topo, spec).unwrap_err(),
                ExecError::InvalidSpec(defect)
            );
        }
    }
}

#[cfg(test)]
mod link_usage_tests {
    use super::*;
    use crate::ops::Channel;
    use holmes_topology::{presets, NicType};

    #[test]
    fn rdma_traffic_is_attributed_to_rdma_links() {
        let topo = presets::homogeneous(NicType::InfiniBand, 2);
        let key = MsgKey {
            from: Rank(0),
            to: Rank(8),
            channel: Channel::Activation,
            microbatch: 0,
            chunk: 0,
        };
        let bytes = 1_000_000_000u64;
        let spec = ExecutionSpec {
            programs: vec![
                (Rank(0), vec![Op::Send { key, bytes }]),
                (Rank(8), vec![Op::Recv { key }]),
            ],
            collectives: vec![],
            transport: TransportPolicy::Auto,
        };
        let report = execute(&topo, spec).unwrap();
        assert_eq!(report.node_link_usage.len(), 2);
        // Node 0 uplink + node 1 downlink each saw the payload.
        let n0 = report.node_link_usage[0];
        let n1 = report.node_link_usage[1];
        assert!(
            (n0.rdma_bytes - bytes as f64).abs() / (bytes as f64) < 0.01,
            "{n0:?}"
        );
        assert!(
            (n1.rdma_bytes - bytes as f64).abs() / (bytes as f64) < 0.01,
            "{n1:?}"
        );
        assert_eq!(n0.eth_bytes, 0.0);
        assert!(n0.rdma_utilization > 0.0 && n0.rdma_utilization <= 1.0);
    }

    #[test]
    fn forced_tcp_traffic_lands_on_ethernet_links() {
        let topo = presets::homogeneous(NicType::InfiniBand, 2);
        let key = MsgKey {
            from: Rank(0),
            to: Rank(8),
            channel: Channel::Activation,
            microbatch: 0,
            chunk: 0,
        };
        let spec = ExecutionSpec {
            programs: vec![
                (
                    Rank(0),
                    vec![Op::Send {
                        key,
                        bytes: 100_000_000,
                    }],
                ),
                (Rank(8), vec![Op::Recv { key }]),
            ],
            collectives: vec![],
            transport: TransportPolicy::ForceTcpInterNode,
        };
        let report = execute(&topo, spec).unwrap();
        assert_eq!(report.node_link_usage[0].rdma_bytes, 0.0);
        assert!(report.node_link_usage[0].eth_bytes > 9e7);
    }

    #[test]
    fn simultaneous_churn_emits_a_deterministically_ordered_error() {
        use holmes_netsim::{SimDuration, SimTime};
        // Ring all-reduce over both nodes: member loss is intolerable, so
        // the first churn event to land surfaces as the error. Two losses
        // at the *same instant*, inserted high-node-first: the event queue
        // breaks the time tie by insertion order, so node 1 is the pinned
        // casualty on every run — the churn variants inherit the same
        // deterministic-ordering contract the spec validator pins for its
        // BTreeMap-sorted defect list.
        let topo = presets::homogeneous(NicType::InfiniBand, 2);
        let devices: Vec<Rank> = (0..16).map(Rank).collect();
        let build = || ExecutionSpec {
            programs: devices
                .iter()
                .map(|&d| (d, vec![Op::CollStart { id: 0 }, Op::CollWait { id: 0 }]))
                .collect(),
            collectives: vec![CollectiveSpec::new(
                CollKind::AllReduce,
                devices.clone(),
                1 << 28,
            )],
            transport: TransportPolicy::Auto,
        };
        let at = SimTime::ZERO + SimDuration::from_secs_f64(0.01);
        let mut plan = FaultPlan::none();
        plan.preempt_node(at, 1).preempt_node(at, 0);
        let first = execute_with_faults(&topo, build(), &plan).unwrap_err();
        assert!(
            matches!(first, ExecError::NodeLost { node: 1, .. }),
            "{first:?}"
        );
        for _ in 0..4 {
            assert_eq!(
                execute_with_faults(&topo, build(), &plan).unwrap_err(),
                first
            );
        }
        // An announced departure at the head of the queue surfaces as the
        // drain variant instead, same insertion-order pin.
        let mut drains = FaultPlan::none();
        drains.drain_node(at, 1).preempt_node(at, 0);
        let err = execute_with_faults(&topo, build(), &drains).unwrap_err();
        assert!(
            matches!(err, ExecError::NodeDraining { node: 1, .. }),
            "{err:?}"
        );
    }
}
