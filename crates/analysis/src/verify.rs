//! Static artifact verifier for generated schedules and plans.
//!
//! Everything Holmes *generates* — [`CollSchedule`] IRs, pipeline
//! partitions (paper Eq. 2), NIC-homogeneous DP groups (paper §3.2) — can
//! be checked structurally before a single simulated flow is launched.
//! The checks here are pure functions over the artifacts plus the
//! [`Topology`] they will run on; the mutation tests exercise every error
//! variant, and the workspace property suite uses them as an oracle for
//! every schedule and plan the stack can produce (every collective the
//! builder emits, every input the executor accepts).
//!
//! Invariants checked per collective schedule:
//!
//! * **byte conservation** — the schedule moves *exactly* the closed-form
//!   byte count of its algorithm (same integer truncation as the IR
//!   constructors), so no shard is dropped or duplicated;
//! * **rank coverage** — every member of a non-degenerate group both
//!   sends and receives (a silent non-participant means its shard never
//!   circulates);
//! * **no self-transfers** and **no empty rounds** (the executor turns
//!   each round into a barrier; an empty round would never complete);
//! * **deadlock freedom** — the transfer dependency order induced by the
//!   round barriers forms a DAG;
//! * **link existence** — every transfer maps to a real link of the
//!   topology the schedule will be replayed on;
//! * **shape** — the schedule matches the canonical IR constructor for
//!   its `CollKind` round by round (order within a round is immaterial:
//!   transfers of one round move concurrently).
//!
//! Elastic re-plans get their own layer ([`verify_replan`] /
//! [`verify_migration`]): the post-churn placement must still be a
//! device bijection, its NIC classification must hold on the post-churn
//! topology, and every migrated shard must ride a real, fabric-priced
//! transfer path (or an explicitly billed checkpoint restore).

use std::collections::BTreeSet;

use holmes_netsim::algo::{partition_by_cluster, CollKind, CollSchedule, Transfer};
use holmes_parallel::{
    DeltaReplanOutcome, DpCollectiveAlgo, DpGroupNic, MigrationPlan, ParallelPlan, StageProfile,
};
use holmes_topology::{Rank, Topology};

/// A structural defect in a generated artifact. Each variant names the
/// invariant it violates; the mutation suite proves every variant is
/// reachable and specific.
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyError {
    /// A round with no transfers: the executor's round barrier would wait
    /// forever on nothing.
    EmptyRound {
        /// Round index.
        round: usize,
    },
    /// A transfer whose sender equals its receiver.
    SelfTransfer {
        /// Round index.
        round: usize,
        /// The rank talking to itself.
        rank: Rank,
    },
    /// A transfer endpoint outside the topology.
    UnknownRank {
        /// Round index.
        round: usize,
        /// The out-of-range rank.
        rank: Rank,
    },
    /// A transfer between ranks with no link in the topology.
    MissingLink {
        /// Round index.
        round: usize,
        /// Sender.
        from: Rank,
        /// Receiver.
        to: Rank,
    },
    /// A transfer endpoint that is not a member of the collective group.
    ForeignRank {
        /// Round index.
        round: usize,
        /// The non-member rank.
        rank: Rank,
    },
    /// A rank listed twice in the member set.
    DuplicateMember {
        /// The repeated rank.
        rank: Rank,
    },
    /// A member of a non-degenerate group that never sends.
    MemberNeverSends {
        /// The silent member.
        rank: Rank,
    },
    /// A member of a non-degenerate group that never receives.
    MemberNeverReceives {
        /// The deaf member.
        rank: Rank,
    },
    /// The schedule's total bytes differ from the algorithm's closed form.
    ByteCountMismatch {
        /// Closed-form total for this kind/group/volume.
        expected: u64,
        /// What the schedule actually moves.
        actual: u64,
    },
    /// The schedule's round count differs from the algorithm's closed form.
    RoundCountMismatch {
        /// Closed-form round count.
        expected: u32,
        /// What the schedule actually has.
        actual: u32,
    },
    /// The barrier-induced dependency order over transfers is not a DAG.
    CyclicDependency,
    /// A round whose transfer multiset differs from the canonical IR
    /// constructor's round at the same index.
    ShapeMismatch {
        /// Round index (or the first divergent index).
        round: usize,
    },
    /// A physical device appears in more than one logical slot of a
    /// plan's assignment.
    DuplicateDevice {
        /// The repeated device.
        device: Rank,
    },
    /// A plan references a device outside the topology.
    DeviceOutOfRange {
        /// The out-of-range device.
        device: Rank,
    },
    /// The assignment covers a different number of devices than the
    /// degrees demand.
    AssignmentSizeMismatch {
        /// `t·p·d` from the layout degrees.
        expected: u32,
        /// The assignment's length.
        actual: u32,
    },
    /// `stage_layers.len()` differs from the pipeline degree.
    StageCountMismatch {
        /// Pipeline degree.
        expected: u32,
        /// Stages in the partition.
        actual: u32,
    },
    /// The stage layer counts do not sum to the model's layer total.
    LayerSumMismatch {
        /// Model layer count.
        expected: u32,
        /// Sum over stages.
        actual: u32,
    },
    /// A stage with zero layers although the model has at least one layer
    /// per stage available.
    EmptyStage {
        /// Stage index.
        stage: u32,
    },
    /// Eq. 2 monotonicity violated: a strictly faster stage got fewer
    /// layers than a strictly slower one.
    NonMonotoneStages {
        /// Index of the faster stage (fewer layers — wrong).
        fast: u32,
        /// Index of the slower stage (more layers — wrong).
        slow: u32,
    },
    /// A DP group claims end-to-end RDMA (`rdma_nic = Some`) but its
    /// members do not share one RDMA NIC technology in one switched
    /// cluster (paper §3.2), or claims `RingRdma` without naming a NIC.
    DpGroupNotHomogeneous {
        /// Group index.
        group: u32,
    },
    /// A DP group straddles clusters without being flagged for it: its
    /// algorithm is neither the hierarchical two-level all-reduce nor an
    /// explicit TCP/Ethernet fallback.
    DpGroupSpansClustersUnflagged {
        /// Group index.
        group: u32,
    },
    /// A migration move endpoint that does not exist in the post-churn
    /// topology — its shard would be copied from or to a dead rank.
    MigrationRankUnknown {
        /// Index into `MigrationPlan::moves`.
        index: usize,
        /// The out-of-range rank.
        rank: Rank,
    },
    /// A migration move whose source equals its destination.
    MigrationSelfMove {
        /// Index into `MigrationPlan::moves`.
        index: usize,
        /// The rank copying state to itself.
        rank: Rank,
    },
    /// Two migration moves writing state onto the same destination rank;
    /// each post-churn rank needs exactly one shard copy.
    MigrationDuplicateDestination {
        /// The doubly-written rank.
        rank: Rank,
    },
    /// Migration moves exist but the fabric-simulated transfer time is
    /// not positive: the shard copies were never actually priced on the
    /// post-churn fabric.
    MigrationUnpriced {
        /// Number of moves claiming to be free.
        moves: usize,
    },
    /// Checkpoint-restore bookkeeping and pricing disagree: groups are
    /// flagged for restore with zero billed time, or restore time is
    /// billed with no group restored.
    MigrationRestoreMismatch {
        /// Groups flagged for checkpoint restore.
        restored: usize,
        /// The restore seconds billed.
        seconds: f64,
    },
    /// The wait-for graph over round barriers (plus any injected wait
    /// edges) has a cycle: the executor would deadlock.
    ProgressWaitCycle {
        /// Collective index within the checked spec.
        collective: usize,
        /// A round on the detected cycle.
        round: usize,
    },
    /// A flow retries forever against a route with no live alternative:
    /// the retry loop has no fuel bound, so the executor livelocks.
    ProgressUnboundedRetry {
        /// Collective index within the checked spec.
        collective: usize,
        /// Round of the undeliverable transfer.
        round: usize,
        /// Sender of the undeliverable transfer.
        from: Rank,
        /// Receiver of the undeliverable transfer.
        to: Rank,
    },
    /// A `CollKind` claims to survive member loss but the symbolic
    /// contribution-set run refutes it (or vice versa, when checked
    /// bidirectionally): the claim the executor's churn gate trusts is
    /// unsound.
    MemberLossClaimMismatch {
        /// Collective index within the checked spec.
        collective: usize,
        /// The `survives_member_loss` claim.
        claimed: bool,
        /// The tolerance derived from the symbolic run.
        derived: bool,
    },
    /// A migration `StateMove` whose endpoints have no usable route on
    /// the post-churn fabric (no link, or a link with no finite positive
    /// bandwidth): the shard copy could never execute.
    StateMoveUnroutable {
        /// Index into `MigrationPlan::moves`.
        index: usize,
        /// Source rank of the unexecutable move.
        from: Rank,
        /// Destination rank of the unexecutable move.
        to: Rank,
    },
    /// Flows parked on a dead link with no retry policy armed: the
    /// round barrier hangs forever instead of failing fast.
    ProgressStall {
        /// Collective index within the checked spec.
        collective: usize,
        /// Round whose barrier hangs.
        round: usize,
        /// Number of parked transfers.
        parked: usize,
    },
    /// A straggler-aware partition over non-uniform per-stage rates whose
    /// layer counts do not sum to the model's total — layers were dropped
    /// or invented while balancing heterogeneous stage speeds.
    HeteroPartitionSumMismatch {
        /// Model layer count.
        expected: u32,
        /// Sum over stages.
        actual: u32,
    },
    /// A stage assigned more state than its *smallest* member can hold:
    /// on a mixed-generation stage the weakest device binds, and the
    /// partition placed layers past its capacity.
    StageOverMemberCapacity {
        /// Stage index.
        stage: u32,
        /// Bytes the stage's assignment needs.
        needed_bytes: u64,
        /// The stage's smallest member capacity.
        capacity_bytes: u64,
    },
    /// Skew-monotonicity violated: the partition's unique bottleneck
    /// stage could shed one layer to a stage whose post-move finish time
    /// stays strictly below the bottleneck — the partition is not locally
    /// optimal under the heterogeneous completion-time objective.
    BottleneckReducible {
        /// The unique bottleneck stage (≥ 2 layers).
        stage: u32,
        /// A stage that could absorb one of its layers strictly under
        /// the bottleneck.
        better: u32,
    },
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::EmptyRound { round } => write!(f, "round {round} has no transfers"),
            VerifyError::SelfTransfer { round, rank } => {
                write!(f, "round {round}: {rank} transfers to itself")
            }
            VerifyError::UnknownRank { round, rank } => {
                write!(f, "round {round}: {rank} is not in the topology")
            }
            VerifyError::MissingLink { round, from, to } => {
                write!(f, "round {round}: no topology link {from} -> {to}")
            }
            VerifyError::ForeignRank { round, rank } => {
                write!(f, "round {round}: {rank} is not a group member")
            }
            VerifyError::DuplicateMember { rank } => {
                write!(f, "{rank} appears twice in the member set")
            }
            VerifyError::MemberNeverSends { rank } => {
                write!(f, "member {rank} never sends — its shard cannot circulate")
            }
            VerifyError::MemberNeverReceives { rank } => {
                write!(
                    f,
                    "member {rank} never receives — it cannot obtain the result"
                )
            }
            VerifyError::ByteCountMismatch { expected, actual } => {
                write!(
                    f,
                    "schedule moves {actual} bytes, closed form says {expected}"
                )
            }
            VerifyError::RoundCountMismatch { expected, actual } => {
                write!(
                    f,
                    "schedule has {actual} rounds, closed form says {expected}"
                )
            }
            VerifyError::CyclicDependency => {
                write!(f, "transfer dependency order is not a DAG")
            }
            VerifyError::ShapeMismatch { round } => {
                write!(
                    f,
                    "round {round} diverges from the canonical IR constructor"
                )
            }
            VerifyError::DuplicateDevice { device } => {
                write!(f, "device {device} assigned to more than one logical rank")
            }
            VerifyError::DeviceOutOfRange { device } => {
                write!(f, "device {device} is outside the topology")
            }
            VerifyError::AssignmentSizeMismatch { expected, actual } => {
                write!(
                    f,
                    "assignment covers {actual} devices, degrees demand {expected}"
                )
            }
            VerifyError::StageCountMismatch { expected, actual } => {
                write!(
                    f,
                    "partition has {actual} stages, pipeline degree is {expected}"
                )
            }
            VerifyError::LayerSumMismatch { expected, actual } => {
                write!(f, "stage layers sum to {actual}, model has {expected}")
            }
            VerifyError::EmptyStage { stage } => {
                write!(f, "stage {stage} received zero layers")
            }
            VerifyError::NonMonotoneStages { fast, slow } => {
                write!(
                    f,
                    "stage {fast} is faster than stage {slow} but got fewer layers (Eq. 2)"
                )
            }
            VerifyError::DpGroupNotHomogeneous { group } => {
                write!(
                    f,
                    "DP group {group} claims RDMA but is not NIC-homogeneous (§3.2)"
                )
            }
            VerifyError::DpGroupSpansClustersUnflagged { group } => {
                write!(
                    f,
                    "DP group {group} spans clusters without hierarchical/TCP flagging (§3.2)"
                )
            }
            VerifyError::MigrationRankUnknown { index, rank } => {
                write!(
                    f,
                    "migration move {index}: {rank} is not in the post-churn topology"
                )
            }
            VerifyError::MigrationSelfMove { index, rank } => {
                write!(f, "migration move {index}: {rank} copies state to itself")
            }
            VerifyError::MigrationDuplicateDestination { rank } => {
                write!(f, "migration writes two shards onto destination {rank}")
            }
            VerifyError::MigrationUnpriced { moves } => {
                write!(
                    f,
                    "{moves} migration moves with no positive fabric-priced transfer time"
                )
            }
            VerifyError::MigrationRestoreMismatch { restored, seconds } => {
                write!(
                    f,
                    "{restored} groups flagged for checkpoint restore but {seconds} s billed"
                )
            }
            VerifyError::ProgressWaitCycle { collective, round } => {
                write!(
                    f,
                    "collective {collective}: wait-for cycle through round {round}"
                )
            }
            VerifyError::ProgressUnboundedRetry {
                collective,
                round,
                from,
                to,
            } => {
                write!(
                    f,
                    "collective {collective} round {round}: {from} -> {to} retries with no fuel bound"
                )
            }
            VerifyError::MemberLossClaimMismatch {
                collective,
                claimed,
                derived,
            } => {
                write!(
                    f,
                    "collective {collective}: claims survives_member_loss={claimed} but symbolic run derives {derived}"
                )
            }
            VerifyError::StateMoveUnroutable { index, from, to } => {
                write!(
                    f,
                    "state move {index}: no usable route {from} -> {to} on the post-churn fabric"
                )
            }
            VerifyError::ProgressStall {
                collective,
                round,
                parked,
            } => {
                write!(
                    f,
                    "collective {collective} round {round}: {parked} transfers parked with no retry policy"
                )
            }
            VerifyError::HeteroPartitionSumMismatch { expected, actual } => {
                write!(
                    f,
                    "hetero partition sums to {actual} layers, model has {expected}"
                )
            }
            VerifyError::StageOverMemberCapacity {
                stage,
                needed_bytes,
                capacity_bytes,
            } => {
                write!(
                    f,
                    "stage {stage} needs {needed_bytes} bytes but its smallest member holds {capacity_bytes}"
                )
            }
            VerifyError::BottleneckReducible { stage, better } => {
                write!(
                    f,
                    "bottleneck stage {stage} could shed a layer to stage {better} and still finish sooner"
                )
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// Closed-form totals for one collective: `(total_bytes, round_count)`.
///
/// `group_sizes` is the per-cluster member partition — `[n]` for the flat
/// algorithms. Uses the same integer truncation as the IR constructors
/// (`⌊V/n⌋`-byte chunks), so a conforming schedule matches *exactly*:
///
/// * ring RS/AG: `(n−1)·n·⌊V/n⌋` over `n−1` rounds;
/// * ring AR: `2(n−1)·n·⌊V/n⌋` over `2(n−1)` rounds;
/// * broadcast: `(n−1)·n·⌊V/(n−1)⌋` over `n−1` rounds;
/// * tree AR: `2(n−1)·V` over `2·⌊log₂n⌋` rounds;
/// * hierarchical AR: `2·Σ_c n_c(n_c−1)·⌊V/n_c⌋` intra plus
///   `2(k−1)·s_max·k·⌊V/(s_max·k)⌋` inter, over
///   `2(s_max−1) + 2(k−1)` rounds.
pub fn expected_totals(kind: CollKind, group_sizes: &[u64], bytes: u64) -> (u64, u32) {
    let n: u64 = group_sizes.iter().sum();
    if n <= 1 {
        return (0, 0);
    }
    match kind {
        CollKind::ReduceScatter | CollKind::AllGather => ((n - 1) * n * (bytes / n), n as u32 - 1),
        CollKind::AllReduce => (2 * (n - 1) * n * (bytes / n), 2 * (n as u32 - 1)),
        CollKind::Broadcast => ((n - 1) * n * (bytes / (n - 1)), n as u32 - 1),
        CollKind::TreeAllReduce => {
            let depth = holmes_netsim::algo::tree_depth(n as u32);
            (2 * (n - 1) * bytes, 2 * depth)
        }
        CollKind::HierarchicalAllReduce => {
            let sizes: Vec<u64> = group_sizes.iter().copied().filter(|&s| s > 0).collect();
            let k = sizes.len() as u64;
            if k <= 1 {
                return expected_totals(CollKind::AllReduce, &[n], bytes);
            }
            let s_max = sizes.iter().copied().max().unwrap_or(0);
            let intra: u64 = sizes.iter().map(|&nc| nc * (nc - 1) * (bytes / nc)).sum();
            let inter = 2 * (k - 1) * s_max * k * (bytes / (s_max * k));
            let rounds = 2 * (s_max as u32 - 1) + 2 * (k as u32 - 1);
            (2 * intra + inter, rounds)
        }
        CollKind::PsPush { servers } | CollKind::PsPull { servers } => {
            let s = u64::from(servers.max(1)).min(n);
            (s * (n - 1) * (bytes / s), 1)
        }
    }
}

/// Check generic invariants shared by every collective schedule: member
/// uniqueness, per-round structure (non-empty, no self-transfers, both
/// endpoints are members with a real topology link), full send/receive
/// coverage, and barrier-order acyclicity.
pub fn verify_schedule_structure(
    topo: &Topology,
    devices: &[Rank],
    schedule: &CollSchedule,
) -> Vec<VerifyError> {
    let mut errors = Vec::new();
    let mut members: BTreeSet<Rank> = BTreeSet::new();
    for &d in devices {
        if !members.insert(d) {
            errors.push(VerifyError::DuplicateMember { rank: d });
        }
    }

    let mut senders: BTreeSet<Rank> = BTreeSet::new();
    let mut receivers: BTreeSet<Rank> = BTreeSet::new();
    for (round, r) in schedule.rounds().enumerate() {
        if r.transfers().is_empty() {
            errors.push(VerifyError::EmptyRound { round });
        }
        for t in r.transfers() {
            if t.from == t.to {
                errors.push(VerifyError::SelfTransfer {
                    round,
                    rank: t.from,
                });
            }
            for rank in [t.from, t.to] {
                if topo.coord(rank).is_err() {
                    errors.push(VerifyError::UnknownRank { round, rank });
                } else if !members.contains(&rank) {
                    errors.push(VerifyError::ForeignRank { round, rank });
                }
            }
            if t.from != t.to
                && topo.coord(t.from).is_ok()
                && topo.coord(t.to).is_ok()
                && topo.link_between(t.from, t.to).is_err()
            {
                errors.push(VerifyError::MissingLink {
                    round,
                    from: t.from,
                    to: t.to,
                });
            }
            senders.insert(t.from);
            receivers.insert(t.to);
        }
    }

    // Coverage only binds for non-degenerate groups with a real schedule:
    // every member must both send and receive or its shard never moves.
    if members.len() >= 2 && !schedule.is_empty() {
        for &m in &members {
            if !senders.contains(&m) {
                errors.push(VerifyError::MemberNeverSends { rank: m });
            }
            if !receivers.contains(&m) {
                errors.push(VerifyError::MemberNeverReceives { rank: m });
            }
        }
    }

    if !rounds_form_dag(schedule) {
        errors.push(VerifyError::CyclicDependency);
    }
    errors
}

/// Deadlock freedom: the dependency relation "every transfer of round
/// `r+1` waits on every transfer of round `r`" must admit a topological
/// order. The IR's list-of-rounds encoding makes the edge set layered, so
/// this runs Kahn's algorithm over the layers and can only fail if the
/// encoding itself is broken — but the verifier checks it rather than
/// assuming it, so any future IR extension (cross-round edges, per-rank
/// streams) inherits the check instead of silently skipping it.
fn rounds_form_dag(schedule: &CollSchedule) -> bool {
    // Node = transfer; edges = complete bipartite graph between adjacent
    // rounds. Kahn's algorithm, aggregated per layer: every node of round
    // r shares the in-degree |round r−1|, so one counter per round
    // suffices.
    let sizes: Vec<usize> = schedule.rounds().map(|r| r.transfers().len()).collect();
    let total: usize = sizes.iter().sum();
    let mut indegree: Vec<usize> = (0..sizes.len())
        .map(|r| if r == 0 { 0 } else { sizes[r - 1] })
        .collect();
    let mut frontier: Vec<usize> = (0..sizes.len()).filter(|&r| indegree[r] == 0).collect();
    let mut done = vec![false; sizes.len()];
    let mut visited = 0usize;
    while let Some(r) = frontier.pop() {
        if std::mem::replace(&mut done[r], true) {
            continue;
        }
        visited += sizes[r];
        if r + 1 < sizes.len() {
            indegree[r + 1] -= sizes[r];
            if indegree[r + 1] == 0 {
                frontier.push(r + 1);
            }
        }
    }
    visited == total
}

/// Verify one collective schedule end to end: structural invariants
/// ([`verify_schedule_structure`]), closed-form byte and round totals
/// ([`expected_totals`]), and exact shape against the canonical
/// constructor for `kind` (per-round transfer multisets must match —
/// within-round order is immaterial).
///
/// `devices` is the member set in ring order and `bytes` the collective's
/// buffer volume, exactly as passed to [`CollKind::schedule`]. Returns
/// every defect found; empty means the artifact is sound.
pub fn verify_collective(
    topo: &Topology,
    kind: CollKind,
    devices: &[Rank],
    bytes: u64,
    schedule: &CollSchedule,
) -> Vec<VerifyError> {
    let mut errors = verify_schedule_structure(topo, devices, schedule);

    // Parameter-server emulation is deliberately asymmetric: only the
    // server prefix receives pushes (mirror for pulls), and a sole server
    // has no foreign shard to move in its own direction. Coverage defects
    // matching that expected asymmetry are not defects.
    if let CollKind::PsPush { servers } | CollKind::PsPull { servers } = kind {
        let s = (servers.max(1) as usize).min(devices.len());
        let is_server = |rank: Rank| devices.iter().take(s).any(|&d| d == rank);
        let sole_server = |rank: Rank| s == 1 && devices.first() == Some(&rank);
        errors.retain(|e| match (kind, e) {
            (CollKind::PsPush { .. }, VerifyError::MemberNeverReceives { rank }) => {
                is_server(*rank)
            }
            (CollKind::PsPush { .. }, VerifyError::MemberNeverSends { rank }) => {
                !sole_server(*rank)
            }
            (CollKind::PsPull { .. }, VerifyError::MemberNeverSends { rank }) => is_server(*rank),
            (CollKind::PsPull { .. }, VerifyError::MemberNeverReceives { rank }) => {
                !sole_server(*rank)
            }
            _ => true,
        });
    }

    let cluster_of = |r: Rank| topo.coord(r).map(|c| c.cluster.0).unwrap_or(0);
    let group_sizes: Vec<u64> = if kind == CollKind::HierarchicalAllReduce {
        partition_by_cluster(devices, cluster_of)
            .iter()
            .map(|g| g.len() as u64)
            .collect()
    } else {
        vec![devices.len() as u64]
    };

    let (want_bytes, want_rounds) = expected_totals(kind, &group_sizes, bytes);
    let got_bytes = schedule.total_bytes();
    if got_bytes != want_bytes {
        errors.push(VerifyError::ByteCountMismatch {
            expected: want_bytes,
            actual: got_bytes,
        });
    }
    if schedule.round_count() != want_rounds {
        errors.push(VerifyError::RoundCountMismatch {
            expected: want_rounds,
            actual: schedule.round_count(),
        });
    }

    // Shape: regenerate the canonical schedule and compare per-round
    // transfer multisets. Sorting by (from, to, bytes) gives a canonical
    // order for the comparison without constraining producers.
    let canonical = kind.schedule(devices, bytes, cluster_of);
    for (i, (got, want)) in schedule.rounds().zip(canonical.rounds()).enumerate() {
        if sorted_transfers(got.transfers()) != sorted_transfers(want.transfers()) {
            errors.push(VerifyError::ShapeMismatch { round: i });
        }
    }
    errors
}

fn sorted_transfers(ts: &[Transfer]) -> Vec<(u32, u32, u64)> {
    let mut v: Vec<(u32, u32, u64)> = ts.iter().map(|t| (t.from.0, t.to.0, t.bytes)).collect();
    v.sort_unstable();
    v
}

/// Verify a pipeline partition against Eq. 2's invariants: the stage
/// layer counts must sum to `total_layers`, no stage may be empty when
/// the model has at least one layer per stage, and when per-stage
/// `speeds` are known (aggregate compute capability `S_i` of paper Eq. 2)
/// a strictly faster stage must never hold *fewer* layers than a strictly
/// slower one.
pub fn verify_partition(
    total_layers: u32,
    speeds: Option<&[f64]>,
    stage_layers: &[u32],
) -> Vec<VerifyError> {
    let mut errors = Vec::new();
    let sum: u32 = stage_layers.iter().sum();
    if sum != total_layers {
        errors.push(VerifyError::LayerSumMismatch {
            expected: total_layers,
            actual: sum,
        });
    }
    if total_layers as usize >= stage_layers.len() {
        for (i, &l) in stage_layers.iter().enumerate() {
            if l == 0 {
                errors.push(VerifyError::EmptyStage { stage: i as u32 });
            }
        }
    }
    if let Some(speeds) = speeds {
        if speeds.len() == stage_layers.len() {
            for i in 0..stage_layers.len() {
                for j in 0..stage_layers.len() {
                    if speeds[i] > speeds[j] && stage_layers[i] < stage_layers[j] {
                        errors.push(VerifyError::NonMonotoneStages {
                            fast: i as u32,
                            slow: j as u32,
                        });
                    }
                }
            }
        }
    }
    errors
}

/// Verify a straggler-aware partition over heterogeneous stage profiles:
///
/// * **conservation under non-uniform rates** — the layer counts must sum
///   to `total_layers` ([`VerifyError::HeteroPartitionSumMismatch`]);
/// * **skew-monotone stage times** — when the partition has a *unique*
///   bottleneck stage carrying ≥ 2 layers, no other stage may be able to
///   absorb one of its layers and still finish strictly below the
///   bottleneck ([`VerifyError::BottleneckReducible`]). A partition that
///   trips this is not locally optimal under the completion-time
///   objective `f_i = comm_i + n_i · sec_per_layer_i`, which the greedy
///   straggler-aware partition guarantees by construction.
///
/// With a tied (non-unique) bottleneck or a single-layer bottleneck the
/// local-move check is vacuous: shedding the layer either empties the
/// stage or leaves the tied co-bottleneck standing.
pub fn verify_hetero_partition(
    total_layers: u32,
    stages: &[StageProfile],
    stage_layers: &[u32],
) -> Vec<VerifyError> {
    let mut errors = Vec::new();
    if stages.len() != stage_layers.len() {
        errors.push(VerifyError::StageCountMismatch {
            expected: stages.len() as u32,
            actual: stage_layers.len() as u32,
        });
        return errors;
    }
    let sum: u32 = stage_layers.iter().sum();
    if sum != total_layers {
        errors.push(VerifyError::HeteroPartitionSumMismatch {
            expected: total_layers,
            actual: sum,
        });
    }

    let finish: Vec<f64> = stages
        .iter()
        .zip(stage_layers)
        .map(|(s, &n)| s.comm_seconds + f64::from(n) * s.sec_per_layer)
        .collect();
    let Some(bottleneck) = (0..finish.len()).max_by(|&a, &b| {
        finish[a]
            .total_cmp(&finish[b])
            // Ties resolve to the *lowest* index so uniqueness below is
            // checked against a deterministic representative.
            .then(b.cmp(&a))
    }) else {
        return errors;
    };
    let unique = finish
        .iter()
        .enumerate()
        .all(|(i, t)| i == bottleneck || t.total_cmp(&finish[bottleneck]).is_lt());
    if unique && stage_layers[bottleneck] >= 2 {
        for (j, s) in stages.iter().enumerate() {
            if j == bottleneck {
                continue;
            }
            let absorbed = s.comm_seconds + f64::from(stage_layers[j] + 1) * s.sec_per_layer;
            if absorbed.total_cmp(&finish[bottleneck]).is_lt() {
                errors.push(VerifyError::BottleneckReducible {
                    stage: bottleneck as u32,
                    better: j as u32,
                });
            }
        }
    }
    errors
}

/// Verify per-stage memory fit on a heterogeneous fleet: each entry pairs
/// a stage's `(needed_bytes, capacity_bytes)` where the capacity is that
/// stage's *smallest member* — on a mixed-generation stage the weakest
/// device binds. Any stage whose assignment needs more than its smallest
/// member holds yields [`VerifyError::StageOverMemberCapacity`].
pub fn verify_stage_memory(stage_fit: &[(u64, u64)]) -> Vec<VerifyError> {
    stage_fit
        .iter()
        .enumerate()
        .filter(|&(_, &(needed, capacity))| needed > capacity)
        .map(
            |(stage, &(needed_bytes, capacity_bytes))| VerifyError::StageOverMemberCapacity {
                stage: stage as u32,
                needed_bytes,
                capacity_bytes,
            },
        )
        .collect()
}

/// Verify Automatic NIC Selection classifications (paper §3.2): a group
/// claiming end-to-end RDMA must actually be NIC-homogeneous inside one
/// switched cluster, a group selecting the RDMA ring must name its NIC,
/// and a group spanning clusters must be explicitly flagged for it —
/// hierarchical two-level algorithm or forced-TCP fallback — never a
/// silent flat ring across the trunk.
pub fn verify_dp_groups(topo: &Topology, groups: &[DpGroupNic]) -> Vec<VerifyError> {
    let mut errors = Vec::new();
    for g in groups {
        let homogeneous = homogeneous_rdma(topo, &g.devices);
        match g.rdma_nic {
            Some(nic) if homogeneous != Some(nic) => {
                errors.push(VerifyError::DpGroupNotHomogeneous { group: g.group });
            }
            None if g.algo == DpCollectiveAlgo::RingRdma => {
                errors.push(VerifyError::DpGroupNotHomogeneous { group: g.group });
            }
            _ => {}
        }
        if spans_clusters(topo, &g.devices)
            && g.algo != DpCollectiveAlgo::HierarchicalTwoLevel
            && !g.forced_tcp
        {
            errors.push(VerifyError::DpGroupSpansClustersUnflagged { group: g.group });
        }
    }
    errors
}

/// `Some(nic)` when the devices share one RDMA-capable NIC technology in
/// one switched cluster — the §3.2 precondition for an RDMA DP group.
/// Mirrors the planner's private classifier, independently reimplemented
/// so verifier and planner cannot share a bug.
fn homogeneous_rdma(topo: &Topology, devices: &[Rank]) -> Option<holmes_topology::NicType> {
    let first = devices.first()?;
    let nic = topo.nic_type_of(*first).ok()?;
    if !nic.supports_rdma() {
        return None;
    }
    let cluster = topo.coord(*first).ok()?.cluster;
    if !topo.clusters()[cluster.0 as usize].has_switch {
        return None;
    }
    for r in &devices[1..] {
        if topo.nic_type_of(*r).ok()? != nic || topo.coord(*r).ok()?.cluster != cluster {
            return None;
        }
    }
    Some(nic)
}

fn spans_clusters(topo: &Topology, devices: &[Rank]) -> bool {
    let mut clusters = devices.iter().filter_map(|&r| topo.coord(r).ok());
    match clusters.next() {
        None => false,
        Some(first) => clusters.any(|c| c.cluster != first.cluster),
    }
}

/// Verify a whole [`ParallelPlan`] against the topology it targets:
/// assignment bijection (right size, in-range, no duplicate devices),
/// pipeline partition invariants ([`verify_partition`] — pass the model's
/// layer count and, when known, per-stage speeds), and §3.2 DP-group
/// classification ([`verify_dp_groups`] over the plan's own NIC report).
pub fn verify_plan(
    topo: &Topology,
    plan: &ParallelPlan,
    total_layers: u32,
    stage_speeds: Option<&[f64]>,
) -> Vec<VerifyError> {
    let mut errors = Vec::new();

    let expected = plan.layout.degrees().devices();
    let actual = plan.assignment.len();
    if actual != expected {
        errors.push(VerifyError::AssignmentSizeMismatch { expected, actual });
    }
    let mut seen: BTreeSet<Rank> = BTreeSet::new();
    for logical in 0..actual {
        let device = plan.assignment.device_of(logical);
        if topo.coord(device).is_err() {
            errors.push(VerifyError::DeviceOutOfRange { device });
        }
        if !seen.insert(device) {
            errors.push(VerifyError::DuplicateDevice { device });
        }
    }

    let p = plan.layout.degrees().pipeline;
    if plan.stage_layers.len() as u32 != p {
        errors.push(VerifyError::StageCountMismatch {
            expected: p,
            actual: plan.stage_layers.len() as u32,
        });
    }
    errors.extend(verify_partition(
        total_layers,
        stage_speeds,
        &plan.stage_layers,
    ));

    errors.extend(verify_dp_groups(topo, &plan.nic_report(topo).groups));
    errors
}

/// Verify a state-migration plan against the post-churn topology it will
/// run on: every move's endpoints must be live post-churn ranks, no move
/// may copy a shard onto itself or double-write a destination, a
/// non-empty move set must carry a positive fabric-priced transfer time
/// (the "every migrated shard has a priced transfer path" guarantee of
/// the migration-aware re-plan), and checkpoint-restore bookkeeping must
/// agree with its billed time in both directions.
pub fn verify_migration(topo: &Topology, migration: &MigrationPlan) -> Vec<VerifyError> {
    let mut errors = Vec::new();
    let mut destinations: BTreeSet<Rank> = BTreeSet::new();
    for (index, m) in migration.moves.iter().enumerate() {
        for rank in [m.from, m.to] {
            if topo.coord(rank).is_err() {
                errors.push(VerifyError::MigrationRankUnknown { index, rank });
            }
        }
        if m.from == m.to {
            errors.push(VerifyError::MigrationSelfMove {
                index,
                rank: m.from,
            });
        }
        if !destinations.insert(m.to) {
            errors.push(VerifyError::MigrationDuplicateDestination { rank: m.to });
        }
    }
    if !migration.moves.is_empty() && migration.transfer_seconds <= 0.0 {
        errors.push(VerifyError::MigrationUnpriced {
            moves: migration.moves.len(),
        });
    }
    let restored = migration.restored_groups.len();
    if (restored > 0) != (migration.restore_seconds > 0.0) {
        errors.push(VerifyError::MigrationRestoreMismatch {
            restored,
            seconds: migration.restore_seconds,
        });
    }
    errors
}

/// Verify a migration-aware re-plan ([`DeltaReplanOutcome`]) end to end:
/// the post-churn placement must cover every surviving device exactly
/// once (rank coverage is preserved across the re-shard), its
/// NIC-selection report must satisfy the §3.2 classification invariants
/// on the post-churn topology ([`verify_dp_groups`]), and the state
/// migration must pass [`verify_migration`].
pub fn verify_replan(outcome: &DeltaReplanOutcome) -> Vec<VerifyError> {
    let topo = &outcome.new_topology;
    let mut errors = Vec::new();

    let expected = topo.device_count();
    let actual = outcome.placement.assignment.len();
    if actual != expected {
        errors.push(VerifyError::AssignmentSizeMismatch { expected, actual });
    }
    let mut seen: BTreeSet<Rank> = BTreeSet::new();
    for logical in 0..actual {
        let device = outcome.placement.assignment.device_of(logical);
        if topo.coord(device).is_err() {
            errors.push(VerifyError::DeviceOutOfRange { device });
        }
        if !seen.insert(device) {
            errors.push(VerifyError::DuplicateDevice { device });
        }
    }

    errors.extend(verify_dp_groups(topo, &outcome.report.groups));
    errors.extend(verify_migration(topo, &outcome.migration));
    errors
}
