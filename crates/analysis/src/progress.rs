//! Symbolic progress checker: small-scope model checking over the
//! collective IR and migration artifacts.
//!
//! The structural verifier ([`crate::verify`]) proves a schedule is
//! *well-formed*; this module proves it *makes progress* when the fault
//! and churn machinery (PR 3 link faults, PR 8 node churn) starts firing.
//! It abstractly executes every [`CollSchedule`] round-by-round against an
//! enumerated event space — each single and pairwise combination of link
//! Degraded/Down and node preempt/drain/join, injected at round
//! boundaries — and proves four properties, each with a typed
//! counterexample trace on violation:
//!
//! 1. **deadlock-freedom** — the wait-for graph induced by round barriers,
//!    parked flows, and any injected extra edges is acyclic
//!    ([`VerifyError::ProgressWaitCycle`]);
//! 2. **bounded-retry termination** — every retry loop carries a fuel
//!    argument; an unbounded retry against a route with no live
//!    alternative is a livelock
//!    ([`VerifyError::ProgressUnboundedRetry`]), and a parked flow with
//!    *no* retry policy is a stall ([`VerifyError::ProgressStall`]);
//! 3. **member-loss soundness** — a `CollKind`'s
//!    [`survives_member_loss`](CollKind::survives_member_loss) claim is
//!    *derived* from a contribution-set data flow over the symbolic run,
//!    never trusted ([`VerifyError::MemberLossClaimMismatch`]);
//! 4. **replan reachability** — a churn re-plan's `StateMove`s must be
//!    executable on the post-churn fabric: every move rides a link with
//!    finite positive bandwidth ([`VerifyError::StateMoveUnroutable`]).
//!
//! The abstract domain is deliberately coarse: per-node RDMA/Ethernet
//! link health plus the trunk, a lost-node set, and a TCP-fallback set.
//! Links are netsim's [`FaultTarget`]s, the type the engine's fault
//! plans name, so a concrete fault maps onto the domain unchanged.
//! Timing, backoff, and bandwidth are abstracted away — only *routability*
//! and *fuel* matter for progress. Because round barriers are total
//! (every transfer of round `r+1` waits on all of round `r`), a blocked
//! round models time passing: all future scenario events are applied
//! before the retry outcome is decided, which over-approximates every
//! concrete interleaving of event arrival versus retry timers.
//!
//! Verdicts are three-valued ([`ProgressVerdict`]): `Completes`,
//! `CompletesDegraded` (finished, but only by riding degraded links,
//! retrying, falling back to TCP, or staling lost members), and
//! `FailsFast` (the executor detects the condition and errors out —
//! a *legitimate* outcome, not a checker violation). Violations are the
//! silent ones: stalls, livelocks, wait cycles, unsound claims.

use std::collections::{BTreeMap, BTreeSet};

use holmes_netsim::algo::{CollKind, CollSchedule};
use holmes_netsim::FaultTarget;
use holmes_parallel::{DeltaReplanOutcome, MigrationPlan};
use holmes_topology::{Rank, Topology};

use crate::verify::{verify_replan, VerifyError};

/// One abstract event, drawn from the PR 3 fault and PR 8 churn
/// machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ProgressEvent {
    /// A link drops to degraded service (completes, slowly).
    LinkDegraded {
        /// The affected link.
        link: FaultTarget,
    },
    /// A link goes down entirely (flows on it park).
    LinkDown {
        /// The affected link.
        link: FaultTarget,
    },
    /// A link recovers to healthy.
    LinkUp {
        /// The affected link.
        link: FaultTarget,
    },
    /// A node is preempted (its devices vanish immediately).
    NodePreempt {
        /// Global node index.
        node: u32,
    },
    /// A node drains (graceful leave; devices still vanish for the
    /// current iteration).
    NodeDrain {
        /// Global node index.
        node: u32,
    },
    /// A node joins. Restores the node's link health; it does *not*
    /// resurrect devices in a schedule built before the join.
    NodeJoin {
        /// Global node index.
        node: u32,
    },
}

/// An event pinned to a round boundary: it fires after round
/// `boundary - 1` completes and before round `boundary` starts. Boundary
/// 0 fires before anything runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ScenarioEvent {
    /// Round boundary at which the event fires.
    pub boundary: u32,
    /// The event.
    pub event: ProgressEvent,
}

/// Abstraction of the executor's retry machinery: only the fuel bound
/// and the TCP-fallback capability matter for progress; timing and
/// backoff factors are dropped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryModel {
    /// Retry fuel per flow. `None` means unbounded — the checker treats
    /// a dead route under unbounded retry as a livelock.
    pub max_retries: Option<u32>,
    /// Backoff multiplier (recorded for trace fidelity; progress only
    /// needs it to be finite, which the type guarantees).
    pub backoff_multiplier: f64,
    /// Whether a parked RDMA flow may be rerouted over TCP/Ethernet
    /// (paper §3.2 NIC-loss fallback).
    pub tcp_fallback: bool,
}

impl Default for RetryModel {
    /// Mirrors the engine's `RetryPolicy::default()` fuel bound and
    /// backoff (a unit test in `holmes::progress` holds the two equal).
    fn default() -> Self {
        RetryModel {
            max_retries: Some(4),
            backoff_multiplier: 2.0,
            tcp_fallback: true,
        }
    }
}

/// One collective under check: its IR plus the tolerance it *claims*.
#[derive(Debug, Clone)]
pub struct ProgressCollective {
    /// Algorithm kind.
    pub kind: CollKind,
    /// Member ranks, as passed to [`CollKind::schedule`].
    pub devices: Vec<Rank>,
    /// The schedule under check.
    pub schedule: CollSchedule,
    /// The claimed member-loss tolerance (normally
    /// `kind.survives_member_loss()`); the checker derives the truth and
    /// rejects an unsound `true` claim.
    pub claims_member_loss_tolerance: bool,
}

impl ProgressCollective {
    /// Build from a kind + member set, generating the canonical schedule
    /// and taking the claim from the kind itself.
    pub fn from_kind(topo: &Topology, kind: CollKind, devices: Vec<Rank>, bytes: u64) -> Self {
        let cluster_of = |r: Rank| topo.coord(r).map(|c| c.cluster.0).unwrap_or(0);
        let schedule = kind.schedule(&devices, bytes, cluster_of);
        ProgressCollective {
            kind,
            devices,
            schedule,
            claims_member_loss_tolerance: kind.survives_member_loss(),
        }
    }
}

/// A node of the wait-for graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum WaitNode {
    /// The barrier closing one round of one collective.
    Round {
        /// Collective index in [`ProgressSpec::collectives`].
        coll: usize,
        /// Round index.
        round: usize,
    },
    /// One transfer of one round.
    Transfer {
        /// Collective index.
        coll: usize,
        /// Round index.
        round: usize,
        /// Transfer index within the round.
        index: usize,
    },
}

/// Everything the checker needs about one iteration's collectives.
#[derive(Debug, Clone, Default)]
pub struct ProgressSpec {
    /// The collectives of the iteration.
    pub collectives: Vec<ProgressCollective>,
    /// The retry machinery armed for this run (`None`: parked flows
    /// never retry — any park is a stall).
    pub retry: Option<RetryModel>,
    /// Whether the fabric has an inter-cluster trunk (cross-cluster
    /// TCP routes then also ride [`FaultTarget::Trunk`]).
    pub has_trunk: bool,
    /// Extra wait-for edges beyond the structural barrier edges. The IR's
    /// list-of-rounds encoding is acyclic by construction, so this is the
    /// injection point for future cross-round IR extensions — and for the
    /// mutation suite, which proves the cycle detector is real.
    pub extra_wait_edges: Vec<(WaitNode, WaitNode)>,
}

/// Scenario verdict for one abstract execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProgressVerdict {
    /// Every collective completes on healthy routes.
    Completes,
    /// Everything completes, but only via degraded links, retries, TCP
    /// fallback, or staling lost members of a tolerant collective.
    CompletesDegraded,
    /// The executor detects the condition and errors out promptly —
    /// a legitimate, *terminating* outcome.
    FailsFast(FailKind),
}

impl ProgressVerdict {
    fn severity(self) -> u8 {
        match self {
            ProgressVerdict::Completes => 0,
            ProgressVerdict::CompletesDegraded => 1,
            ProgressVerdict::FailsFast(_) => 2,
        }
    }
}

/// The condition a fail-fast verdict terminates on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FailKind {
    /// A member node was preempted and the collective cannot tolerate
    /// member loss.
    NodeLost(u32),
    /// A member node drained and the collective cannot tolerate member
    /// loss.
    NodeDraining(u32),
    /// Retry fuel ran out on a route with no live alternative.
    RetryExhausted {
        /// Sender of the dead transfer.
        from: Rank,
        /// Receiver of the dead transfer.
        to: Rank,
    },
    /// A flow parked with no retry policy armed (also reported as a
    /// [`VerifyError::ProgressStall`] counterexample — the executor
    /// would hang, not error).
    Stalled,
    /// Unbounded retry against a permanently dead route (also reported
    /// as [`VerifyError::ProgressUnboundedRetry`]).
    Livelock,
}

/// A property violation: the typed error, the scenario that reached it
/// (empty for static violations), and a human-readable trace of the
/// abstract execution.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The violated property.
    pub error: VerifyError,
    /// The event scenario that reached the violation, in firing order.
    pub scenario: Vec<ScenarioEvent>,
    /// Step-by-step abstract execution trace.
    pub trace: Vec<String>,
}

/// Aggregate result of a [`check_progress`] sweep.
#[derive(Debug, Clone, Default)]
pub struct ProgressReport {
    /// Scenarios actually executed.
    pub scenarios: usize,
    /// Scenarios dropped by [`EventSpace::max_scenarios`] sampling.
    /// Never silently zero when a cap bites.
    pub skipped: usize,
    /// Scenarios that completed clean.
    pub completes: usize,
    /// Scenarios that completed degraded.
    pub completes_degraded: usize,
    /// Scenarios that failed fast (legitimate terminating outcomes).
    pub fails_fast: usize,
    /// Every property violation found, with its reaching scenario.
    pub counterexamples: Vec<Counterexample>,
}

impl ProgressReport {
    /// True when no property was violated. Fail-fast verdicts do not
    /// count against cleanliness — they are the executor working.
    pub fn is_clean(&self) -> bool {
        self.counterexamples.is_empty()
    }
}

/// Bounds for the enumerated event space.
#[derive(Debug, Clone, Copy)]
pub struct EventSpace {
    /// Also sweep unordered pairs of distinct events (small-scope
    /// hypothesis: most violations show up at width ≤ 2).
    pub pairwise: bool,
    /// Cap on executed scenarios; excess is stride-sampled
    /// deterministically and the drop count is reported in
    /// [`ProgressReport::skipped`].
    pub max_scenarios: Option<usize>,
}

impl EventSpace {
    /// The full single + pairwise sweep, uncapped.
    pub fn exhaustive() -> Self {
        EventSpace {
            pairwise: true,
            max_scenarios: None,
        }
    }

    /// Singles only, capped — for gate tests that sweep many cells.
    pub fn quick() -> Self {
        EventSpace {
            pairwise: false,
            max_scenarios: Some(256),
        }
    }
}

/// Global node index of a rank: ranks are cluster-major, so this is a
/// plain division — identical to the engine fabric's `node_of`.
fn node_of(topo: &Topology, rank: Rank) -> u32 {
    rank.0 / topo.gpus_per_node()
}

fn cross_cluster(topo: &Topology, a: Rank, b: Rank) -> bool {
    match (topo.coord(a), topo.coord(b)) {
        (Ok(ca), Ok(cb)) => ca.cluster != cb.cluster,
        _ => false,
    }
}

/// Enumerate the single-event alphabet for a spec: Degraded/Down on the
/// RDMA and Ethernet NIC of every node hosting a member, preempt /
/// drain / join of every such node, and trunk Degraded/Down when the
/// fabric has one.
pub fn enumerate_events(topo: &Topology, spec: &ProgressSpec) -> Vec<ProgressEvent> {
    let mut nodes: BTreeSet<u32> = BTreeSet::new();
    for coll in &spec.collectives {
        for &d in &coll.devices {
            if topo.coord(d).is_ok() {
                nodes.insert(node_of(topo, d));
            }
        }
    }
    let mut events = Vec::new();
    for &n in &nodes {
        for link in [FaultTarget::NodeRdma(n), FaultTarget::NodeEth(n)] {
            events.push(ProgressEvent::LinkDegraded { link });
            events.push(ProgressEvent::LinkDown { link });
        }
        events.push(ProgressEvent::NodePreempt { node: n });
        events.push(ProgressEvent::NodeDrain { node: n });
        events.push(ProgressEvent::NodeJoin { node: n });
    }
    if spec.has_trunk {
        events.push(ProgressEvent::LinkDegraded {
            link: FaultTarget::Trunk,
        });
        events.push(ProgressEvent::LinkDown {
            link: FaultTarget::Trunk,
        });
    }
    events
}

/// Enumerate scenarios from the event alphabet under the given bounds.
/// Singles sweep every boundary; pairs sweep a reduced boundary set
/// (first and middle boundary) in both orders. Returns the scenarios
/// and the number dropped by the cap.
pub fn enumerate_scenarios(
    spec: &ProgressSpec,
    events: &[ProgressEvent],
    space: EventSpace,
) -> (Vec<Vec<ScenarioEvent>>, usize) {
    let rounds = spec
        .collectives
        .iter()
        .map(|c| c.schedule.round_count())
        .max()
        .unwrap_or(0)
        .max(1);
    let mut scenarios: Vec<Vec<ScenarioEvent>> = Vec::new();
    for &event in events {
        for boundary in 0..rounds {
            scenarios.push(vec![ScenarioEvent { boundary, event }]);
        }
    }
    if space.pairwise {
        let mut pair_bounds = vec![0u32];
        if rounds / 2 > 0 {
            pair_bounds.push(rounds / 2);
        }
        for i in 0..events.len() {
            for j in (i + 1)..events.len() {
                for &b1 in &pair_bounds {
                    for &b2 in &pair_bounds {
                        if b2 < b1 {
                            continue;
                        }
                        scenarios.push(vec![
                            ScenarioEvent {
                                boundary: b1,
                                event: events[i],
                            },
                            ScenarioEvent {
                                boundary: b2,
                                event: events[j],
                            },
                        ]);
                        if b1 != b2 {
                            scenarios.push(vec![
                                ScenarioEvent {
                                    boundary: b1,
                                    event: events[j],
                                },
                                ScenarioEvent {
                                    boundary: b2,
                                    event: events[i],
                                },
                            ]);
                        }
                    }
                }
            }
        }
    }
    let mut skipped = 0;
    if let Some(cap) = space.max_scenarios {
        if scenarios.len() > cap {
            let stride = scenarios.len().div_ceil(cap);
            let sampled: Vec<_> = scenarios.iter().step_by(stride).cloned().collect();
            skipped = scenarios.len() - sampled.len();
            scenarios = sampled;
        }
    }
    (scenarios, skipped)
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum LossKind {
    Preempt,
    Drain,
}

#[derive(Debug, Clone, Default)]
struct AbstractState {
    degraded: BTreeSet<FaultTarget>,
    down: BTreeSet<FaultTarget>,
    lost: BTreeMap<u32, LossKind>,
    /// Nodes whose RDMA traffic has been declared dead and rerouted
    /// over TCP (paper §3.2 fallback).
    lost_rdma: BTreeSet<u32>,
}

impl AbstractState {
    fn apply(&mut self, ev: ProgressEvent, trace: &mut Vec<String>, boundary: u32) {
        trace.push(format!("boundary {boundary}: {ev:?}"));
        match ev {
            ProgressEvent::LinkDegraded { link } => {
                self.down.remove(&link);
                self.degraded.insert(link);
            }
            ProgressEvent::LinkDown { link } => {
                self.degraded.remove(&link);
                self.down.insert(link);
            }
            ProgressEvent::LinkUp { link } => {
                self.degraded.remove(&link);
                self.down.remove(&link);
            }
            ProgressEvent::NodePreempt { node } => {
                self.lost.insert(node, LossKind::Preempt);
            }
            ProgressEvent::NodeDrain { node } => {
                self.lost.entry(node).or_insert(LossKind::Drain);
            }
            ProgressEvent::NodeJoin { node } => {
                // A join restores link health at the node's slot but the
                // schedule under check predates it: lost devices stay
                // lost.
                for link in [FaultTarget::NodeRdma(node), FaultTarget::NodeEth(node)] {
                    self.degraded.remove(&link);
                    self.down.remove(&link);
                }
            }
        }
    }
}

/// The links a transfer rides in the abstract domain; empty = intra-node
/// (always completes).
fn route_links(
    topo: &Topology,
    has_trunk: bool,
    state: &AbstractState,
    from: Rank,
    to: Rank,
) -> Vec<FaultTarget> {
    let nf = node_of(topo, from);
    let nt = node_of(topo, to);
    if nf == nt {
        return Vec::new();
    }
    let rdma = topo
        .link_between(from, to)
        .map(|p| p.kind.is_rdma())
        .unwrap_or(false);
    if rdma && !state.lost_rdma.contains(&nf) && !state.lost_rdma.contains(&nt) {
        return vec![FaultTarget::NodeRdma(nf), FaultTarget::NodeRdma(nt)];
    }
    let mut links = vec![FaultTarget::NodeEth(nf), FaultTarget::NodeEth(nt)];
    if has_trunk && cross_cluster(topo, from, to) {
        links.push(FaultTarget::Trunk);
    }
    links
}

/// Abstractly execute one scenario against the spec. Returns the verdict
/// (worst across collectives) and any property violations reached.
pub fn check_scenario(
    topo: &Topology,
    spec: &ProgressSpec,
    scenario: &[ScenarioEvent],
) -> (ProgressVerdict, Vec<Counterexample>) {
    let mut events: Vec<ScenarioEvent> = scenario.to_vec();
    events.sort_by_key(|e| e.boundary);
    let mut verdict = ProgressVerdict::Completes;
    let mut counterexamples = Vec::new();
    for (c, coll) in spec.collectives.iter().enumerate() {
        let (v, mut ces) = run_collective(topo, spec, c, coll, &events);
        counterexamples.append(&mut ces);
        if v.severity() > verdict.severity() {
            verdict = v;
        }
    }
    (verdict, counterexamples)
}

/// Gate a collective against the current lost-node set, mirroring the
/// executor's churn tolerance rule: tolerated when the claim holds, when
/// no member is lost, or when *every* member is lost (vacuous). Returns
/// the fail verdict otherwise.
fn churn_gate(
    topo: &Topology,
    coll: &ProgressCollective,
    state: &AbstractState,
    degraded: &mut bool,
    trace: &mut Vec<String>,
) -> Option<ProgressVerdict> {
    if state.lost.is_empty() || coll.devices.is_empty() {
        return None;
    }
    let mut touched: Option<(u32, LossKind)> = None;
    let mut live = 0usize;
    for &d in &coll.devices {
        let n = node_of(topo, d);
        match state.lost.get(&n) {
            Some(&k) => {
                if touched.is_none() {
                    touched = Some((n, k));
                }
            }
            None => live += 1,
        }
    }
    let (node, kind) = touched?;
    if coll.claims_member_loss_tolerance || live == 0 {
        *degraded = true;
        trace.push(format!(
            "collective tolerates loss of node {node} ({live} live members)"
        ));
        return None;
    }
    trace.push(format!("intolerant collective lost node {node}: fail fast"));
    Some(ProgressVerdict::FailsFast(match kind {
        LossKind::Preempt => FailKind::NodeLost(node),
        LossKind::Drain => FailKind::NodeDraining(node),
    }))
}

fn run_collective(
    topo: &Topology,
    spec: &ProgressSpec,
    c: usize,
    coll: &ProgressCollective,
    events: &[ScenarioEvent],
) -> (ProgressVerdict, Vec<Counterexample>) {
    let mut state = AbstractState::default();
    let mut trace = Vec::new();
    let mut counterexamples = Vec::new();
    let mut degraded_run = false;
    let mut next_event = 0usize;
    for (r, round) in coll.schedule.rounds().enumerate() {
        while next_event < events.len() && events[next_event].boundary as usize <= r {
            let e = events[next_event];
            state.apply(e.event, &mut trace, e.boundary);
            next_event += 1;
        }
        if let Some(v) = churn_gate(topo, coll, &state, &mut degraded_run, &mut trace) {
            return (v, counterexamples);
        }
        // First pass: complete what can complete, park the rest.
        let mut parked: Vec<usize> = Vec::new();
        for (i, t) in round.transfers().iter().enumerate() {
            let nf = node_of(topo, t.from);
            let nt = node_of(topo, t.to);
            if state.lost.contains_key(&nf) || state.lost.contains_key(&nt) {
                degraded_run = true;
                continue; // stale-complete against a lost member
            }
            let links = route_links(topo, spec.has_trunk, &state, t.from, t.to);
            if links.iter().any(|l| state.down.contains(l)) {
                parked.push(i);
            } else if links.iter().any(|l| state.degraded.contains(l)) {
                degraded_run = true;
            }
        }
        if parked.is_empty() {
            continue;
        }
        trace.push(format!(
            "collective {c} round {r}: {} transfers parked",
            parked.len()
        ));
        let Some(retry) = spec.retry else {
            let error = VerifyError::ProgressStall {
                collective: c,
                round: r,
                parked: parked.len(),
            };
            trace.push("no retry policy armed: the round barrier hangs forever".into());
            counterexamples.push(Counterexample {
                error,
                scenario: events.to_vec(),
                trace: trace.clone(),
            });
            return (
                ProgressVerdict::FailsFast(FailKind::Stalled),
                counterexamples,
            );
        };
        // The barrier blocks while retry timers run, so every remaining
        // scenario event lands before the round can finish: apply them
        // all, then decide each parked flow's fate against the settled
        // state. This over-approximates any concrete interleaving.
        while next_event < events.len() {
            let e = events[next_event];
            state.apply(e.event, &mut trace, e.boundary);
            next_event += 1;
        }
        if let Some(v) = churn_gate(topo, coll, &state, &mut degraded_run, &mut trace) {
            return (v, counterexamples);
        }
        for i in parked {
            let t = round.transfers()[i];
            let nf = node_of(topo, t.from);
            let nt = node_of(topo, t.to);
            if state.lost.contains_key(&nf) || state.lost.contains_key(&nt) {
                degraded_run = true;
                continue;
            }
            let mut links = route_links(topo, spec.has_trunk, &state, t.from, t.to);
            if links.iter().any(|l| state.down.contains(l))
                && retry.tcp_fallback
                && links.iter().any(|l| matches!(l, FaultTarget::NodeRdma(_)))
            {
                // §3.2 fallback: declare the dead RDMA side lost and
                // reroute over Ethernet.
                for l in &links {
                    if let FaultTarget::NodeRdma(n) = l {
                        if state.down.contains(l) {
                            state.lost_rdma.insert(*n);
                            trace.push(format!("rerouting node {n} over TCP after RDMA loss"));
                        }
                    }
                }
                links = route_links(topo, spec.has_trunk, &state, t.from, t.to);
            }
            if links.iter().any(|l| state.down.contains(l)) {
                // No live route will ever appear: the state is settled.
                match retry.max_retries {
                    None => {
                        trace.push(format!(
                            "transfer {} -> {} retries forever on a dead route",
                            t.from, t.to
                        ));
                        counterexamples.push(Counterexample {
                            error: VerifyError::ProgressUnboundedRetry {
                                collective: c,
                                round: r,
                                from: t.from,
                                to: t.to,
                            },
                            scenario: events.to_vec(),
                            trace: trace.clone(),
                        });
                        return (
                            ProgressVerdict::FailsFast(FailKind::Livelock),
                            counterexamples,
                        );
                    }
                    Some(_) => {
                        trace.push(format!(
                            "transfer {} -> {} exhausts retry fuel",
                            t.from, t.to
                        ));
                        return (
                            ProgressVerdict::FailsFast(FailKind::RetryExhausted {
                                from: t.from,
                                to: t.to,
                            }),
                            counterexamples,
                        );
                    }
                }
            }
            degraded_run = true; // completed, but only after retrying
        }
    }
    let verdict = if degraded_run {
        ProgressVerdict::CompletesDegraded
    } else {
        ProgressVerdict::Completes
    };
    (verdict, counterexamples)
}

/// Detect a cycle in the wait-for graph: structural barrier edges
/// (`Round(r) → Transfer(r, i) → Round(r−1)`, collapsed to
/// round-to-round edges except where an extra edge names a transfer)
/// plus [`ProgressSpec::extra_wait_edges`]. The IR encoding is layered,
/// so a cycle can only arise through extra edges — but the checker
/// checks rather than assumes, so future cross-round IR extensions
/// inherit the proof.
fn wait_cycle(spec: &ProgressSpec) -> Option<Counterexample> {
    let mut adj: BTreeMap<WaitNode, Vec<WaitNode>> = BTreeMap::new();
    for (c, coll) in spec.collectives.iter().enumerate() {
        let n = coll.schedule.round_count() as usize;
        for r in 1..n {
            adj.entry(WaitNode::Round { coll: c, round: r })
                .or_default()
                .push(WaitNode::Round {
                    coll: c,
                    round: r - 1,
                });
        }
    }
    for &(a, b) in &spec.extra_wait_edges {
        adj.entry(a).or_default().push(b);
        // Anchor explicit transfer nodes into their structural context.
        for node in [a, b] {
            if let WaitNode::Transfer { coll, round, index } = node {
                adj.entry(WaitNode::Round { coll, round })
                    .or_default()
                    .push(WaitNode::Transfer { coll, round, index });
                if round > 0 {
                    adj.entry(node).or_default().push(WaitNode::Round {
                        coll,
                        round: round - 1,
                    });
                }
            }
        }
    }
    // Iterative 3-colour DFS.
    let keys: Vec<WaitNode> = adj.keys().copied().collect();
    let mut colour: BTreeMap<WaitNode, u8> = BTreeMap::new();
    for &start in &keys {
        if colour.get(&start).copied().unwrap_or(0) != 0 {
            continue;
        }
        let mut stack: Vec<(WaitNode, usize)> = vec![(start, 0)];
        colour.insert(start, 1);
        while let Some(frame) = stack.last_mut() {
            let node = frame.0;
            let i = frame.1;
            let succs = adj.get(&node).map(|v| v.as_slice()).unwrap_or(&[]);
            if i >= succs.len() {
                colour.insert(node, 2);
                stack.pop();
                continue;
            }
            frame.1 += 1;
            let next = succs[i];
            match colour.get(&next).copied().unwrap_or(0) {
                0 => {
                    colour.insert(next, 1);
                    stack.push((next, 0));
                }
                1 => {
                    let (coll, round) = match next {
                        WaitNode::Round { coll, round } => (coll, round),
                        WaitNode::Transfer { coll, round, .. } => (coll, round),
                    };
                    let trace = stack
                        .iter()
                        .map(|(n, _)| format!("waits on {n:?}"))
                        .collect();
                    return Some(Counterexample {
                        error: VerifyError::ProgressWaitCycle {
                            collective: coll,
                            round,
                        },
                        scenario: Vec::new(),
                        trace,
                    });
                }
                _ => {}
            }
        }
    }
    None
}

/// Derive whether a schedule tolerates member loss, via a
/// contribution-set data flow: each member starts owning its own
/// contribution bit; a transfer ORs the sender's *round-entry* set into
/// the receiver. Losing the member group `M` at boundary `b` stales
/// every transfer touching `M` in rounds `≥ b`. The schedule is tolerant
/// iff for every node-granular member group `M` and every boundary, each
/// survivor still ends with everything it would have had healthy, minus
/// `M`'s own contributions.
///
/// The derivation is *sound for rejection*: `false` means a concrete
/// loss exists after which some survivor provably cannot reconstruct a
/// surviving member's contribution (no relaying happens that the data
/// flow would miss, because the flow itself models all relaying the
/// schedule performs). A `true` claim with a `false` derivation is
/// therefore always unsound. The converse direction — deriving `true`
/// for a kind that conservatively claims `false` (e.g. a 2-member ring)
/// — is safe under-claiming and is not an error.
pub fn derive_member_loss_tolerance(
    topo: &Topology,
    devices: &[Rank],
    schedule: &CollSchedule,
) -> bool {
    let n = devices.len();
    if n <= 1 || schedule.is_empty() {
        return true;
    }
    let words = n.div_ceil(64);
    let idx: BTreeMap<Rank, usize> = devices.iter().enumerate().map(|(i, &d)| (d, i)).collect();

    let healthy = contribution_flow(schedule, &idx, n, words, None);

    let mut groups: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (i, &d) in devices.iter().enumerate() {
        groups.entry(node_of(topo, d)).or_default().push(i);
    }
    for members in groups.values() {
        if members.len() == n {
            continue; // losing everyone is vacuously tolerated
        }
        let mut mask = vec![0u64; words];
        for &m in members {
            mask[m / 64] |= 1u64 << (m % 64);
        }
        for b in 0..schedule.round_count() as usize {
            let lossy = contribution_flow(schedule, &idx, n, words, Some((&mask, b)));
            for i in 0..n {
                if members.contains(&i) {
                    continue;
                }
                for w in 0..words {
                    let need = healthy[i * words + w] & !mask[w];
                    if lossy[i * words + w] & need != need {
                        return false;
                    }
                }
            }
        }
    }
    true
}

/// Run the contribution-set data flow; `loss = Some((mask, boundary))`
/// stales transfers touching masked members in rounds `≥ boundary`.
fn contribution_flow(
    schedule: &CollSchedule,
    idx: &BTreeMap<Rank, usize>,
    n: usize,
    words: usize,
    loss: Option<(&[u64], usize)>,
) -> Vec<u64> {
    let mut contrib = vec![0u64; n * words];
    for i in 0..n {
        contrib[i * words + i / 64] |= 1u64 << (i % 64);
    }
    for (r, round) in schedule.rounds().enumerate() {
        let snap = contrib.clone();
        for t in round.transfers() {
            let (Some(&f), Some(&to)) = (idx.get(&t.from), idx.get(&t.to)) else {
                continue;
            };
            if let Some((mask, boundary)) = loss {
                let touches = |m: usize| mask[m / 64] >> (m % 64) & 1 == 1;
                if r >= boundary && (touches(f) || touches(to)) {
                    continue;
                }
            }
            for w in 0..words {
                contrib[to * words + w] |= snap[f * words + w];
            }
        }
    }
    contrib
}

/// Prove every `StateMove` of a migration plan is executable on the
/// given (post-churn) fabric: both endpoints resolve and the route
/// between them has finite positive bandwidth. Endpoint-validity
/// defects are [`crate::verify_migration`]'s department; this check is
/// purely about routability.
pub fn verify_moves_executable(topo: &Topology, migration: &MigrationPlan) -> Vec<VerifyError> {
    let mut errors = Vec::new();
    for (index, m) in migration.moves.iter().enumerate() {
        if m.from == m.to || topo.coord(m.from).is_err() || topo.coord(m.to).is_err() {
            continue;
        }
        let routable = topo
            .link_between(m.from, m.to)
            .map(|p| p.bandwidth_bytes_per_sec.is_finite() && p.bandwidth_bytes_per_sec > 0.0)
            .unwrap_or(false);
        if !routable {
            errors.push(VerifyError::StateMoveUnroutable {
                index,
                from: m.from,
                to: m.to,
            });
        }
    }
    errors
}

/// Re-verify a churn re-plan end to end *and* prove its state moves are
/// executable on the post-churn fabric — the "replan reachability"
/// property: structural soundness ([`verify_replan`]) plus
/// [`verify_moves_executable`].
pub fn verify_replan_progress(outcome: &DeltaReplanOutcome) -> Vec<VerifyError> {
    let mut errors = verify_replan(outcome);
    errors.extend(verify_moves_executable(
        &outcome.new_topology,
        &outcome.migration,
    ));
    errors
}

/// Run the full check: static wait-for acyclicity, member-loss claim
/// derivation for every claiming collective, and the scenario sweep over
/// the enumerated event space.
pub fn check_progress(topo: &Topology, spec: &ProgressSpec, space: EventSpace) -> ProgressReport {
    let events = enumerate_events(topo, spec);
    let (scenarios, skipped) = enumerate_scenarios(spec, &events, space);
    let mut report = check_progress_with_scenarios(topo, spec, &scenarios);
    report.skipped = skipped;
    report
}

/// Like [`check_progress`], but sweeping an explicit scenario list
/// instead of the enumerated event space — `holmes::progress` uses this
/// to check exactly the events a concrete `FaultPlan` can produce.
/// The static properties (wait-for acyclicity, member-loss claim
/// derivation) are checked regardless of the scenarios given.
pub fn check_progress_with_scenarios(
    topo: &Topology,
    spec: &ProgressSpec,
    scenarios: &[Vec<ScenarioEvent>],
) -> ProgressReport {
    let mut report = ProgressReport::default();
    if let Some(ce) = wait_cycle(spec) {
        report.counterexamples.push(ce);
    }
    for (c, coll) in spec.collectives.iter().enumerate() {
        if coll.claims_member_loss_tolerance
            && !derive_member_loss_tolerance(topo, &coll.devices, &coll.schedule)
        {
            report.counterexamples.push(Counterexample {
                error: VerifyError::MemberLossClaimMismatch {
                    collective: c,
                    claimed: true,
                    derived: false,
                },
                scenario: Vec::new(),
                trace: vec![format!(
                    "contribution-set data flow refutes survives_member_loss for {:?}",
                    coll.kind
                )],
            });
        }
    }
    for scenario in scenarios {
        let (verdict, mut ces) = check_scenario(topo, spec, scenario);
        report.scenarios += 1;
        match verdict {
            ProgressVerdict::Completes => report.completes += 1,
            ProgressVerdict::CompletesDegraded => report.completes_degraded += 1,
            ProgressVerdict::FailsFast(_) => report.fails_fast += 1,
        }
        report.counterexamples.append(&mut ces);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use holmes_topology::presets;

    fn spec_for(topo: &Topology, kind: CollKind) -> ProgressSpec {
        let devices: Vec<Rank> = (0..topo.device_count()).map(Rank).collect();
        ProgressSpec {
            collectives: vec![ProgressCollective::from_kind(topo, kind, devices, 1 << 20)],
            retry: Some(RetryModel::default()),
            has_trunk: topo.cluster_count() > 1,
            extra_wait_edges: Vec::new(),
        }
    }

    #[test]
    fn clean_scenario_completes() {
        let topo = presets::hybrid_two_cluster(2);
        let spec = spec_for(&topo, CollKind::HierarchicalAllReduce);
        let (verdict, ces) = check_scenario(&topo, &spec, &[]);
        assert_eq!(verdict, ProgressVerdict::Completes);
        assert!(ces.is_empty());
    }

    #[test]
    fn rdma_down_falls_back_to_tcp_degraded() {
        let topo = presets::hybrid_two_cluster(2);
        let spec = spec_for(&topo, CollKind::AllReduce);
        let scenario = [ScenarioEvent {
            boundary: 0,
            event: ProgressEvent::LinkDown {
                link: FaultTarget::NodeRdma(0),
            },
        }];
        let (verdict, ces) = check_scenario(&topo, &spec, &scenario);
        assert_eq!(verdict, ProgressVerdict::CompletesDegraded);
        assert!(ces.is_empty());
    }

    #[test]
    fn rdma_and_eth_down_exhausts_fuel() {
        let topo = presets::hybrid_two_cluster(2);
        let spec = spec_for(&topo, CollKind::AllReduce);
        let scenario = [
            ScenarioEvent {
                boundary: 0,
                event: ProgressEvent::LinkDown {
                    link: FaultTarget::NodeRdma(0),
                },
            },
            ScenarioEvent {
                boundary: 0,
                event: ProgressEvent::LinkDown {
                    link: FaultTarget::NodeEth(0),
                },
            },
        ];
        let (verdict, ces) = check_scenario(&topo, &spec, &scenario);
        assert!(matches!(
            verdict,
            ProgressVerdict::FailsFast(FailKind::RetryExhausted { .. })
        ));
        assert!(ces.is_empty());
    }

    #[test]
    fn preempt_fails_fast_for_intolerant_kind() {
        let topo = presets::hybrid_two_cluster(2);
        let spec = spec_for(&topo, CollKind::AllReduce);
        let scenario = [ScenarioEvent {
            boundary: 1,
            event: ProgressEvent::NodePreempt { node: 0 },
        }];
        let (verdict, ces) = check_scenario(&topo, &spec, &scenario);
        assert_eq!(verdict, ProgressVerdict::FailsFast(FailKind::NodeLost(0)));
        assert!(ces.is_empty());
    }

    #[test]
    fn ps_push_stales_lost_member_and_completes() {
        let topo = presets::hybrid_two_cluster(2);
        let spec = spec_for(&topo, CollKind::PsPush { servers: 2 });
        let last = topo.device_count() / topo.gpus_per_node() - 1;
        let scenario = [ScenarioEvent {
            boundary: 0,
            event: ProgressEvent::NodePreempt { node: last },
        }];
        let (verdict, ces) = check_scenario(&topo, &spec, &scenario);
        assert_eq!(verdict, ProgressVerdict::CompletesDegraded);
        assert!(ces.is_empty());
    }

    #[test]
    fn derivation_refutes_ring_tolerance() {
        let topo = presets::hybrid_two_cluster(2);
        let devices: Vec<Rank> = (0..topo.device_count()).map(Rank).collect();
        let cluster_of = |r: Rank| topo.coord(r).map(|c| c.cluster.0).unwrap_or(0);
        let ring = CollKind::AllReduce.schedule(&devices, 1 << 20, cluster_of);
        assert!(!derive_member_loss_tolerance(&topo, &devices, &ring));
        let ps = CollKind::PsPush { servers: 2 }.schedule(&devices, 1 << 20, cluster_of);
        assert!(derive_member_loss_tolerance(&topo, &devices, &ps));
    }

    #[test]
    fn full_sweep_on_preset_is_clean() {
        let topo = presets::hybrid_two_cluster(2);
        let spec = spec_for(&topo, CollKind::HierarchicalAllReduce);
        let report = check_progress(&topo, &spec, EventSpace::exhaustive());
        assert!(report.is_clean(), "{:?}", report.counterexamples);
        assert!(report.scenarios > 0);
        assert_eq!(report.skipped, 0);
    }
}
