//! `RefSim`: a deliberately naive reference implementation of the fast
//! engine's settlement specification, used by the equivalence proptests.
//!
//! The production fast engine (`sim_fast.rs`) earns its throughput from
//! component-local water-filling over a lazily-invalidated constraint
//! heap, struct-of-arrays flow storage, twin groups and slot-indexed
//! finish/prediction heaps. `RefSim` implements the *same observable
//! semantics* with none of that machinery:
//!
//! * its own `BinaryHeap` ordered by `(time, seq)`, sharing no code with
//!   the engine's event queue;
//! * flows in a `BTreeMap` (id-ordered iteration by construction);
//! * a **global** water-fill (the historical round loop) on every harvest
//!   event — sound because rate assignment is bitwise-skip: rates of
//!   untouched components recompute to identical bits and are skipped,
//!   exactly like the component walk skips them (see the near-tie caveat
//!   on [`crate::NetSim`]'s fast engine; the proptest generators use
//!   well-separated capacities so cross-component threshold grouping
//!   cannot differ);
//! * anchored lazy settlement: progress is settled only when a flow's
//!   rate is reassigned to a bitwise-different value;
//! * completion via per-flow eps-crossing instants recorded at rate
//!   assignment, harvested at every event in flow-id order;
//! * a single check register holding the earliest completion prediction.
//!
//! Any divergence between [`RefSim`] and [`crate::NetSim`] (observed or
//! not) on the same call sequence is a bug in one of them; the proptests
//! in `tests/equivalence.rs` assert byte-identical completion streams
//! (timestamps included) over random flow/fault/cancel/timer schedules.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashSet, VecDeque};

use crate::churn::ChurnKind;
use crate::flow::{FlowId, FlowSpec};
use crate::link::{LinkCapacity, LinkHealth, LinkId};
use crate::sim::Completion;
use crate::time::{SimDuration, SimTime};

/// Residue threshold below which a flow counts as finished — must match
/// the production engine's value.
const DONE_EPS: f64 = 0.5;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum RefPayload {
    FlowStart(u64),
    Timer(u64),
    Fault(u32),
    Churn(u32),
}

#[derive(Debug)]
struct RefFlow {
    token: u64,
    /// Bytes left at `anchor`.
    remaining: f64,
    /// Current rate, bytes/ns.
    rate: f64,
    /// Settlement anchor: the instant `remaining` refers to.
    anchor: SimTime,
    /// Rate ceiling, bytes/ns.
    rate_cap: f64,
    path: Vec<LinkId>,
    /// Predicted eps-crossing instant (fractional ns) recorded at the
    /// last rate assignment; `None` while parked at rate zero.
    crossing: Option<f64>,
}

/// The reference simulator. Mirrors the subset of [`crate::NetSim`]'s
/// API the equivalence tests drive.
#[derive(Debug, Default)]
pub struct RefSim {
    now: SimTime,
    links: Vec<LinkCapacity>,
    nominal: Vec<LinkCapacity>,
    health: Vec<LinkHealth>,
    fault_table: Vec<(LinkId, LinkHealth)>,
    churn_table: Vec<(u32, ChurnKind, Vec<LinkId>)>,
    flows: BTreeMap<u64, RefFlow>,
    pending: BTreeMap<u64, FlowSpec>,
    cancelled_pending: HashSet<u64>,
    queue: BinaryHeap<Reverse<(u64, u64, RefPayload)>>,
    check: Option<(SimTime, u64)>,
    backlog: VecDeque<Completion>,
    next_flow: u64,
    next_seq: u64,
}

#[expect(
    clippy::cast_possible_truncation,
    clippy::expect_used,
    reason = "reference model: u32 ids; each expect restates a queue invariant"
)]
impl RefSim {
    /// An empty reference simulator at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Register a link; same contract as [`crate::NetSim::add_link`].
    pub fn add_link(&mut self, capacity: LinkCapacity) -> LinkId {
        let id = LinkId(self.links.len() as u32);
        self.links.push(capacity);
        self.nominal.push(capacity);
        self.health.push(LinkHealth::Healthy);
        id
    }

    /// Start a flow; same contract as [`crate::NetSim::start_flow`], for
    /// uncounted entries only: the reference runs one flow per flow, so a
    /// counted entry is spelled as `count` verbatim starts.
    ///
    /// # Panics
    /// Panics on an unregistered link or a [`FlowSpec::count`] other
    /// than one.
    pub fn start_flow(&mut self, spec: FlowSpec) -> FlowId {
        assert_eq!(spec.count, 1, "RefSim runs one flow per flow");
        for link in &spec.path {
            assert!(
                (link.0 as usize) < self.links.len(),
                "flow references unregistered link {link:?}"
            );
        }
        let id = self.next_flow;
        self.next_flow += 1;
        let start = self.now + spec.latency;
        self.pending.insert(id, spec);
        self.push_event(start, RefPayload::FlowStart(id));
        FlowId(id)
    }

    /// Schedule a timer; same contract as [`crate::NetSim::set_timer`].
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        let at = self.now + delay;
        self.push_event(at, RefPayload::Timer(token));
    }

    /// Schedule a health transition; same contract as
    /// [`crate::NetSim::schedule_fault_at`].
    pub fn schedule_fault_at(&mut self, at: SimTime, link: LinkId, health: LinkHealth) {
        assert!((link.0 as usize) < self.links.len());
        let idx = self.fault_table.len() as u32;
        self.fault_table.push((link, health));
        let at = at.max(self.now);
        self.push_event(at, RefPayload::Fault(idx));
    }

    /// Schedule a node-membership transition; same contract as
    /// [`crate::NetSim::schedule_churn_at`].
    pub fn schedule_churn_at(&mut self, at: SimTime, node: u32, kind: ChurnKind, links: &[LinkId]) {
        for link in links {
            assert!((link.0 as usize) < self.links.len());
        }
        let idx = self.churn_table.len() as u32;
        self.churn_table.push((node, kind, links.to_vec()));
        let at = at.max(self.now);
        self.push_event(at, RefPayload::Churn(idx));
    }

    /// Immediate health transition; same contract as
    /// [`crate::NetSim::set_link_health`].
    pub fn set_link_health(&mut self, id: LinkId, health: LinkHealth) {
        let i = id.0 as usize;
        if i < self.links.len() {
            self.health[i] = health;
            self.links[i] =
                LinkCapacity::new(self.nominal[i].bytes_per_sec * health.capacity_factor());
            self.recompute();
            self.update_check();
        }
    }

    /// Cancel a flow; same contract as [`crate::NetSim::cancel_flow`].
    pub fn cancel_flow(&mut self, id: FlowId) -> bool {
        self.cancel_flows(&[id])
    }

    /// Cancel several flows at one instant with a single rate recompute:
    /// the reference for cancelling a counted entry on
    /// [`crate::NetSim`], which takes all of its logical flows out at
    /// once. Cancelling them one by one instead re-shares bandwidth
    /// after each, and a rate that changes and changes back re-anchors a
    /// bystander the atomic cancel leaves alone. Returns `true` when
    /// every listed flow was still in flight.
    pub fn cancel_flows(&mut self, ids: &[FlowId]) -> bool {
        let mut all = true;
        let mut active = false;
        for id in ids {
            if self.pending.remove(&id.0).is_some() {
                self.cancelled_pending.insert(id.0);
            } else if let Some(mut f) = self.flows.remove(&id.0) {
                Self::settle(&mut f, self.now);
                active = true;
            } else {
                all = false;
            }
        }
        if active {
            self.recompute();
            self.update_check();
        }
        all
    }

    /// Number of in-flight flows (latency phase included).
    pub fn inflight_flows(&self) -> usize {
        self.flows.len() + self.pending.len()
    }

    fn push_event(&mut self, time: SimTime, payload: RefPayload) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Reverse((time.0, seq, payload)));
    }

    /// Advance to the next completion; same contract as
    /// [`crate::NetSim::next`].
    #[expect(
        clippy::should_implement_trait,
        reason = "callers start flows between pulls"
    )]
    pub fn next(&mut self) -> Option<Completion> {
        loop {
            if let Some(done) = self.backlog.pop_front() {
                return Some(done);
            }
            let take_check = match (self.queue.peek(), self.check) {
                (None, None) => return None,
                (Some(_), None) => false,
                (None, Some(_)) => true,
                (Some(&Reverse((t, s, _))), Some((ct, cseq))) => (ct.0, cseq) < (t, s),
            };
            if take_check {
                let (t, _) = self.check.take().expect("register checked above");
                self.now = t;
                self.harvest();
                self.recompute();
                self.update_check();
                continue;
            }
            let Reverse((time, _, payload)) = self
                .queue
                .pop()
                .expect("pop follows a non-empty check on the same queue");
            self.now = SimTime(time);
            match payload {
                RefPayload::Timer(token) => return Some(Completion::Timer { token }),
                RefPayload::FlowStart(id) => {
                    self.activate(id);
                    while let Some(&Reverse((t, _, p))) = self.queue.peek() {
                        if t != self.now.0 {
                            break;
                        }
                        if let RefPayload::FlowStart(next_id) = p {
                            self.queue.pop();
                            self.activate(next_id);
                        } else {
                            break;
                        }
                    }
                    self.harvest();
                    self.recompute();
                    self.update_check();
                }
                RefPayload::Fault(idx) => {
                    let (link, health) = self.fault_table[idx as usize];
                    let i = link.0 as usize;
                    self.health[i] = health;
                    self.links[i] =
                        LinkCapacity::new(self.nominal[i].bytes_per_sec * health.capacity_factor());
                    self.harvest();
                    self.recompute();
                    self.update_check();
                    return Some(Completion::Fault { link, health });
                }
                RefPayload::Churn(idx) => {
                    let (node, kind) = {
                        let (node, kind, _) = &self.churn_table[idx as usize];
                        (*node, *kind)
                    };
                    let health = kind.target_health();
                    for k in 0..self.churn_table[idx as usize].2.len() {
                        let link = self.churn_table[idx as usize].2[k];
                        let i = link.0 as usize;
                        self.health[i] = health;
                        self.links[i] = LinkCapacity::new(
                            self.nominal[i].bytes_per_sec * health.capacity_factor(),
                        );
                    }
                    self.harvest();
                    self.recompute();
                    self.update_check();
                    return Some(Completion::Churn { node, kind });
                }
            }
        }
    }

    /// Run until drained, collecting every completion with its timestamp.
    pub fn drain_timed(&mut self) -> Vec<(SimTime, Completion)> {
        let mut all = Vec::new();
        while let Some(c) = self.next() {
            all.push((self.now, c));
        }
        all
    }

    fn activate(&mut self, id: u64) {
        let Some(spec) = self.pending.remove(&id) else {
            assert!(
                self.cancelled_pending.remove(&id),
                "FlowStart for unknown pending flow"
            );
            return;
        };
        let cap = if spec.rate_cap.is_finite() {
            (spec.rate_cap * 1e-9).max(1e-12)
        } else {
            f64::INFINITY
        };
        // Zero-byte flows are ripe immediately: the harvest pass (which
        // runs before the recompute at this same event) completes them.
        let crossing = (spec.bytes as f64 <= DONE_EPS).then_some(self.now.0 as f64);
        self.flows.insert(
            id,
            RefFlow {
                token: spec.token,
                remaining: spec.bytes as f64,
                rate: 0.0,
                anchor: self.now,
                rate_cap: cap,
                path: spec.path,
                crossing,
            },
        );
    }

    /// Anchored settlement: advance `remaining` to `now`.
    fn settle(f: &mut RefFlow, now: SimTime) {
        let elapsed = now.since(f.anchor).0 as f64;
        if elapsed > 0.0 && f.rate > 0.0 {
            f.remaining -= f.rate * elapsed;
            if f.remaining < 0.0 {
                f.remaining = 0.0;
            }
        }
        f.anchor = now;
    }

    /// Assign a rate with bitwise-skip semantics: reassignment to the
    /// identical bit pattern is a no-op (no settlement, prediction keeps
    /// its recorded value), exactly like the production engine.
    fn assign_rate(f: &mut RefFlow, now: SimTime, new_rate: f64) {
        if new_rate.to_bits() == f.rate.to_bits() {
            return;
        }
        Self::settle(f, now);
        f.rate = new_rate;
        f.crossing = (new_rate > 0.0).then(|| now.0 as f64 + (f.remaining - DONE_EPS) / new_rate);
    }

    /// Complete every flow whose recorded eps-crossing has passed, in
    /// flow-id order.
    fn harvest(&mut self) {
        let now_f = self.now.0 as f64;
        let ripe: Vec<u64> = self
            .flows
            .iter()
            .filter(|(_, f)| f.crossing.is_some_and(|c| c <= now_f))
            .map(|(&id, _)| id)
            .collect();
        for id in ripe {
            let mut f = self
                .flows
                .remove(&id)
                .expect("settlement ids come from the live flow table");
            Self::settle(&mut f, self.now);
            self.backlog.push_back(Completion::Flow {
                id: FlowId(id),
                token: f.token,
                count: 1,
            });
        }
    }

    /// The historical global water-fill round loop, with bitwise-skip
    /// rate assignment.
    fn recompute(&mut self) {
        if self.flows.is_empty() {
            return;
        }
        let mut cap_left: Vec<f64> = self.links.iter().map(|l| l.bytes_per_sec * 1e-9).collect();
        let mut n_unfixed = vec![0u32; self.links.len()];
        for f in self.flows.values() {
            for l in &f.path {
                n_unfixed[l.0 as usize] += 1;
            }
        }
        let mut unfixed: Vec<u64> = self.flows.keys().copied().collect();

        // Dead-link parking pre-pass, id order.
        let any_dead = self.links.iter().any(|l| l.is_dead());
        if any_dead {
            let links = &self.links;
            let now = self.now;
            unfixed.retain(|id| {
                let f = self
                    .flows
                    .get_mut(id)
                    .expect("rate-fixing ids come from the live flow table");
                if f.path.iter().any(|l| links[l.0 as usize].is_dead()) {
                    Self::assign_rate(f, now, 0.0);
                    for l in &f.path {
                        n_unfixed[l.0 as usize] -= 1;
                    }
                    false
                } else {
                    true
                }
            });
        }

        while !unfixed.is_empty() {
            let mut bottleneck = f64::INFINITY;
            for (cap, n) in cap_left.iter().zip(n_unfixed.iter()) {
                if *n > 0 {
                    bottleneck = bottleneck.min(cap / f64::from(*n));
                }
            }
            for id in &unfixed {
                bottleneck = bottleneck.min(self.flows[id].rate_cap);
            }
            if !bottleneck.is_finite() {
                bottleneck = 1e6;
            }
            let threshold = bottleneck * (1.0 + 1e-9);
            let is_bottleneck: Vec<bool> = cap_left
                .iter()
                .zip(n_unfixed.iter())
                .map(|(cap, n)| *n > 0 && cap / f64::from(*n) <= threshold)
                .collect();
            let before = unfixed.len();
            let now = self.now;
            let mut progressed = false;
            unfixed.retain(|id| {
                let f = self
                    .flows
                    .get_mut(id)
                    .expect("rate-fixing ids come from the live flow table");
                let by_cap = f.rate_cap <= threshold;
                let by_link = f.path.iter().any(|l| is_bottleneck[l.0 as usize]);
                if by_cap || by_link {
                    let rate = f.rate_cap.min(bottleneck);
                    Self::assign_rate(f, now, rate);
                    for l in &f.path {
                        let i = l.0 as usize;
                        cap_left[i] = (cap_left[i] - rate).max(0.0);
                        n_unfixed[i] -= 1;
                    }
                    progressed = true;
                    false
                } else {
                    true
                }
            });
            debug_assert!(progressed || unfixed.len() == before);
            if !progressed {
                for id in &unfixed {
                    let f = self
                        .flows
                        .get_mut(id)
                        .expect("rate-fixing ids come from the live flow table");
                    let rate = f.rate_cap.min(bottleneck);
                    Self::assign_rate(f, now, rate);
                }
                break;
            }
        }
    }

    /// Refresh the check register: the earliest completion prediction
    /// `anchor + max(1, ceil(remaining/rate))` over flows with a positive
    /// rate, clamped one nanosecond into the future.
    fn update_check(&mut self) {
        self.check = None;
        let mut earliest: Option<SimTime> = None;
        for f in self.flows.values() {
            if f.rate <= 0.0 {
                continue;
            }
            let ns = (f.remaining / f.rate).ceil().min(1e18) as u64;
            let t = f.anchor + SimDuration::from_nanos(ns.max(1));
            earliest = Some(match earliest {
                Some(e) if e <= t => e,
                _ => t,
            });
        }
        if let Some(t) = earliest {
            let t = t.max(SimTime(self.now.0 + 1));
            let seq = self.next_seq;
            self.next_seq += 1;
            self.check = Some((t, seq));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refsim_runs_the_basic_sharing_scenario() {
        let mut sim = RefSim::new();
        let link = sim.add_link(LinkCapacity::new(1e9));
        sim.start_flow(FlowSpec {
            path: vec![link],
            bytes: 250_000_000,
            latency: SimDuration::ZERO,
            rate_cap: f64::INFINITY,
            token: 1,
            count: 1,
        });
        sim.start_flow(FlowSpec {
            path: vec![link],
            bytes: 1_000_000_000,
            latency: SimDuration::ZERO,
            rate_cap: f64::INFINITY,
            token: 2,
            count: 1,
        });
        let log = sim.drain_timed();
        assert_eq!(log.len(), 2);
        assert!(matches!(log[0].1, Completion::Flow { token: 1, .. }));
        assert!((log[0].0.as_secs_f64() - 0.5).abs() < 1e-6);
        assert!(matches!(log[1].1, Completion::Flow { token: 2, .. }));
        assert!((log[1].0.as_secs_f64() - 1.25).abs() < 1e-6);
    }

    #[test]
    fn refsim_parks_on_dead_links() {
        let mut sim = RefSim::new();
        let link = sim.add_link(LinkCapacity::new(1e9));
        sim.start_flow(FlowSpec {
            path: vec![link],
            bytes: 1_000_000_000,
            latency: SimDuration::ZERO,
            rate_cap: f64::INFINITY,
            token: 1,
            count: 1,
        });
        sim.schedule_fault_at(SimTime(250_000_000), link, LinkHealth::Down);
        sim.schedule_fault_at(SimTime(750_000_000), link, LinkHealth::Healthy);
        let log = sim.drain_timed();
        assert_eq!(log.len(), 3);
        assert!(matches!(log[2].1, Completion::Flow { token: 1, .. }));
        assert!((log[2].0.as_secs_f64() - 1.5).abs() < 1e-6);
    }
}
