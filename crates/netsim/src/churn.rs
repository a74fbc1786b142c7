//! Deterministic node-churn schedules: seeded timelines of membership
//! events.
//!
//! PR 3's [`FaultSchedule`](crate::FaultSchedule) models *links* dying;
//! elastic training needs the next level up: whole **nodes** leaving and
//! joining mid-run. A [`ChurnSchedule`] is an ordered timeline of
//! [`ChurnEvent`]s — a node is preempted (all of its links drop
//! atomically), drained (same link effect, but announced as a voluntary
//! departure), or joins (its links come up). The simulator applies each
//! event through the same settle/recompute path as a fault, in one event:
//! all of the node's links change health at the same instant, so a
//! preemption never half-kills a node.
//!
//! Determinism mirrors the fault layer: schedules are hand-built or
//! seeded ([`ChurnSchedule::poisson`]), and identical seed + schedule
//! replay byte-identical event logs on `NetSim` and `RefSim`
//! (property-tested in `crates/netsim/tests/equivalence.rs`).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::link::{LinkHealth, LinkId};
use crate::sim::NetSim;
use crate::time::SimTime;

/// What happened to the node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChurnKind {
    /// The node (re-)joins the job: its links come up healthy.
    NodeJoin,
    /// The node is preempted without warning: its links drop at once.
    NodePreempt,
    /// The node is drained (voluntary departure): links drop at once, but
    /// the departure is announced, so the executor may treat it more
    /// gracefully than a preemption.
    NodeDrain,
}

impl ChurnKind {
    /// The link-health state this membership event drives the node's
    /// links into.
    pub fn target_health(self) -> LinkHealth {
        match self {
            ChurnKind::NodeJoin => LinkHealth::Healthy,
            ChurnKind::NodePreempt | ChurnKind::NodeDrain => LinkHealth::Down,
        }
    }

    /// Stable lowercase name for logs and reports.
    pub fn name(self) -> &'static str {
        match self {
            ChurnKind::NodeJoin => "join",
            ChurnKind::NodePreempt => "preempt",
            ChurnKind::NodeDrain => "drain",
        }
    }
}

/// One scheduled membership event of one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnEvent {
    /// Absolute simulated time at which the event takes effect.
    pub at: SimTime,
    /// Affected node (global node index, cluster-major like the fabric's).
    pub node: u32,
    /// What happens to the node.
    pub kind: ChurnKind,
}

/// An ordered, replayable timeline of node-churn events.
///
/// Events are applied in `(at, insertion-order)` order — the same
/// tie-breaking the simulator uses for every other event — so a schedule
/// replays identically however it was built.
///
/// ```
/// use holmes_netsim::{ChurnSchedule, SimTime};
///
/// let mut churn = ChurnSchedule::new();
/// churn
///     .preempt(SimTime(1_000_000), 3)
///     .join(SimTime(5_000_000), 3);
/// assert_eq!(churn.events().len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChurnSchedule {
    events: Vec<ChurnEvent>,
}

impl ChurnSchedule {
    /// An empty schedule (injecting it is a no-op).
    pub fn new() -> Self {
        Self::default()
    }

    /// All events, in application order.
    pub fn events(&self) -> &[ChurnEvent] {
        &self.events
    }

    /// True when the schedule carries no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Append an arbitrary membership event.
    pub fn push(&mut self, at: SimTime, node: u32, kind: ChurnKind) -> &mut Self {
        self.events.push(ChurnEvent { at, node, kind });
        self
    }

    /// Node `node` joins at `at`.
    pub fn join(&mut self, at: SimTime, node: u32) -> &mut Self {
        self.push(at, node, ChurnKind::NodeJoin)
    }

    /// Node `node` is preempted at `at`.
    pub fn preempt(&mut self, at: SimTime, node: u32) -> &mut Self {
        self.push(at, node, ChurnKind::NodePreempt)
    }

    /// Node `node` is drained at `at`.
    pub fn drain(&mut self, at: SimTime, node: u32) -> &mut Self {
        self.push(at, node, ChurnKind::NodeDrain)
    }

    /// Seeded Poisson-ish preemption process over a set of nodes.
    ///
    /// Each node independently alternates in-service/out-of-service
    /// periods: exponential up-time with mean `mean_up_seconds`, then a
    /// preemption, then an exponential outage with mean
    /// `mean_down_seconds` ended by a rejoin. Events are generated within
    /// `[0, horizon_seconds)`; an outage cut off by the horizon still
    /// gets its rejoin so the schedule leaves every node in service.
    ///
    /// Fully deterministic in `(seed, nodes, horizon, means)`, with the
    /// same per-stream decoupling as
    /// [`FaultSchedule::poisson`](crate::FaultSchedule::poisson): each
    /// node draws from its own seeded stream, so reordering or extending
    /// the node list never perturbs another node's timeline.
    pub fn poisson(
        seed: u64,
        nodes: &[u32],
        horizon_seconds: f64,
        mean_up_seconds: f64,
        mean_down_seconds: f64,
    ) -> Self {
        assert!(mean_up_seconds > 0.0, "mean up-time must be positive");
        assert!(mean_down_seconds > 0.0, "mean outage must be positive");
        let mut schedule = ChurnSchedule::new();
        for (i, &node) in nodes.iter().enumerate() {
            // Per-node stream: decoupled from node-list order re-draws.
            let mut rng = StdRng::seed_from_u64(seed ^ (0x9E37_79B9 + i as u64));
            let mut t = 0.0f64;
            loop {
                t += exponential(&mut rng, mean_up_seconds);
                if t >= horizon_seconds {
                    break;
                }
                let preempt_at = SimTime((t * 1e9) as u64);
                t += exponential(&mut rng, mean_down_seconds);
                let rejoin_at = SimTime((t.min(horizon_seconds) * 1e9) as u64);
                schedule.preempt(preempt_at, node);
                schedule.join(
                    rejoin_at.max(preempt_at + crate::time::SimDuration(1)),
                    node,
                );
            }
        }
        schedule
    }

    /// Inject every event into `sim`. `node_links` maps a node index to
    /// the simulator links the event flips atomically (a joining node not
    /// yet in the fabric maps to an empty slice — the event is then a
    /// pure membership signal). Equivalent to calling
    /// [`NetSim::schedule_churn_at`] per event.
    pub fn apply_to(&self, sim: &mut NetSim, node_links: &[Vec<LinkId>]) {
        for ev in self.events() {
            let links = node_links
                .get(ev.node as usize)
                .map(Vec::as_slice)
                .unwrap_or(&[]);
            sim.schedule_churn_at(ev.at, ev.node, ev.kind, links);
        }
    }
}

/// Exponential draw with the given mean (inverse-CDF of a uniform draw).
fn exponential(rng: &mut StdRng, mean: f64) -> f64 {
    let u: f64 = rng.random();
    // u ∈ [0, 1): 1 − u ∈ (0, 1], so ln is finite and non-positive.
    -mean * (1.0 - u).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_orders_by_insertion() {
        let mut s = ChurnSchedule::new();
        s.preempt(SimTime(5), 1)
            .join(SimTime(9), 1)
            .drain(SimTime(2), 0);
        assert_eq!(s.events().len(), 3);
        assert_eq!(s.events()[0].at, SimTime(5));
        assert_eq!(s.events()[2].kind, ChurnKind::NodeDrain);
        assert!(!s.is_empty());
        assert!(ChurnSchedule::new().is_empty());
    }

    #[test]
    fn kinds_map_to_link_health() {
        assert_eq!(ChurnKind::NodeJoin.target_health(), LinkHealth::Healthy);
        assert_eq!(ChurnKind::NodePreempt.target_health(), LinkHealth::Down);
        assert_eq!(ChurnKind::NodeDrain.target_health(), LinkHealth::Down);
        assert_eq!(ChurnKind::NodePreempt.name(), "preempt");
    }

    #[test]
    fn poisson_is_deterministic_per_seed() {
        let nodes = [0u32, 1, 2];
        let a = ChurnSchedule::poisson(7, &nodes, 100.0, 10.0, 1.0);
        let b = ChurnSchedule::poisson(7, &nodes, 100.0, 10.0, 1.0);
        assert_eq!(a, b);
        let c = ChurnSchedule::poisson(8, &nodes, 100.0, 10.0, 1.0);
        assert_ne!(a, c);
        assert!(
            !a.is_empty(),
            "100 s horizon at 10 s mean up-time must churn"
        );
    }

    #[test]
    fn poisson_pairs_every_preemption_with_a_rejoin() {
        let s = ChurnSchedule::poisson(3, &[0, 4], 50.0, 5.0, 0.5);
        let mut out = 0i32;
        for ev in s.events() {
            match ev.kind {
                ChurnKind::NodePreempt => out += 1,
                ChurnKind::NodeJoin => out -= 1,
                ChurnKind::NodeDrain => panic!("poisson never drains"),
            }
            assert!(ev.at <= SimTime(50_000_000_000));
        }
        assert_eq!(out, 0, "every preemption must rejoin by the horizon");
    }

    #[test]
    fn poisson_rejoins_strictly_after_preemptions() {
        let s = ChurnSchedule::poisson(11, &[0], 200.0, 3.0, 2.0);
        for pair in s.events().chunks(2) {
            assert!(pair[1].at > pair[0].at, "{pair:?}");
        }
    }
}
