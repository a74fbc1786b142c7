//! Engine-level fault plans and degraded-mode recovery policy.
//!
//! An experiment wants to say "node 3 loses its RDMA NIC at t = 2 s" or
//! "the inter-cluster trunk flaps". A [`FaultPlan`] lists such faults in
//! netsim's own vocabulary — link faults against a [`FaultTarget`]
//! (re-exported here from `holmes_netsim`), membership events as
//! [`ChurnEvent`]s — plus straggler GPU slowdowns, and
//! [`crate::executor::execute_with_faults`] schedules them on the
//! simulator once the fabric is built. A link fault whose target the
//! fabric lacks (a node past the last, or the trunk when
//! [`FaultPlan::trunk_bytes_per_sec`] is unset) fails the run with
//! [`crate::ExecError::FaultTargetMissing`] before any work.
//!
//! Recovery is the executor's job, parameterized by [`RetryPolicy`]:
//! every inter-node flow launched under a fault plan is armed with a
//! timeout; a flow found *parked* (zero rate on a dead link) when its
//! timeout fires is cancelled and relaunched with exponential backoff —
//! and if the park is caused by a down RDMA link, the owning node's NIC
//! is declared lost ([`DegradedCondition::LostNic`]) and traffic falls
//! back to TCP over Ethernet, mirroring the paper's §3.2 fallback for
//! groups that cannot run homogeneous RDMA. Flows that are slow but
//! still moving only get their deadline extended, so degraded (rather
//! than dead) links stretch the timeline visibly — surfaced as
//! [`DegradedCondition::DegradedLink`] — without spurious cancellation.

pub use holmes_netsim::FaultTarget;
use holmes_netsim::{ChurnEvent, ChurnKind, LinkHealth, LinkId, SimTime};
use holmes_topology::Rank;

/// One scheduled health transition of a [`FaultTarget`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFault {
    /// Simulated time at which the transition takes effect.
    pub at: SimTime,
    /// What fails (or recovers).
    pub target: FaultTarget,
    /// Health state entered at `at`.
    pub health: LinkHealth,
}

/// A straggler GPU: all of a rank's compute ops run `slowdown` times
/// slower (H2-style stragglers, priced in the timeline rather than the
/// network).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Straggler {
    /// Affected device.
    pub rank: Rank,
    /// Compute-time multiplier, ≥ 1.0 for a slowdown.
    pub slowdown: f64,
}

/// Timeout / retry / backoff parameters for degraded-mode recovery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retries per transfer after the first attempt; exhausting them
    /// fails the run with [`crate::ExecError::Unrecoverable`].
    pub max_retries: u32,
    /// A flow's timeout is `max(min_timeout_seconds, expected_seconds *
    /// timeout_factor)` where `expected_seconds` is the uncontended
    /// latency + bytes/rate estimate of its route.
    pub timeout_factor: f64,
    /// Floor on any armed timeout, so tiny transfers are not cancelled
    /// by scheduling noise.
    pub min_timeout_seconds: f64,
    /// Multiplier applied to the timeout on every firing (exponential
    /// backoff).
    pub backoff_multiplier: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            timeout_factor: 8.0,
            min_timeout_seconds: 0.05,
            backoff_multiplier: 2.0,
        }
    }
}

/// A deterministic fault scenario for one executed iteration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Link-health transitions, applied in `(at, order)` order.
    pub link_faults: Vec<LinkFault>,
    /// Node-membership events, applied in `(at, order)` order: each
    /// flips the node's RDMA *and* Ethernet uplinks atomically (down for
    /// preempt/drain, up for a join), and the executor receives it as a
    /// first-class completion.
    pub churn: Vec<ChurnEvent>,
    /// Straggling devices.
    pub stragglers: Vec<Straggler>,
    /// Recovery parameters, in force only when [`FaultPlan::armed_retry`]
    /// returns them: timeouts are armed only when `link_faults` is
    /// non-empty, so a plan without link faults never times a flow out.
    pub retry: RetryPolicy,
    /// When set, the fabric is built with a shared inter-cluster trunk
    /// of this capacity (bytes/second) — required for
    /// [`FaultTarget::Trunk`] faults, which otherwise have no link to
    /// act on.
    pub trunk_bytes_per_sec: Option<f64>,
}

impl FaultPlan {
    /// An empty plan (equivalent to [`crate::executor::execute`]).
    pub fn none() -> Self {
        Self::default()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.link_faults.is_empty() && self.churn.is_empty() && self.stragglers.is_empty()
    }

    /// The retry policy the executor arms, and `holmes::progress`
    /// mirrors for the progress checker: `retry` when the plan carries
    /// link faults, else `None`.
    pub fn armed_retry(&self) -> Option<RetryPolicy> {
        (!self.link_faults.is_empty()).then_some(self.retry)
    }

    /// Append a health transition on `target` at `at`.
    pub fn push(&mut self, at: SimTime, target: FaultTarget, health: LinkHealth) -> &mut Self {
        self.link_faults.push(LinkFault { at, target, health });
        self
    }

    /// Kill a node's RDMA NIC at `at` (never restored).
    pub fn kill_nic(&mut self, at: SimTime, node: u32) -> &mut Self {
        self.push(at, FaultTarget::NodeRdma(node), LinkHealth::Down)
    }

    /// Degrade the trunk to `fraction` of nominal between `from` and `to`.
    pub fn degrade_trunk(&mut self, from: SimTime, to: SimTime, fraction: f64) -> &mut Self {
        self.push(from, FaultTarget::Trunk, LinkHealth::Degraded { fraction })
            .push(to, FaultTarget::Trunk, LinkHealth::Healthy)
    }

    /// Mark `rank` as a straggler running `slowdown`× slower.
    pub fn straggler(&mut self, rank: Rank, slowdown: f64) -> &mut Self {
        self.stragglers.push(Straggler { rank, slowdown });
        self
    }

    /// Append a membership event on `node` at `at`.
    pub fn churn_event(&mut self, at: SimTime, node: u32, kind: ChurnKind) -> &mut Self {
        self.churn.push(ChurnEvent { at, node, kind });
        self
    }

    /// Preempt `node` at `at`: all of its uplinks drop atomically.
    pub fn preempt_node(&mut self, at: SimTime, node: u32) -> &mut Self {
        self.churn_event(at, node, ChurnKind::NodePreempt)
    }

    /// Drain `node` at `at` (announced departure).
    pub fn drain_node(&mut self, at: SimTime, node: u32) -> &mut Self {
        self.churn_event(at, node, ChurnKind::NodeDrain)
    }

    /// `node` (re-)joins at `at`: its uplinks come back up.
    pub fn join_node(&mut self, at: SimTime, node: u32) -> &mut Self {
        self.churn_event(at, node, ChurnKind::NodeJoin)
    }
}

/// A degradation the executor *reacted to* (as opposed to silently
/// stretching the timeline). Reported in
/// [`crate::IterationReport::degraded_conditions`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DegradedCondition {
    /// A link dropped to a fraction of nominal capacity.
    DegradedLink {
        /// The degraded fabric link.
        link: LinkId,
        /// Remaining fraction of nominal capacity.
        fraction: f64,
        /// When the degradation arrived, in iteration seconds.
        at_seconds: f64,
    },
    /// A node's RDMA NIC was declared lost after a parked flow timed
    /// out on one of its down links; the node's traffic fell back to
    /// TCP over Ethernet.
    LostNic {
        /// Global node index.
        node: u32,
        /// When the loss was detected, in iteration seconds.
        at_seconds: f64,
    },
    /// A device ran its compute `slowdown`× slower than modeled.
    Straggler {
        /// Affected device.
        rank: Rank,
        /// Compute-time multiplier.
        slowdown: f64,
    },
    /// A node-membership event arrived mid-iteration (preempt / drain /
    /// join). For losses the executor either fails fast (all-reduce
    /// strategies, surfacing [`crate::ExecError::NodeLost`]) or continues
    /// degraded (parameter-server emulation); joins always continue.
    NodeChurn {
        /// Global node index.
        node: u32,
        /// What happened to the node.
        kind: ChurnKind,
        /// When the event arrived, in iteration seconds.
        at_seconds: f64,
    },
}

/// A contiguous window during which a fabric link sat in a non-healthy
/// state, reconstructed from the simulator's fault events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultWindow {
    /// Affected fabric link.
    pub link: LinkId,
    /// The unhealthy state the link sat in.
    pub health: LinkHealth,
    /// Window start, iteration seconds.
    pub start_seconds: f64,
    /// Window end, iteration seconds (windows still open when the
    /// iteration drains close at the final simulator clock).
    pub end_seconds: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_builders_accumulate() {
        let mut plan = FaultPlan::none();
        assert!(plan.is_empty());
        plan.kill_nic(SimTime(5), 3)
            .degrade_trunk(SimTime(1), SimTime(2), 0.25)
            .straggler(Rank(7), 1.5);
        assert_eq!(plan.link_faults.len(), 3);
        assert_eq!(plan.stragglers.len(), 1);
        assert!(!plan.is_empty());
        assert_eq!(plan.link_faults[0].target, FaultTarget::NodeRdma(3));
        assert_eq!(
            plan.link_faults[1].health,
            LinkHealth::Degraded { fraction: 0.25 }
        );
    }

    #[test]
    fn retry_policy_defaults_are_sane() {
        let p = RetryPolicy::default();
        assert!(p.max_retries >= 1);
        assert!(p.timeout_factor > 1.0);
        assert!(p.backoff_multiplier > 1.0);
        assert!(p.min_timeout_seconds > 0.0);
    }
}
