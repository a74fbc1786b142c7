//! Node-membership events: whole nodes leaving and joining mid-run.
//!
//! A [`ChurnEvent`] names a node and what happens to it: it is preempted
//! (all of its links drop atomically), drained (same link effect, but
//! announced as a voluntary departure), or joins (its links come up).
//! [`NetSim::schedule_churn_at`](crate::NetSim::schedule_churn_at)
//! applies one through the same settle/recompute path as a link fault,
//! in one event: all of the node's links change health at the same
//! instant, so a preemption never half-kills a node. The engine's fault
//! plans carry their membership events as `ChurnEvent`s, and identical
//! timelines replay byte-identical event logs on `NetSim` and `RefSim`
//! (property-tested in `crates/netsim/tests/equivalence.rs`).

use crate::link::LinkHealth;
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_map_to_link_health() {
        assert_eq!(ChurnKind::NodeJoin.target_health(), LinkHealth::Healthy);
        assert_eq!(ChurnKind::NodePreempt.target_health(), LinkHealth::Down);
        assert_eq!(ChurnKind::NodeDrain.target_health(), LinkHealth::Down);
        assert_eq!(ChurnKind::NodePreempt.name(), "preempt");
    }
}
