//! Abstract-step view of the executor for the symbolic progress checker.
//!
//! `holmes-analysis::progress` model-checks collective schedules against
//! an abstract fault/churn event space; this module is the bridge from
//! the executor's concrete world — [`ExecutionSpec`], [`FaultPlan`],
//! retry arming rules — into that abstract domain, so the checker's
//! model provably mirrors what the executor actually does:
//!
//! * the per-collective schedule is regenerated exactly as the executor
//!   does (bytes split across channels, cluster-major grouping);
//! * the retry model is armed by the executor's own rule,
//!   [`FaultPlan::armed_retry`], with the plan's fuel bound (a unit test
//!   holds `RetryModel::default()` equal to the default policy's model);
//! * each concrete fault/churn event maps to its abstract counterpart
//!   (a link fault keeps its netsim [`FaultTarget`](holmes_netsim::FaultTarget),
//!   the checker's link type too), and — since concrete events fire at
//!   wall-clock times the abstract domain cannot see — every event is
//!   swept across a sample of round boundaries, over-approximating the
//!   arrival times.
//!
//! It lives here, not in `holmes-engine`, because this crate is the one
//! that links both the engine and `holmes-analysis`: the runtime never
//! runs the checker. Its callers are [`crate::verify_preset_progress`]
//! (the `progress_check` tool and the preset gate tests) and the
//! differential test that holds the abstract verdicts against the
//! concrete simulator.

use holmes_analysis::progress::{
    check_progress_with_scenarios, ProgressCollective, ProgressEvent, ProgressReport, ProgressSpec,
    RetryModel, ScenarioEvent,
};
use holmes_engine::{ExecutionSpec, FaultPlan, RetryPolicy};
use holmes_netsim::{ChurnKind, LinkHealth};
use holmes_topology::Topology;

/// Build the abstract progress spec for an execution: one
/// [`ProgressCollective`] per collective (schedule regenerated with the
/// executor's own per-channel byte split), the retry model armed under
/// the executor's arming rule, and trunk presence taken from the
/// topology.
pub fn progress_spec(
    topo: &Topology,
    spec: &ExecutionSpec,
    plan: Option<&FaultPlan>,
) -> ProgressSpec {
    let collectives = spec
        .collectives
        .iter()
        .map(|c| {
            let channels = c.channels.max(1);
            ProgressCollective::from_kind(
                topo,
                c.kind,
                c.devices.clone(),
                c.bytes / u64::from(channels),
            )
        })
        .collect();
    let retry = plan.and_then(FaultPlan::armed_retry).map(retry_model);
    ProgressSpec {
        collectives,
        retry,
        has_trunk: topo.cluster_count() > 1,
        extra_wait_edges: Vec::new(),
    }
}

/// The checker's view of a retry policy: its fuel bound and backoff,
/// with the NIC-loss TCP fallback the executor always offers.
fn retry_model(policy: RetryPolicy) -> RetryModel {
    RetryModel {
        max_retries: Some(policy.max_retries),
        backoff_multiplier: policy.backoff_multiplier,
        tcp_fallback: true,
    }
}

/// The abstract events a fault plan can produce, in schedule order.
/// Stragglers are pure slowdowns — they cannot block progress — so they
/// have no abstract counterpart.
pub fn plan_events(plan: &FaultPlan) -> Vec<ProgressEvent> {
    let mut events = Vec::new();
    for f in &plan.link_faults {
        let link = f.target;
        events.push(match f.health {
            LinkHealth::Healthy => ProgressEvent::LinkUp { link },
            LinkHealth::Degraded { .. } => ProgressEvent::LinkDegraded { link },
            LinkHealth::Down => ProgressEvent::LinkDown { link },
        });
    }
    for c in &plan.churn {
        events.push(match c.kind {
            ChurnKind::NodeJoin => ProgressEvent::NodeJoin { node: c.node },
            ChurnKind::NodePreempt => ProgressEvent::NodePreempt { node: c.node },
            ChurnKind::NodeDrain => ProgressEvent::NodeDrain { node: c.node },
        });
    }
    events
}

/// Single-event scenarios for a fault plan, each event swept across a
/// sample of round boundaries (first, quartiles, last): concrete events
/// fire at wall-clock times, so the abstract check must cover every
/// phase of the schedule they could land in.
pub fn plan_scenarios(spec: &ProgressSpec, plan: &FaultPlan) -> Vec<Vec<ScenarioEvent>> {
    let rounds = spec
        .collectives
        .iter()
        .map(|c| c.schedule.round_count())
        .max()
        .unwrap_or(0)
        .max(1);
    let mut boundaries = vec![0, rounds / 4, rounds / 2, 3 * rounds / 4, rounds - 1];
    boundaries.sort_unstable();
    boundaries.dedup();
    let mut scenarios = Vec::new();
    for event in plan_events(plan) {
        for &boundary in &boundaries {
            scenarios.push(vec![ScenarioEvent { boundary, event }]);
        }
    }
    scenarios
}

/// Check an execution against exactly the events its fault plan can
/// produce (plus the static wait-for and member-loss-claim properties).
pub fn check_execution(
    topo: &Topology,
    spec: &ExecutionSpec,
    plan: Option<&FaultPlan>,
) -> ProgressReport {
    let pspec = progress_spec(topo, spec, plan);
    let scenarios = plan.map(|p| plan_scenarios(&pspec, p)).unwrap_or_default();
    check_progress_with_scenarios(topo, &pspec, &scenarios)
}

#[cfg(test)]
mod tests {
    use super::*;
    use holmes_engine::{CollKind, CollectiveSpec, TransportPolicy};
    use holmes_netsim::SimTime;
    use holmes_topology::{presets, Rank};

    fn spec_for(topo: &Topology) -> ExecutionSpec {
        let devices: Vec<Rank> = (0..topo.device_count()).map(Rank).collect();
        ExecutionSpec {
            programs: Vec::new(),
            collectives: vec![CollectiveSpec {
                kind: CollKind::AllReduce,
                devices,
                bytes: 1 << 22,
                channels: 1,
            }],
            transport: TransportPolicy::default(),
        }
    }

    #[test]
    fn default_retry_model_is_the_default_policy() {
        // `verify_preset_progress` arms `RetryModel::default()` for its
        // generic sweep; it must stay the executor's default policy.
        assert_eq!(RetryModel::default(), retry_model(RetryPolicy::default()));
    }

    #[test]
    fn faulted_plan_checks_clean() {
        let topo = presets::hybrid_two_cluster(2);
        let spec = spec_for(&topo);
        let mut plan = FaultPlan::default();
        plan.kill_nic(SimTime(100_000_000), 0);
        let report = check_execution(&topo, &spec, Some(&plan));
        assert!(report.is_clean(), "{:?}", report.counterexamples);
        assert!(report.scenarios > 0);
    }

    #[test]
    fn churn_only_plan_checks_clean_without_retry() {
        let topo = presets::hybrid_two_cluster(2);
        let spec = spec_for(&topo);
        let mut plan = FaultPlan::default();
        plan.preempt_node(SimTime(100_000_000), 1);
        let report = check_execution(&topo, &spec, Some(&plan));
        // The preempt fails fast (intolerant ring) — a legitimate
        // outcome, never a stall, even though no retry is armed.
        assert!(report.is_clean(), "{:?}", report.counterexamples);
        assert!(report.fails_fast > 0);
    }
}
