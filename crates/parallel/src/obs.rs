//! Planning-phase observability: post-hoc recording of NIC selection,
//! placement search and replanning results into an
//! [`holmes_obs::ObsSession`].
//!
//! The planning layer has no simulated clock, so every event lands on
//! the trace's synthetic planning clock
//! ([`holmes_obs::TraceSink::planning_event`]) — one deterministic tick
//! per event, in emission order. Recording is strictly *post-hoc* over
//! finished result structures: candidate evaluation fans out across
//! threads, and threading a sink through that fan-out would make event
//! order racy. Recording the ranked results afterwards keeps the trace
//! byte-identical at any thread count.

use holmes_obs::{Layer, ObsSession};

use crate::nic_selection::{NicSelectionReport, ReplanOutcome};
use crate::search::PlacementSearchResult;

/// Record one plan's Automatic NIC Selection outcome: a `group-formed`
/// event per data-parallel group (with its algorithm and NIC class) and
/// a `tcp-fallback-chosen` event per group forced down to Ethernet.
pub fn record_nic_selection(session: &mut ObsSession, report: &NicSelectionReport) {
    let reg = &mut session.registry;
    reg.counter_add("parallel.dp_groups", report.groups.len() as u64);
    reg.counter_add("parallel.rdma_groups", u64::from(report.rdma_groups));
    reg.counter_add(
        "parallel.ethernet_groups",
        u64::from(report.ethernet_groups),
    );
    for g in &report.groups {
        let nic = match g.rdma_nic {
            Some(t) => format!("\"{t:?}\""),
            None => "\"ethernet\"".to_owned(),
        };
        session.trace.planning_event(
            Layer::Parallel,
            u64::from(g.group),
            format!("group-formed g{} {:?}", g.group, g.algo),
            "nic-selection",
            vec![
                ("devices".to_owned(), format!("{}", g.devices.len())),
                ("nic".to_owned(), nic),
            ],
        );
        if g.forced_tcp {
            reg.counter_add("parallel.forced_tcp_groups", 1);
            session.trace.planning_event(
                Layer::Parallel,
                u64::from(g.group),
                format!("tcp-fallback-chosen g{}", g.group),
                "nic-selection",
                vec![],
            );
        }
    }
}

/// Record a finished placement search: one `candidate-scored` summary
/// (the search only surfaces the winner plus the evaluation count) with
/// the winning order's cost.
pub fn record_search(session: &mut ObsSession, result: &PlacementSearchResult) {
    let reg = &mut session.registry;
    reg.counter_add("parallel.placements_evaluated", result.evaluated);
    reg.gauge_set("parallel.placement_cost_seconds", result.cost_seconds);
    session.trace.planning_event(
        Layer::Parallel,
        0,
        format!(
            "placement-selected [{}]",
            result
                .cluster_order
                .iter()
                .map(|c| c.0.to_string())
                .collect::<Vec<_>>()
                .join(",")
        ),
        "placement-search",
        vec![("evaluated".to_owned(), format!("{}", result.evaluated))],
    );
}

/// Record a finished guided synthesis run: the winner (via
/// [`record_search`]'s counters and `placement-selected` event) plus the
/// branch-and-bound search profile — expansion, per-rule pruning and
/// group-pricing counters and a `synthesis-finished` event. All counts are
/// deterministic per topology, so recorded sessions are byte-identical
/// across runs.
pub fn record_synth(
    session: &mut ObsSession,
    result: &PlacementSearchResult,
    stats: &crate::synth::SynthStats,
) {
    record_search(session, result);
    let reg = &mut session.registry;
    reg.counter_add("parallel.synth_expanded", stats.expanded);
    reg.counter_add("parallel.synth_pushed", stats.pushed);
    reg.counter_add("parallel.synth_pruned_bound", stats.pruned_bound);
    reg.counter_add("parallel.synth_pruned_dominated", stats.pruned_dominated);
    reg.counter_add("parallel.synth_pruned_symmetry", stats.pruned_symmetry);
    reg.counter_add("parallel.synth_priced", stats.priced);
    session.trace.planning_event(
        Layer::Parallel,
        0,
        format!(
            "synthesis-finished ({})",
            if stats.heuristic_won {
                "heuristic-won"
            } else {
                "improved"
            }
        ),
        "plan-synthesis",
        vec![
            ("expanded".to_owned(), format!("{}", stats.expanded)),
            ("pushed".to_owned(), format!("{}", stats.pushed)),
            ("pruned".to_owned(), format!("{}", stats.pruned_total())),
        ],
    );
}

/// Record a NIC-loss replanning pass: a `replan-triggered` event, one
/// `tcp-fallback-chosen` per downgraded group, and the analytic
/// before/after DP-sync costs.
pub fn record_replan(session: &mut ObsSession, outcome: &ReplanOutcome) {
    let reg = &mut session.registry;
    reg.counter_add("parallel.replans", 1);
    reg.counter_add(
        "parallel.replan_downgraded_groups",
        outcome.downgraded_groups.len() as u64,
    );
    reg.gauge_set(
        "parallel.replan_cost_before_seconds",
        outcome.cost_before_seconds,
    );
    reg.gauge_set(
        "parallel.replan_cost_after_seconds",
        outcome.cost_after_seconds,
    );
    session.trace.planning_event(
        Layer::Parallel,
        0,
        "replan-triggered",
        "replan",
        vec![(
            "downgraded".to_owned(),
            format!("{}", outcome.downgraded_groups.len()),
        )],
    );
    for &g in &outcome.downgraded_groups {
        session.trace.planning_event(
            Layer::Parallel,
            u64::from(g),
            format!("tcp-fallback-chosen g{g}"),
            "replan",
            vec![],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degrees::ParallelDegrees;
    use crate::groups::GroupLayout;
    use crate::scheduler::DeviceAssignment;
    use holmes_topology::presets;

    #[test]
    fn nic_selection_recording_is_deterministic() {
        let topo = presets::hybrid_two_cluster(2);
        let n = topo.device_count();
        let layout = GroupLayout::new(ParallelDegrees::new(4, 2, 4, n).unwrap());
        let assignment = DeviceAssignment::identity(n);
        let report = NicSelectionReport::analyze(&topo, &layout, &assignment);
        let render = || {
            let mut s = ObsSession::new();
            record_nic_selection(&mut s, &report);
            (s.registry.to_json(), s.trace.to_chrome_trace())
        };
        assert_eq!(render(), render());
        let (metrics, trace) = render();
        assert!(metrics.contains("parallel.dp_groups"));
        assert!(trace.contains("group-formed"));
    }

    #[test]
    fn synth_recording_captures_the_search_profile() {
        let topo = presets::table4_4r_4ib_4ib();
        let n = topo.device_count();
        let layout = GroupLayout::new(ParallelDegrees::infer_data(1, 2, n).unwrap());
        let (result, stats) = crate::synth::synthesize_placement(&topo, &layout, 1 << 32);
        let render = || {
            let mut s = ObsSession::new();
            record_synth(&mut s, &result, &stats);
            (s.registry.to_json(), s.trace.to_chrome_trace())
        };
        assert_eq!(render(), render());
        let (metrics, trace) = render();
        assert!(metrics.contains("parallel.synth_expanded"));
        assert!(metrics.contains("parallel.synth_priced"));
        assert!(metrics.contains("parallel.placements_evaluated"));
        assert!(trace.contains("synthesis-finished"));
        assert!(trace.contains("placement-selected"));
    }
}
