//! Cross-crate resilience tests: the fault-injection stack end to end.
//!
//! Two claims are pinned here:
//!
//! 1. the trace-driven [`ReliabilityModel::simulated_goodput`] replay
//!    agrees with the analytic Young/Daly [`ReliabilityModel::plan`]
//!    goodput (the analytic formula is a first-order expansion; the
//!    replay measures the same process exactly, so over a long horizon
//!    they must coincide up to Poisson sampling noise);
//! 2. a two-cluster iteration that loses a NIC mid-run completes via the
//!    engine's TCP fallback, reports the degradation window, and replays
//!    byte-identically under the same seed.

#![allow(
    clippy::float_cmp,
    reason = "test code: exact comparisons and unwrapped fixtures"
)]

use holmes_repro::engine::DpSyncStrategy;
use holmes_repro::parallel::{synthesize_placement, GroupLayout, ParallelDegrees};
use holmes_repro::topology::presets;
use holmes_repro::{run_resilient, FaultPreset, ReliabilityModel};

/// Tolerance between simulated and analytic goodput, absolute.
///
/// Two error sources, both documented at their origin:
/// * the analytic formula is a first-order expansion (it prices failure
///   waste as τ/2 on average and ignores failures during checkpoints and
///   restarts), worth O((τ/MTBF)²) ≈ 10⁻³ here;
/// * the replay sees a finite number of failures; at ~200 MTBFs the
///   relative Poisson noise is ~1/√200 ≈ 7% *of the failure overhead*,
///   which is itself a few percent of the total.
///
/// 0.02 absolute covers both with margin while still failing on any real
/// modeling divergence (e.g. losing the recompute-after-restart term).
const GOODPUT_TOLERANCE: f64 = 0.02;

#[test]
fn simulated_goodput_matches_analytic_plan_on_hybrid_split_presets() {
    let model = ReliabilityModel::default();
    for (a, b) in [(4u32, 4u32), (6, 6)] {
        let topo = presets::hybrid_split(a, b);
        for pg in [1u8, 3] {
            let cfg = holmes_repro::model::ParameterGroup::table2(pg).config;
            let plan = model.plan(&topo, &cfg);
            let horizon = 200.0 * plan.job_mtbf_seconds;
            for seed in [1u64, 42, 1234] {
                let trace = model.simulated_goodput(&topo, &cfg, seed, horizon);
                assert!(
                    (trace.goodput - plan.goodput).abs() < GOODPUT_TOLERANCE,
                    "hybrid_split({a},{b}) pg{pg} seed {seed}: \
                     simulated {} vs analytic {}",
                    trace.goodput,
                    plan.goodput
                );
            }
        }
    }
}

#[test]
fn flakier_fleets_lower_simulated_goodput_monotonically() {
    let topo = presets::hybrid_split(4, 4);
    let cfg = holmes_repro::model::ParameterGroup::table2(3).config;
    let goodput_at = |mtbf_hours: f64| {
        let model = ReliabilityModel {
            node_mtbf_hours: mtbf_hours,
            ..ReliabilityModel::default()
        };
        let plan = model.plan(&topo, &cfg);
        model
            .simulated_goodput(&topo, &cfg, 5, 200.0 * plan.job_mtbf_seconds)
            .goodput
    };
    let reliable = goodput_at(2000.0);
    let flaky = goodput_at(24.0);
    assert!(flaky < reliable, "flaky {flaky} vs reliable {reliable}");
    assert!(flaky > 0.0);
}

/// The PR's acceptance scenario: a two-cluster run with a mid-iteration
/// NIC failure completes via TCP-fallback re-planning (no error), the
/// timeline shows the degradation window, and the same seed reproduces
/// the event log byte-for-byte.
#[test]
fn two_cluster_nic_failure_recovers_and_replays_deterministically() {
    let topo = presets::hybrid_two_cluster(2);
    let seed = 42;
    let r = run_resilient(&topo, 1, FaultPreset::DyingNic, seed, None, None)
        .expect("NIC loss must recover, not error");

    // The run completed and was visibly degraded.
    assert!(r.faulted_seconds > r.clean_seconds, "{:?}", r.slowdown());
    assert!(
        !r.fault_windows.is_empty(),
        "the degradation window is on the timeline"
    );
    let window = &r.fault_windows[0];
    assert!(window.end_seconds > window.start_seconds);
    assert!(window.end_seconds <= r.faulted_seconds + 1e-9);

    // Recovery went through the TCP fallback and the parallel layer's
    // downgrade pass picked it up for the next iteration.
    assert!(r.tcp_fallback_flows > 0);
    assert!(r.flow_retries > 0);
    let replan = r.replan.as_ref().expect("lost NIC triggers a replan");
    assert!(!replan.downgraded_groups.is_empty());
    assert!(replan.report.ethernet_groups > 0);

    // Byte-for-byte replay under the same seed.
    let again = run_resilient(&topo, 1, FaultPreset::DyingNic, seed, None, None).unwrap();
    assert_eq!(r.log_text(), again.log_text());
    assert_eq!(r.log_text().as_bytes(), again.log_text().as_bytes());
}

/// This PR's acceptance scenario: a mid-iteration preemption storm under
/// the parameter-server strategy re-shards deterministically — same seed,
/// byte-identical event log — and the migration-aware re-plan converges
/// to the exact placement a from-scratch synthesis of the post-churn
/// topology picks, with the migration itself structurally verified.
#[test]
fn preemption_re_shard_is_deterministic_and_converges_to_a_fresh_plan() {
    let topo = presets::hybrid_two_cluster(2);
    let seed = 7;
    let ps = DpSyncStrategy::ParameterServer { servers: 2 };
    let r = run_resilient(&topo, 1, FaultPreset::PreemptStorm, seed, Some(ps), None)
        .expect("the PS strategy tolerates member loss");

    // Deterministic re-shard: the full event log replays byte-for-byte.
    let again = run_resilient(&topo, 1, FaultPreset::PreemptStorm, seed, Some(ps), None).unwrap();
    assert_eq!(r.log_text().as_bytes(), again.log_text().as_bytes());

    // The storm triggered the migration-aware re-plan and it is sound:
    // rank coverage, §3.2 NIC classification and priced shard moves all
    // verify against the post-churn topology.
    let replan = r.delta_replan.as_ref().expect("storm triggers a re-shard");
    assert!(replan.new_topology.device_count() < topo.device_count());
    let errs = holmes_repro::analysis::verify_replan(replan);
    assert!(errs.is_empty(), "{errs:?}");

    // Convergence: re-planning through the delta equals planning the
    // post-churn topology from scratch. PG1 runs t = 1, p = 2; the data
    // degree is re-inferred from the surviving device count, and the
    // gradient volume is the per-stage share resilience planning uses.
    let cfg = holmes_repro::model::ParameterGroup::table2(1).config;
    let degrees = ParallelDegrees::infer_data(1, 2, replan.new_topology.device_count()).unwrap();
    let layout = GroupLayout::new(degrees);
    let grad = holmes_repro::model::CommVolumes::dp_gradient_bytes(
        cfg.parameter_count() / u64::from(degrees.pipeline),
        degrees.tensor,
    );
    let (fresh, _) = synthesize_placement(&replan.new_topology, &layout, grad);
    assert_eq!(replan.placement.assignment, fresh.assignment);
    assert_eq!(replan.placement.cluster_order, fresh.cluster_order);
    assert_eq!(replan.placement.cost_seconds, fresh.cost_seconds);
}

/// Every churn re-plan `run_resilient` hands back is sound and
/// executable: structurally verified, and every state move routable on
/// the post-churn fabric (`verify_replan_progress`). Runs every preset on
/// both resilience environments, under the planner's sync strategy and
/// under the parameter-server strategy, in either build profile.
#[test]
fn churn_replans_pass_the_progress_verifier() {
    let environments = [
        ("hybrid_two_cluster_2", presets::hybrid_two_cluster(2), 1u8),
        ("hybrid_split_4_4", presets::hybrid_split(4, 4), 3),
    ];
    let mut replans = 0;
    for (env, topo, pg) in &environments {
        for preset in FaultPreset::ALL {
            for dp in [None, Some(DpSyncStrategy::ParameterServer { servers: 2 })] {
                let r = run_resilient(topo, *pg, preset, 42, dp, None)
                    .unwrap_or_else(|e| panic!("{env}/{}/{dp:?}: {e}", preset.name()));
                if let Some(outcome) = &r.delta_replan {
                    let defects = holmes_repro::analysis::verify_replan_progress(outcome);
                    assert!(
                        defects.is_empty(),
                        "{env}/{}/{dp:?}: {defects:?}",
                        preset.name()
                    );
                    replans += 1;
                }
            }
        }
    }
    assert!(replans > 0, "no preset re-planned");
}
