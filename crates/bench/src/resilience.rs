//! The `resilience` experiment family: clean, trunk-fault, NIC-loss and
//! node-churn runs of the same planned iteration, reported as
//! `BENCH_resilience.json`.
//!
//! Each row compares a faulted execution against its clean baseline on an
//! identical fabric, recording the wall-clock stretch, retry/fallback
//! counters, the parallel layer's downgrade or migration-aware re-plan,
//! and the Young/Daly elastic decision. The churn presets additionally
//! run under the parameter-server strategy, giving the PS-vs-all-reduce
//! crossover: the ring run aborts into a checkpoint restart where the PS
//! run continues degraded. All rows are deterministic in the fixed seed,
//! so the JSON snapshot is byte-stable across runs and machines.

use holmes::engine::DpSyncStrategy;
use holmes::{run_resilient, FaultPreset, ResilienceReport};
use holmes_obs::json::{self, Value};
use holmes_obs::{ObsReport, ObsSession};
use holmes_topology::{presets, Topology};

use crate::snapshot::{round, Snapshot};

/// Seed shared by every row: the snapshot is a regression artifact, not a
/// statistical sample.
pub const SEED: u64 = 42;

/// One (environment × preset) cell of the family.
#[derive(Debug, Clone)]
pub struct ResilienceRow {
    /// Environment label.
    pub env: &'static str,
    /// Scenario outcome.
    pub report: ResilienceReport,
    /// Unified observability snapshot of the faulted run (one fresh
    /// session per scenario, so counters are strictly per-iteration).
    pub obs: ObsReport,
}

fn environments(quick: bool) -> Vec<(&'static str, Topology, u8)> {
    let mut envs = vec![("hybrid_two_cluster_2", presets::hybrid_two_cluster(2), 1u8)];
    if !quick {
        envs.push(("hybrid_split_4_4", presets::hybrid_split(4, 4), 3));
    }
    envs
}

/// Presets that exercise node membership churn: these get a second row
/// under the parameter-server strategy for the PS-vs-AR crossover.
fn churns(preset: FaultPreset) -> bool {
    matches!(
        preset,
        FaultPreset::PreemptStorm | FaultPreset::ScaleUpMidrun | FaultPreset::StragglerNode
    )
}

/// Run the whole family. `quick` restricts to the small two-cluster
/// environment (the CI profile); the full profile adds the paper's
/// Figure 6 hybrid-split fleet. Every preset runs under the planner's
/// default (ring-based) sync strategy; the churn presets run again under
/// [`DpSyncStrategy::ParameterServer`] so the snapshot carries both sides
/// of the crossover.
pub fn run_family(quick: bool) -> Vec<ResilienceRow> {
    let mut rows = Vec::new();
    for (env, topo, pg) in environments(quick) {
        for preset in FaultPreset::ALL {
            let mut session = ObsSession::new();
            let report = run_resilient(&topo, pg, preset, SEED, None, Some(&mut session))
                .unwrap_or_else(|e| panic!("resilience {env}/{}: {e}", preset.name()));
            rows.push(ResilienceRow {
                env,
                report,
                obs: session.report(),
            });
            if churns(preset) {
                let ps = DpSyncStrategy::ParameterServer { servers: 2 };
                let mut session = ObsSession::new();
                let report = run_resilient(&topo, pg, preset, SEED, Some(ps), Some(&mut session))
                    .unwrap_or_else(|e| panic!("resilience {env}/{}/ps: {e}", preset.name()));
                rows.push(ResilienceRow {
                    env,
                    report,
                    obs: session.report(),
                });
            }
        }
    }
    rows
}

/// The family as a `BENCH_resilience.json` snapshot. Every field is
/// deterministic in the fixed seed, so the whole document is `exact`.
pub fn snapshot(rows: &[ResilienceRow], profile: &str) -> Snapshot {
    let mut snap = Snapshot::default();
    snap.exact("profile", profile);
    snap.exact("seed", SEED);
    snap.exact("scenarios", rows.iter().map(scenario).collect::<Vec<_>>());

    // The headline curve: for each churn preset, the ring-based run vs
    // the parameter-server run of the identical fault timeline.
    // `ps_advantage > 1` means PS finished the iteration faster than the
    // ring strategy (which typically paid a checkpoint restart).
    let is_ps =
        |row: &ResilienceRow| matches!(row.report.strategy, DpSyncStrategy::ParameterServer { .. });
    let crossover = rows
        .iter()
        .filter(|ar| churns(ar.report.preset) && !is_ps(ar))
        .filter_map(|ar| {
            let ps = rows
                .iter()
                .find(|ps| ps.env == ar.env && ps.report.preset == ar.report.preset && is_ps(ps))?;
            let advantage = if ps.report.faulted_seconds > 0.0 {
                ar.report.faulted_seconds / ps.report.faulted_seconds
            } else {
                1.0
            };
            Some(json::obj([
                ("env", ar.env.into()),
                ("preset", ar.report.preset.name().into()),
                ("ar_strategy", ar.report.strategy.name().into()),
                (
                    "ar_faulted_seconds",
                    round(ar.report.faulted_seconds, 6).into(),
                ),
                ("ar_restarted", ar.report.restart.is_some().into()),
                (
                    "ps_faulted_seconds",
                    round(ps.report.faulted_seconds, 6).into(),
                ),
                ("ps_restarted", ps.report.restart.is_some().into()),
                ("ps_advantage", round(advantage, 4).into()),
            ]))
        });
    snap.exact("ps_vs_ar_crossover", Value::Arr(crossover.collect()));
    snap
}

fn scenario(row: &ResilienceRow) -> Value {
    let r = &row.report;
    let lost_nics = r
        .degraded_conditions
        .iter()
        .filter(|c| matches!(c, holmes::engine::DegradedCondition::LostNic { .. }))
        .count();
    let replan = r.replan.as_ref().map_or(Value::Null, |replan| {
        json::obj([
            ("downgraded_groups", replan.downgraded_groups.clone().into()),
            ("rdma_groups", replan.report.rdma_groups.into()),
            ("ethernet_groups", replan.report.ethernet_groups.into()),
            ("dp_sync_slowdown", round(replan.slowdown(), 4).into()),
        ])
    });
    let restart = r.restart.as_ref().map_or(Value::Null, |restart| {
        json::obj([
            ("node", restart.node.into()),
            ("draining", restart.draining.into()),
            ("at_seconds", round(restart.at_seconds, 6).into()),
            ("restart_seconds", round(restart.restart_seconds, 6).into()),
        ])
    });
    let delta_replan = r.delta_replan.as_ref().map_or(Value::Null, |dr| {
        json::obj([
            ("devices", dr.new_topology.device_count().into()),
            ("moves", dr.migration.moves.len().into()),
            ("restored_groups", dr.migration.restored_groups.len().into()),
            (
                "transfer_seconds",
                round(dr.migration.transfer_seconds, 6).into(),
            ),
            (
                "restore_seconds",
                round(dr.migration.restore_seconds, 6).into(),
            ),
            ("dp_sync_slowdown", round(dr.slowdown(), 4).into()),
        ])
    });
    let elastic = r.elastic.as_ref().map_or(Value::Null, |e| {
        json::obj([
            ("action", e.action.name().into()),
            ("wait", round(e.wait_goodput, 4).into()),
            ("reshard", round(e.reshard_goodput, 4).into()),
            ("restore", round(e.restore_goodput, 4).into()),
        ])
    });
    json::obj([
        ("env", row.env.into()),
        ("preset", r.preset.name().into()),
        ("strategy", r.strategy.name().into()),
        ("clean_seconds", round(r.clean_seconds, 6).into()),
        ("faulted_seconds", round(r.faulted_seconds, 6).into()),
        ("slowdown", round(r.slowdown(), 4).into()),
        ("fault_windows", r.fault_windows.len().into()),
        ("flow_retries", r.flow_retries.into()),
        ("tcp_fallback_flows", r.tcp_fallback_flows.into()),
        ("lost_nics", lost_nics.into()),
        ("replan", replan),
        ("restart", restart),
        ("delta_replan", delta_replan),
        ("elastic", elastic),
        ("obs", row.obs.metrics.to_value()),
        ("event_log", r.event_log.clone().into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_family_covers_every_preset_and_is_deterministic() {
        let rows = run_family(true);
        // Every preset once, plus a parameter-server row per churn preset.
        let churn_count = FaultPreset::ALL.iter().filter(|p| churns(**p)).count();
        assert_eq!(rows.len(), FaultPreset::ALL.len() + churn_count);
        let again = run_family(true);
        for (a, b) in rows.iter().zip(&again) {
            assert_eq!(a.report.log_text(), b.report.log_text());
        }
        let json = json::write(&snapshot(&rows, "quick").into_value());
        assert!(json.contains("\"preset\": \"dying_nic\""));
        assert!(json.contains("\"preset\": \"preempt_storm\""));
        assert!(json.contains("\"strategy\": \"parameter-server\""));
        assert!(json.contains("\"replan\": {"));
        assert!(json.contains("\"restart\": {"));
        assert!(json.contains("\"delta_replan\": {"));
        assert!(json.contains("\"elastic\": {"));
        assert!(json.contains("\"ps_vs_ar_crossover\": ["));
        assert!(json.contains("\"obs\": {"));
        assert!(json.contains("engine.flow_retries"));
        assert!(json.ends_with("}\n"));
        // The whole snapshot — obs registries included — is byte-stable.
        assert_eq!(json, json::write(&snapshot(&again, "quick").into_value()));
        // And it parses back as JSON.
        json::parse(&json).expect("snapshot is valid JSON");
    }
}
