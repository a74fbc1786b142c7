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

use std::fmt::Write as _;

use holmes::engine::DpSyncStrategy;
use holmes::{run_resilient, FaultPreset, ResilienceReport};
use holmes_obs::{ObsReport, ObsSession};
use holmes_topology::{presets, Topology};

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

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Serialize the family to the `BENCH_resilience.json` snapshot format.
pub fn to_json(rows: &[ResilienceRow], profile: &str) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"profile\": \"{profile}\",");
    let _ = writeln!(out, "  \"seed\": {SEED},");
    out.push_str("  \"scenarios\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let r = &row.report;
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"env\": \"{}\",", row.env);
        let _ = writeln!(out, "      \"preset\": \"{}\",", r.preset.name());
        let _ = writeln!(out, "      \"strategy\": \"{}\",", r.strategy.name());
        let _ = writeln!(out, "      \"clean_seconds\": {:.6},", r.clean_seconds);
        let _ = writeln!(out, "      \"faulted_seconds\": {:.6},", r.faulted_seconds);
        let _ = writeln!(out, "      \"slowdown\": {:.4},", r.slowdown());
        let _ = writeln!(out, "      \"fault_windows\": {},", r.fault_windows.len());
        let _ = writeln!(out, "      \"flow_retries\": {},", r.flow_retries);
        let _ = writeln!(
            out,
            "      \"tcp_fallback_flows\": {},",
            r.tcp_fallback_flows
        );
        let _ = writeln!(
            out,
            "      \"lost_nics\": {},",
            r.degraded_conditions
                .iter()
                .filter(|c| matches!(c, holmes::engine::DegradedCondition::LostNic { .. }))
                .count()
        );
        match &r.replan {
            Some(replan) => {
                let _ = writeln!(
                    out,
                    "      \"replan\": {{\"downgraded_groups\": {:?}, \
                     \"rdma_groups\": {}, \"ethernet_groups\": {}, \"dp_sync_slowdown\": {:.4}}},",
                    replan.downgraded_groups,
                    replan.report.rdma_groups,
                    replan.report.ethernet_groups,
                    replan.slowdown(),
                );
            }
            None => {
                let _ = writeln!(out, "      \"replan\": null,");
            }
        }
        match &r.restart {
            Some(restart) => {
                let _ = writeln!(
                    out,
                    "      \"restart\": {{\"node\": {}, \"draining\": {}, \
                     \"at_seconds\": {:.6}, \"restart_seconds\": {:.6}}},",
                    restart.node, restart.draining, restart.at_seconds, restart.restart_seconds,
                );
            }
            None => {
                let _ = writeln!(out, "      \"restart\": null,");
            }
        }
        match &r.delta_replan {
            Some(dr) => {
                let _ = writeln!(
                    out,
                    "      \"delta_replan\": {{\"devices\": {}, \"moves\": {}, \
                     \"restored_groups\": {}, \"transfer_seconds\": {:.6}, \
                     \"restore_seconds\": {:.6}, \"dp_sync_slowdown\": {:.4}}},",
                    dr.new_topology.device_count(),
                    dr.migration.moves.len(),
                    dr.migration.restored_groups.len(),
                    dr.migration.transfer_seconds,
                    dr.migration.restore_seconds,
                    dr.slowdown(),
                );
            }
            None => {
                let _ = writeln!(out, "      \"delta_replan\": null,");
            }
        }
        match &r.elastic {
            Some(e) => {
                let _ = writeln!(
                    out,
                    "      \"elastic\": {{\"action\": \"{}\", \"wait\": {:.4}, \
                     \"reshard\": {:.4}, \"restore\": {:.4}}},",
                    e.action.name(),
                    e.wait_goodput,
                    e.reshard_goodput,
                    e.restore_goodput,
                );
            }
            None => {
                let _ = writeln!(out, "      \"elastic\": null,");
            }
        }
        out.push_str("      \"obs\": ");
        out.push_str(row.obs.to_json(6).trim_start());
        out.push_str(",\n");
        out.push_str("      \"event_log\": [");
        for (j, line) in r.event_log.iter().enumerate() {
            let c = if j + 1 == r.event_log.len() { "" } else { ", " };
            let _ = write!(out, "\"{}\"{c}", json_escape(line));
        }
        out.push_str("]\n");
        let _ = writeln!(out, "    }}{comma}");
    }
    out.push_str("  ],\n");

    // The headline curve: for each churn preset, the ring-based run vs
    // the parameter-server run of the identical fault timeline.
    // `ps_advantage > 1` means PS finished the iteration faster than the
    // ring strategy (which typically paid a checkpoint restart).
    let pairs: Vec<(&ResilienceRow, &ResilienceRow)> = rows
        .iter()
        .filter(|row| {
            churns(row.report.preset)
                && !matches!(row.report.strategy, DpSyncStrategy::ParameterServer { .. })
        })
        .filter_map(|ar| {
            rows.iter()
                .find(|ps| {
                    ps.env == ar.env
                        && ps.report.preset == ar.report.preset
                        && matches!(ps.report.strategy, DpSyncStrategy::ParameterServer { .. })
                })
                .map(|ps| (ar, ps))
        })
        .collect();
    out.push_str("  \"ps_vs_ar_crossover\": [\n");
    for (i, (ar, ps)) in pairs.iter().enumerate() {
        let comma = if i + 1 == pairs.len() { "" } else { "," };
        let advantage = if ps.report.faulted_seconds > 0.0 {
            ar.report.faulted_seconds / ps.report.faulted_seconds
        } else {
            1.0
        };
        let _ = writeln!(
            out,
            "    {{\"env\": \"{}\", \"preset\": \"{}\", \
             \"ar_strategy\": \"{}\", \"ar_faulted_seconds\": {:.6}, \
             \"ar_restarted\": {}, \"ps_faulted_seconds\": {:.6}, \
             \"ps_restarted\": {}, \"ps_advantage\": {:.4}}}{comma}",
            ar.env,
            ar.report.preset.name(),
            ar.report.strategy.name(),
            ar.report.faulted_seconds,
            ar.report.restart.is_some(),
            ps.report.faulted_seconds,
            ps.report.restart.is_some(),
            advantage,
        );
    }
    out.push_str("  ]\n}\n");
    out
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
        let json = to_json(&rows, "quick");
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
        assert_eq!(json, to_json(&again, "quick"));
        // And it parses back as JSON.
        holmes_obs::json::parse(&json).expect("snapshot is valid JSON");
    }
}
