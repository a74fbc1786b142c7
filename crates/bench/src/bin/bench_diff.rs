//! CI bench gate: compare freshly generated BENCH snapshots against the
//! committed baselines in `BENCH_baseline/`.
//!
//! Two comparison regimes, matching how the snapshots are produced:
//!
//! * **Deterministic sections** must match *exactly* — the resilience
//!   snapshot in full (it is a pure function of `(topology, preset,
//!   seed)`), `BENCH_netsim.json`'s `obs` registry, probe event count,
//!   section count and twin census, and `BENCH_hetero.json`'s partition
//!   splits and variants. Any drift here is a behavior change, not noise.
//! * **Wall-clock numbers** (suite `mean_ns`, `netsim_events_per_sec`,
//!   `all_experiments_wall_seconds`) are machine-dependent; they gate only
//!   on a relative slowdown beyond `HOLMES_BENCH_TOLERANCE` (default
//!   0.10 = 10%). Improvements never fail the gate. The default assumes a
//!   quiet machine and a same-machine baseline; CI runs with a much
//!   looser tolerance because shared runners cannot hold quick-profile
//!   numbers to 10% (the deterministic sections are the hard CI gate —
//!   they are machine-independent).
//!
//! Usage: `bench_diff [--baseline DIR] [--fresh DIR]`. Defaults compare
//! the workspace root (where `bench` and `resilience` write) against
//! `BENCH_baseline/`. Exits non-zero listing every violation.
//!
//! To refresh the baselines after an intentional change, regenerate the
//! snapshots and copy them over the committed ones (see README).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use holmes_obs::json::{self, Value};

const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../");
const DEFAULT_TOLERANCE: f64 = 0.10;

/// Events/sec of the original global-settlement core (a full re-settle
/// and water-fill on every event) on the bench machine. The fast-engine
/// rewrite must hold a *floor* above this, not merely avoid regressing
/// against the newest baseline — otherwise a sequence of small tolerated
/// regressions could quietly give the whole speedup back.
const LEGACY_EVENTS_PER_SEC: f64 = 135_162.0;
/// The reference probe must stay at least this many times faster than the
/// legacy core.
const PROBE_SPEEDUP_FLOOR: f64 = 10.0;
/// Absolute floor for the large-topology scenario, events/sec.
const LARGE_EVENTS_FLOOR: f64 = 1_000_000.0;

struct Gate {
    tolerance: f64,
    /// Multiplier on the events/sec speedup floors; `HOLMES_BENCH_SPEEDUP_FLOOR`
    /// scales it down for slower CI machines (0 disables the floor gate).
    floor_scale: f64,
    violations: Vec<String>,
    checks: u32,
}

impl Gate {
    fn fail(&mut self, msg: String) {
        self.violations.push(msg);
    }

    /// Exact structural equality, recursing so the report names the first
    /// diverging path instead of dumping whole documents.
    fn exact(&mut self, path: &str, base: &Value, fresh: &Value) {
        self.checks += 1;
        match (base, fresh) {
            (Value::Obj(b), Value::Obj(f)) => {
                for (k, bv) in b {
                    match f.iter().find(|(fk, _)| fk == k) {
                        Some((_, fv)) => self.exact(&format!("{path}.{k}"), bv, fv),
                        None => self.fail(format!("{path}.{k}: missing from fresh snapshot")),
                    }
                }
                for (k, _) in f {
                    if !b.iter().any(|(bk, _)| bk == k) {
                        self.fail(format!("{path}.{k}: not present in baseline"));
                    }
                }
            }
            (Value::Arr(b), Value::Arr(f)) => {
                if b.len() != f.len() {
                    self.fail(format!("{path}: length changed {} -> {}", b.len(), f.len()));
                    return;
                }
                for (i, (bv, fv)) in b.iter().zip(f).enumerate() {
                    self.exact(&format!("{path}[{i}]"), bv, fv);
                }
            }
            _ => {
                if base != fresh {
                    self.fail(format!(
                        "{path}: deterministic value changed {base:?} -> {fresh:?}"
                    ));
                }
            }
        }
    }

    /// Wall-clock gate: fail only when `fresh` is *slower* than `base` by
    /// more than the tolerance. The ratio formulation (slowdown factor
    /// rather than a capped percentage drop) keeps tolerances above 100%
    /// meaningful for throughput metrics: an 8x throughput collapse is a
    /// 700% regression, not 87.5%.
    fn within_tolerance(&mut self, path: &str, base: f64, fresh: f64, higher_is_better: bool) {
        self.checks += 1;
        if base <= 0.0 || fresh <= 0.0 {
            return; // nothing to compare against
        }
        let slowdown = if higher_is_better {
            base / fresh
        } else {
            fresh / base
        };
        if slowdown > 1.0 + self.tolerance {
            self.fail(format!(
                "{path}: {:.1}% regression (baseline {base}, fresh {fresh}, tolerance {:.0}%)",
                (slowdown - 1.0) * 100.0,
                self.tolerance * 100.0
            ));
        }
    }

    /// Speedup floor: `fresh` events/sec must stay at or above `min`
    /// (scaled by `HOLMES_BENCH_SPEEDUP_FLOOR` for slower machines).
    fn speedup_floor(&mut self, path: &str, fresh: f64, min: f64) {
        if self.floor_scale <= 0.0 {
            return;
        }
        self.checks += 1;
        let min = min * self.floor_scale;
        if fresh < min {
            self.fail(format!(
                "{path}: {fresh:.0} events/sec is below the speedup floor {min:.0}"
            ));
        }
    }
}

fn load(path: &Path) -> Value {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    json::parse(&text).unwrap_or_else(|e| panic!("cannot parse {}: {e:?}", path.display()))
}

fn num(v: &Value, key: &str, file: &str) -> f64 {
    v.get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("{file}: missing numeric field {key:?}"))
}

fn check_netsim(gate: &mut Gate, base: &Value, fresh: &Value) {
    let file = "BENCH_netsim.json";
    // Deterministic sections: exact.
    for key in [
        "profile",
        "netsim_probe_events",
        "netsim_large_events",
        "all_experiments_sections",
        "twin_census",
        "obs",
    ] {
        match (base.get(key), fresh.get(key)) {
            (Some(b), Some(f)) => gate.exact(&format!("{file}:{key}"), b, f),
            _ => gate.fail(format!("{file}:{key}: missing on one side")),
        }
    }
    // Wall-clock scalars: tolerance against the baseline, plus absolute
    // speedup floors so tolerated drift can never re-open the gap to the
    // legacy core.
    let fresh_rate = num(fresh, "netsim_events_per_sec", file);
    gate.within_tolerance(
        &format!("{file}:netsim_events_per_sec"),
        num(base, "netsim_events_per_sec", file),
        fresh_rate,
        true,
    );
    gate.speedup_floor(
        &format!("{file}:netsim_events_per_sec (>= 10x legacy heap core)"),
        fresh_rate,
        PROBE_SPEEDUP_FLOOR * LEGACY_EVENTS_PER_SEC,
    );
    let fresh_large = num(fresh, "netsim_events_per_sec_large", file);
    gate.within_tolerance(
        &format!("{file}:netsim_events_per_sec_large"),
        num(base, "netsim_events_per_sec_large", file),
        fresh_large,
        true,
    );
    gate.speedup_floor(
        &format!("{file}:netsim_events_per_sec_large (>= 1M events/sec)"),
        fresh_large,
        LARGE_EVENTS_FLOOR,
    );
    gate.within_tolerance(
        &format!("{file}:all_experiments_wall_seconds"),
        num(base, "all_experiments_wall_seconds", file),
        num(fresh, "all_experiments_wall_seconds", file),
        false,
    );
    // Suite means: matched by benchmark id; the id set itself is
    // deterministic, so additions/removals are violations too.
    let (Some(bsuites), Some(fsuites)) = (
        base.get("suites").and_then(Value::as_object),
        fresh.get("suites").and_then(Value::as_object),
    ) else {
        gate.fail(format!("{file}:suites: missing on one side"));
        return;
    };
    for (suite, bruns) in bsuites {
        let path = format!("{file}:suites.{suite}");
        let Some(fruns) = fsuites
            .iter()
            .find(|(k, _)| k == suite)
            .and_then(|(_, v)| v.as_array())
        else {
            gate.fail(format!("{path}: missing from fresh snapshot"));
            continue;
        };
        let bruns = bruns.as_array().expect("baseline suite is an array");
        for brun in bruns {
            let id = brun
                .get("id")
                .and_then(Value::as_str)
                .expect("bench entry has an id");
            let Some(frun) = fruns
                .iter()
                .find(|r| r.get("id").and_then(Value::as_str) == Some(id))
            else {
                gate.fail(format!("{path}[{id}]: benchmark disappeared"));
                continue;
            };
            gate.within_tolerance(
                &format!("{path}[{id}].mean_ns"),
                num(brun, "mean_ns", id),
                num(frun, "mean_ns", id),
                false,
            );
        }
        for frun in fruns {
            let id = frun.get("id").and_then(Value::as_str).unwrap_or("?");
            if !bruns
                .iter()
                .any(|r| r.get("id").and_then(Value::as_str) == Some(id))
            {
                gate.fail(format!("{path}[{id}]: new benchmark not in baseline"));
            }
        }
    }
}

fn check_plansynth(gate: &mut Gate, base: &Value, fresh: &Value) {
    let file = "BENCH_plansynth.json";
    // The search profile — expansion/pruning counters and winning costs —
    // is a pure function of the topology: exact.
    match (base.get("search"), fresh.get("search")) {
        (Some(b), Some(f)) => gate.exact(&format!("{file}:search"), b, f),
        _ => gate.fail(format!("{file}:search: missing on one side")),
    }
    // The symbolic progress sweep is deterministic in (topology, preset,
    // seed, event-space bounds): verdict totals are exact, and the
    // counterexample count must be zero regardless of the baseline.
    match (base.get("progress"), fresh.get("progress")) {
        (Some(b), Some(f)) => {
            gate.exact(&format!("{file}:progress"), b, f);
            gate.checks += 1;
            let fresh_cx = num(f, "counterexamples", file);
            if fresh_cx != 0.0 {
                gate.fail(format!(
                    "{file}:progress.counterexamples: {fresh_cx} violation(s) — shipped presets must be progress-clean"
                ));
            }
        }
        _ => gate.fail(format!("{file}:progress: missing on one side")),
    }
    // Wall-clock scalars: relative tolerance, plus the ISSUE-7 acceptance
    // criterion as an absolute, machine-independent-enough floor — the
    // 64-cluster fleet plans in well under a millisecond on any machine
    // that can build the workspace, so 1s of headroom is not a flake risk.
    let (Some(bwall), Some(fwall)) = (base.get("wall"), fresh.get("wall")) else {
        gate.fail(format!("{file}:wall: missing on one side"));
        return;
    };
    let fleet64 = num(fwall, "fleet64_plan_seconds", file);
    gate.checks += 1;
    if fleet64 >= 1.0 {
        gate.fail(format!(
            "{file}:wall.fleet64_plan_seconds: {fleet64:.3}s breaks the <1s acceptance criterion"
        ));
    }
    for (key, higher_is_better) in [
        ("fleet64_plan_seconds", false),
        ("fleet12_plan_seconds", false),
        ("fleet8_p2_plan_seconds", false),
        ("fleet_hetero10_p2_plan_seconds", false),
        ("oracle_plans_per_sec", true),
        ("progress_sweep_seconds", false),
    ] {
        gate.within_tolerance(
            &format!("{file}:wall.{key}"),
            num(bwall, key, file),
            num(fwall, key, file),
            higher_is_better,
        );
    }
}

fn check_hetero(gate: &mut Gate, base: &Value, fresh: &Value) {
    let file = "BENCH_hetero.json";
    // Partition splits, simulated iteration times, and every variant are
    // pure functions of (preset, parameter group, seed): exact.
    for key in ["partition", "variants"] {
        match (base.get(key), fresh.get(key)) {
            (Some(b), Some(f)) => gate.exact(&format!("{file}:{key}"), b, f),
            _ => gate.fail(format!("{file}:{key}: missing on one side")),
        }
    }
    // The tentpole acceptance criterion, re-checked against the fresh run
    // regardless of what the baseline says: on every shipped hetero preset
    // the straggler-aware partition must strictly beat the uniform Eq. 2
    // split on simulated iteration time.
    match fresh.get("partition").and_then(Value::as_object) {
        Some(rows) => {
            for (preset, row) in rows {
                gate.checks += 1;
                let speedup = num(row, "speedup", file);
                if speedup <= 1.0 {
                    gate.fail(format!(
                        "{file}:partition.{preset}.speedup: {speedup} — straggler-aware \
                         partition must strictly beat uniform Eq. 2"
                    ));
                }
            }
        }
        None => gate.fail(format!("{file}:partition: not an object")),
    }
    match (base.get("wall"), fresh.get("wall")) {
        (Some(b), Some(f)) => gate.within_tolerance(
            &format!("{file}:wall.hetero_bench_seconds"),
            num(b, "hetero_bench_seconds", file),
            num(f, "hetero_bench_seconds", file),
            false,
        ),
        _ => gate.fail(format!("{file}:wall: missing on one side")),
    }
}

fn main() -> ExitCode {
    let mut baseline_dir = PathBuf::from(ROOT).join("BENCH_baseline");
    let mut fresh_dir = PathBuf::from(ROOT);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--baseline" => {
                i += 1;
                baseline_dir = PathBuf::from(&args[i]);
            }
            "--fresh" => {
                i += 1;
                fresh_dir = PathBuf::from(&args[i]);
            }
            other => panic!("unknown argument {other:?} (expected --baseline/--fresh)"),
        }
        i += 1;
    }
    let tolerance = std::env::var("HOLMES_BENCH_TOLERANCE")
        .ok()
        .map(|s| {
            s.parse::<f64>()
                .unwrap_or_else(|e| panic!("HOLMES_BENCH_TOLERANCE {s:?}: {e}"))
        })
        .unwrap_or(DEFAULT_TOLERANCE);
    let floor_scale = std::env::var("HOLMES_BENCH_SPEEDUP_FLOOR")
        .ok()
        .map(|s| {
            s.parse::<f64>()
                .unwrap_or_else(|e| panic!("HOLMES_BENCH_SPEEDUP_FLOOR {s:?}: {e}"))
        })
        .unwrap_or(1.0);

    let mut gate = Gate {
        tolerance,
        floor_scale,
        violations: Vec::new(),
        checks: 0,
    };

    check_netsim(
        &mut gate,
        &load(&baseline_dir.join("BENCH_netsim.json")),
        &load(&fresh_dir.join("BENCH_netsim.json")),
    );
    // The resilience snapshot is deterministic end to end.
    gate.exact(
        "BENCH_resilience.json",
        &load(&baseline_dir.join("BENCH_resilience.json")),
        &load(&fresh_dir.join("BENCH_resilience.json")),
    );
    check_plansynth(
        &mut gate,
        &load(&baseline_dir.join("BENCH_plansynth.json")),
        &load(&fresh_dir.join("BENCH_plansynth.json")),
    );
    check_hetero(
        &mut gate,
        &load(&baseline_dir.join("BENCH_hetero.json")),
        &load(&fresh_dir.join("BENCH_hetero.json")),
    );

    if gate.violations.is_empty() {
        println!(
            "bench gate: OK ({} checks, tolerance {:.0}%)",
            gate.checks,
            tolerance * 100.0
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "bench gate: {} violation(s) against {}:",
            gate.violations.len(),
            baseline_dir.display()
        );
        for v in &gate.violations {
            eprintln!("  - {v}");
        }
        ExitCode::FAILURE
    }
}
