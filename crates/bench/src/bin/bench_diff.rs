//! CI bench gate: compare freshly generated BENCH snapshots against the
//! committed baselines in `BENCH_baseline/`, every `BENCH_*.json` there
//! with the one walker in [`holmes_bench::snapshot::gate`].
//!
//! Usage: `bench_diff [--baseline DIR] [--fresh DIR]`; the defaults
//! compare the workspace root, where the producers write, against
//! `BENCH_baseline/`. `HOLMES_BENCH_TOLERANCE` is the relative slowdown a
//! toleranced value may show (default 0.10, for a quiet machine and a
//! same-machine baseline; shared CI runners need far more, and there the
//! exact maps are the hard gate). `HOLMES_BENCH_SPEEDUP_FLOOR` scales the
//! scaled bounds for slower machines (0 skips them). Exits 1 listing every
//! violation, or 2 on a usage error, an unreadable file or a malformed
//! baseline. README "Benchmark baselines" gives the refresh flow.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use holmes_bench::snapshot::gate::Gate;
use holmes_obs::json::{self, Value};

const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../");
const USAGE: &str = "usage: bench_diff [--baseline DIR] [--fresh DIR]";

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

fn env_f64(name: &str, default: f64) -> Result<f64, String> {
    match std::env::var(name) {
        Ok(s) => s.parse().map_err(|e| format!("{name} {s:?}: {e}")),
        Err(_) => Ok(default),
    }
}

/// Gate every baseline snapshot; `Ok(false)` when any check failed.
fn run() -> Result<bool, String> {
    let mut baseline_dir = PathBuf::from(ROOT).join("BENCH_baseline");
    let mut fresh_dir = PathBuf::from(ROOT);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let dir = match flag.as_str() {
            "--baseline" => &mut baseline_dir,
            "--fresh" => &mut fresh_dir,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        };
        let value = args
            .next()
            .ok_or(format!("{flag} needs a value\n{USAGE}"))?;
        *dir = PathBuf::from(value);
    }
    let tolerance = env_f64("HOLMES_BENCH_TOLERANCE", 0.10)?;
    let mut gate = Gate::new(tolerance, env_f64("HOLMES_BENCH_SPEEDUP_FLOOR", 1.0)?);

    let entries = std::fs::read_dir(&baseline_dir)
        .map_err(|e| format!("cannot list {}: {e}", baseline_dir.display()))?;
    let mut files: Vec<String> = entries
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("no BENCH_*.json in {}", baseline_dir.display()));
    }
    for file in &files {
        let base = load(&baseline_dir.join(file))?;
        gate.compare(file, &base, &load(&fresh_dir.join(file))?)?;
    }

    let (checks, snapshots, pct) = (gate.checks, files.len(), tolerance * 100.0);
    if gate.violations.is_empty() {
        println!(
            "bench gate: OK ({checks} checks over {snapshots} snapshots, tolerance {pct:.0}%)"
        );
        return Ok(true);
    }
    let (violations, dir) = (gate.violations.len(), baseline_dir.display());
    eprintln!("bench gate: {violations} violation(s) against {dir}:");
    for v in &gate.violations {
        eprintln!("  - {v}");
    }
    Ok(false)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench_diff: {e}");
            ExitCode::from(2)
        }
    }
}
