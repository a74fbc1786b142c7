//! `holmes_e2e`: the end-to-end query benchmark.
//!
//! ```text
//! holmes_e2e --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--repeat N]
//! ```
//!
//! One workload, one process, one closed-loop client with no think time.
//! Set-up (input generation, topology construction and one warm-up pass
//! over every distinct input) runs five times and reports its median.
//! The run then issues queries until `--seconds` seconds have passed and
//! at least 100 queries have run, finishing the round of inputs it is in
//! (see `workloads.rs`). Every reported time is scaled to a reference
//! host speed by a library-independent kernel timed between rounds (see
//! `calibrate.rs`). With `--trace 0` it times whole queries and prints the
//! end-to-end metrics; with `--trace 1` it replays the same query list
//! with a span around every layer call, prints the per-layer metrics and
//! writes `target/holmes_e2e/<workload>.trace.json`. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`.
//!
//! `--workload all` or `--repeat N` runs each workload (timed and
//! traced, N times each at the same seed) in fresh child processes and
//! prints every metric's median and quartiles.

mod calibrate;
mod check;
mod clock;
mod layers;
mod stats;
mod trace;
mod workloads;

use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use calibrate::Kernel;
use check::Outcome;
use clock::cpu_seconds;
use layers::Prepared;
use trace::{NoTrace, Recorder, Trace};
use workloads::{QueryList, Workload};

const USAGE: &str =
    "usage: holmes_e2e --workload <paper_grid|fleet_plan|autotune_mix|churn_whatif|all> \
                     [--seed N] [--seconds S] [--trace 0|1] [--repeat N]";

/// Set-up runs this many times per process; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Rayon fan-out (only `autotune` uses it) runs on one thread. Queries are
/// timed in CPU time, which fan-out does not reduce. A second thread on
/// a shared 2-vCPU guest left that CPU time unchanged but tripled its
/// run-to-run spread (IQR over median 0.088 against 0.024).
const RAYON_THREADS: &str = "1";

struct Args {
    /// `None` for `all`.
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: usize,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 10,
        trace: false,
        repeat: 1,
    };
    let mut named = false;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                args.workload = match value.as_str() {
                    "all" => None,
                    name => Some(
                        Workload::from_name(name)
                            .ok_or_else(|| format!("unknown workload {name}"))?,
                    ),
                };
                named = true;
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--repeat" => {
                args.repeat = usize::try_from(number()?)
                    .map_err(|e| e.to_string())?
                    .clamp(1, 100)
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !named {
        return Err("--workload is required".to_owned());
    }
    Ok(args)
}

fn main() -> ExitCode {
    // Set before any thread exists; child processes inherit it.
    std::env::set_var("RAYON_NUM_THREADS", RAYON_THREADS);
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match (args.workload, args.repeat) {
        (Some(w), 1) => run_one(w, &args),
        _ => orchestrate(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A workload's inputs, built and warmed up.
struct Setup {
    list: QueryList,
    prepared: Vec<Prepared>,
    /// The warm-up outcome of every distinct input: the reference each
    /// repeat must reproduce bit for bit.
    reference: Vec<Result<Outcome, String>>,
}

fn set_up(workload: Workload, seed: u64) -> Result<Setup, String> {
    let list = QueryList::new(workload, seed);
    let prepared = list
        .cases
        .iter()
        .map(layers::prepare)
        .collect::<Result<Vec<_>, _>>()?;
    let reference = prepared
        .iter()
        .map(|p| run_checked(p, &mut NoTrace))
        .collect();
    Ok(Setup {
        list,
        prepared,
        reference,
    })
}

/// Run one query; a panic, an unexpected error or a failed cheap check
/// is an `Err`.
fn run_checked<R: Recorder>(p: &Prepared, rec: &mut R) -> Result<Outcome, String> {
    let outcome =
        panic::catch_unwind(AssertUnwindSafe(|| layers::run(p, rec))).map_err(|payload| {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            format!("panicked: {msg}")
        })??;
    check::cheap(&outcome)?;
    Ok(outcome)
}

impl Setup {
    /// Check a repeat of input `i` against its warm-up run.
    fn check(&self, i: usize, result: &Result<Outcome, String>) -> Result<(), String> {
        let first = self.reference[i]
            .as_ref()
            .map_err(|e| format!("warm-up: {e}"))?;
        check::repeat(first, result.as_ref()?)
    }

    /// FNV-1a over the warm-up outcomes, in case order.
    fn digest(&self) -> u64 {
        let mut h = check::Fnv::new();
        for r in &self.reference {
            h.u64(r.as_ref().map_or(0, |o| o.digest));
        }
        h.finish()
    }

    fn warm_up_failures(&self) -> usize {
        let mut failures = 0;
        for (p, r) in self.prepared.iter().zip(&self.reference) {
            if let Err(e) = r {
                eprintln!("warm-up failed on {}: {e}", p.case.label());
                failures += 1;
            }
        }
        failures
    }
}

fn run_one(workload: Workload, args: &Args) -> Result<bool, String> {
    let budget = Duration::from_secs(args.seconds);
    let (correct, attempted, failed, metrics) = if args.trace {
        traced_run(workload, args.seed, budget)?
    } else {
        timed_run(workload, args.seed, budget)?
    };
    let correct = correct && metrics.iter().all(|(_, v, _)| v.is_finite());
    print_result(correct, attempted, failed, &metrics);
    Ok(correct)
}

type RunReport = (bool, usize, usize, Vec<(&'static str, f64, &'static str)>);

/// End-to-end metrics: nothing but a whole-query timer, and the
/// reference kernel between rounds (see `calibrate.rs`).
fn timed_run(workload: Workload, seed: u64, budget: Duration) -> Result<RunReport, String> {
    let mut kernel = Kernel::new();
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut setup = None;
    for _ in 0..SETUP_REPEATS {
        drop(setup.take());
        let kernel_s = kernel.time();
        let t0 = cpu_seconds();
        setup = Some(set_up(workload, seed)?);
        setup_s.push(Kernel::at_reference(cpu_seconds() - t0, kernel_s));
    }
    let mut setup = setup.ok_or("set-up never ran")?;
    let warm_up_failures = setup.warm_up_failures();

    // Whole rounds only: every input is measured equally often. Each
    // round is scaled by the kernel time measured just before it.
    let cases = setup.prepared.len();
    let mut latency_ms: Vec<Vec<f64>> = vec![Vec::new(); cases];
    let mut round_rates = Vec::new();
    let mut kernel_ms = Vec::new();
    let mut queries = 0;
    let mut failed = 0;
    let start = Instant::now();
    while start.elapsed() < budget || queries < stats::MIN_P90_SAMPLES {
        let kernel_s = kernel.time();
        kernel_ms.push(kernel_s * 1e3);
        let round_start = cpu_seconds();
        for _ in 0..cases {
            let i = setup.list.next_index();
            let t0 = cpu_seconds();
            let result = run_checked(&setup.prepared[i], &mut NoTrace);
            let seconds = Kernel::at_reference(cpu_seconds() - t0, kernel_s);
            latency_ms[i].push(seconds * 1e3);
            if let Err(e) = setup.check(i, &result) {
                eprintln!("query failed on {}: {e}", setup.prepared[i].case.label());
                failed += 1;
            }
            queries += 1;
        }
        let round_s = Kernel::at_reference(cpu_seconds() - round_start, kernel_s);
        round_rates.push(cases as f64 / round_s);
    }

    // Bursts a few seconds long slip past the kernel. Each query's
    // latency is taken as its input's median over the run, and throughput
    // as the median over rounds, so a burst moves a number only when it
    // covers most of the run.
    let typical_ms: Vec<f64> = latency_ms
        .iter()
        .flat_map(|samples| std::iter::repeat_n(stats::median(samples), samples.len()))
        .collect();
    let tflops: Vec<f64> = setup
        .reference
        .iter()
        .filter_map(|r| r.as_ref().ok().map(|o| o.tflops))
        .collect();
    println!("output_digest {} {:016x}", workload.name(), setup.digest());
    eprintln!(
        "{}: {queries} queries in {} rounds ({:.2} s), {failed} failed; \
         kernel median {:.2} ms (reference {:.2} ms)",
        workload.name(),
        round_rates.len(),
        start.elapsed().as_secs_f64(),
        stats::median(&kernel_ms),
        calibrate::REFERENCE_S * 1e3,
    );
    let metrics = vec![
        ("setup_s", stats::median(&setup_s), "s"),
        ("query_ms_p50", stats::median(&typical_ms), "ms"),
        ("query_ms_p90", stats::p90(&typical_ms)?, "ms"),
        ("queries_per_s", stats::median(&round_rates), "1/s"),
        ("plan_tflops_geomean", stats::geomean(&tflops), "TFLOPS/GPU"),
        ("peak_rss_mb", peak_rss_mb()?, "MB"),
    ];
    let correct = failed == 0 && warm_up_failures == 0;
    Ok((correct, queries, failed, metrics))
}

/// Per-layer metrics: the same query list, each query run once with
/// spans and once without (for the tracing overhead), alternating which
/// goes first so neither always finds the caches warm.
fn traced_run(workload: Workload, seed: u64, budget: Duration) -> Result<RunReport, String> {
    let mut setup = set_up(workload, seed)?;
    let warm_up_failures = setup.warm_up_failures();
    let mut trace = Trace::new();
    let mut kernel = Kernel::new();
    let mut kernel_s = Vec::new();
    let mut plain_s = 0.0;
    let mut queries = 0;
    let mut failed = 0;
    let start = Instant::now();
    while start.elapsed() < budget {
        kernel_s.push(kernel.time());
        for _ in 0..setup.prepared.len() {
            let i = setup.list.next_index();
            let p = &setup.prepared[i];
            let mut plain_run = || {
                let t0 = cpu_seconds();
                let plain = run_checked(p, &mut NoTrace);
                plain_s += cpu_seconds() - t0;
                plain
            };
            let early = (queries % 2 == 0).then(&mut plain_run);
            trace.begin_query(p.case.label());
            let traced = run_checked(p, &mut trace);
            trace.close_all();
            let plain = early.unwrap_or_else(plain_run);
            let probe = layers::probe_synth(p, &mut trace);
            let verdict = setup
                .check(i, &plain)
                .and(setup.check(i, &traced))
                .and(probe);
            if let Err(e) = verdict {
                eprintln!("query failed on {}: {e}", p.case.label());
                failed += 1;
            }
            queries += 1;
        }
    }

    let path = Path::new("target")
        .join("holmes_e2e")
        .join(format!("{}.trace.json", workload.name()));
    match trace.write_chrome(&path, workload.name()) {
        Ok(()) => eprintln!("trace written to {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }

    let t = trace.totals();
    let n = t.queries.max(1) as f64;
    let query_s = t.query_ns as f64 * 1e-9;
    // Per-layer times are scaled to the reference host's speed by the
    // run's median kernel time; shares and counts need no scaling.
    let speed = Kernel::at_reference(1.0, stats::median(&kernel_s));
    let ms = |s: f64| s * speed * 1e3 / n;
    let share = |s: f64| if query_s > 0.0 { s / query_s } else { 0.0 };
    let mean = |name: &str| t.counter(name) as f64 / n;
    let execute_s = t.layer_s(layers::EXECUTE);
    let fault_execute_s = t.layer_s(layers::FAULT_EXECUTE);
    let synth_s = t.probe_s(layers::SYNTH);
    let plan_for_s = t.layer_s(layers::PLAN_FOR);
    let autotune_s = t.layer_s(layers::AUTOTUNE);
    let verify_s = t.layer_prefix_s("analysis");
    let simulate_s = execute_s + fault_execute_s;
    let events_per_s = if simulate_s > 0.0 {
        t.counter(layers::EVENTS) as f64 / (simulate_s * speed)
    } else {
        0.0
    };
    // The traced query also runs the verifiers; leave them out when
    // comparing against the untimed-by-layer run of the same query.
    let overhead = if plain_s > 0.0 {
        (query_s - verify_s - plain_s) / plain_s
    } else {
        0.0
    };
    let defects = t.counter(layers::DEFECTS);
    eprintln!(
        "{}: {queries} traced queries, {failed} failed, {defects} verifier defects",
        workload.name()
    );
    let metrics = vec![
        ("engine.execute_ms", ms(execute_s), "ms"),
        ("engine.execute_share", share(execute_s), "fraction"),
        ("netsim.events", mean(layers::EVENTS), "count"),
        ("netsim.flows", mean(layers::FLOWS), "count"),
        ("netsim.events_per_s", events_per_s, "1/s"),
        ("parallel.synth_ms", ms(synth_s), "ms"),
        ("parallel.synth_share", share(synth_s), "fraction"),
        (
            "parallel.synth_expanded",
            mean(layers::SYNTH_EXPANDED),
            "count",
        ),
        ("parallel.synth_pruned", mean(layers::SYNTH_PRUNED), "count"),
        ("core.plan_for_ms", ms(plan_for_s), "ms"),
        ("core.partition_ms", ms(plan_for_s - synth_s), "ms"),
        ("core.estimate_ms", ms(t.layer_s(layers::ESTIMATE)), "ms"),
        ("core.autotune_ms", ms(autotune_s), "ms"),
        (
            "core.autotune_candidates",
            mean(layers::CANDIDATES),
            "count",
        ),
        ("core.autotune_simulated", mean(layers::SIMULATED), "count"),
        (
            "core.autotune_unattributed_share",
            share(autotune_s),
            "fraction",
        ),
        ("engine.fault_execute_ms", ms(fault_execute_s), "ms"),
        ("engine.flow_retries", mean(layers::FLOW_RETRIES), "count"),
        (
            "engine.tcp_fallback_flows",
            mean(layers::TCP_FALLBACK),
            "count",
        ),
        ("engine.fail_fast", mean(layers::FAIL_FAST), "count"),
        ("parallel.replan_ms", ms(t.layer_s(layers::REPLAN)), "ms"),
        (
            "parallel.migration_moves",
            mean(layers::MIGRATION_MOVES),
            "count",
        ),
        ("analysis.verify_ms", ms(verify_s), "ms"),
        ("analysis.verify_share", share(verify_s), "fraction"),
        ("analysis.defects", defects as f64, "count"),
        ("engine.build_ms", ms(t.layer_s(layers::BUILD)), "ms"),
        ("engine.ops", mean(layers::OPS), "count"),
        ("topology.parse_ms", ms(t.layer_s(layers::PARSE)), "ms"),
        (
            "trace.coverage",
            share(t.layer_self_ns as f64 * 1e-9),
            "fraction",
        ),
        ("trace.overhead_share", overhead, "fraction"),
    ];
    let correct = failed == 0 && warm_up_failures == 0 && defects == 0;
    Ok((correct, queries, failed, metrics))
}

/// High-water resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn print_result(correct: bool, attempted: usize, failed: usize, metrics: &[(&str, f64, &str)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // JSON has no NaN or infinity; a run reporting one is marked
            // incorrect before it gets here.
            let value = if value.is_finite() { *value } else { -1.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

/// One child run's result line, read back.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
    digest: Option<String>,
}

/// Read the result line `print_result` writes. Only that exact shape is
/// understood.
fn parse_result(stdout: &str) -> Option<ChildResult> {
    let line = stdout.lines().last()?;
    let number_after = |key: &str| -> Option<u64> {
        let rest = &line[line.find(key)? + key.len()..];
        let end = rest.find(|c: char| !c.is_ascii_digit())?;
        rest[..end].parse().ok()
    };
    let mut metrics = Vec::new();
    let mut rest = &line[line.find("\"metrics\": {")? + "\"metrics\": {".len()..];
    while let Some(open) = rest.find('"') {
        let name_end = rest[open + 1..].find('"')? + open + 1;
        let name = rest[open + 1..name_end].to_owned();
        rest = &rest[name_end..];
        let value_at = rest.find("\"value\": ")? + "\"value\": ".len();
        let value_end = rest[value_at..].find(',')? + value_at;
        let value: f64 = rest[value_at..value_end].parse().ok()?;
        let unit_at = rest.find("\"unit\": \"")? + "\"unit\": \"".len();
        let unit_end = rest[unit_at..].find('"')? + unit_at;
        let unit = rest[unit_at..unit_end].to_owned();
        rest = &rest[unit_end + 1..];
        rest = &rest[rest.find('}')? + 1..];
        metrics.push((name, value, unit));
    }
    Some(ChildResult {
        correct: line.contains("\"correct\": true"),
        attempted: number_after("\"attempted\": ")?,
        failed: number_after("\"failed\": ")?,
        metrics,
        digest: stdout
            .lines()
            .find_map(|l| l.strip_prefix("output_digest "))
            .map(str::to_owned),
    })
}

/// Run every requested workload, timed and traced, `repeat` times each
/// in fresh processes, and print each metric's median and quartiles.
fn orchestrate(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut all_correct = true;
    println!(
        "{:<13} {:<33} {:>14} {:>14} {:>14} {:>9}  unit",
        "workload", "metric", "median", "q1", "q3", "iqr/med"
    );
    for w in &workloads {
        for trace in [false, true] {
            let mut runs = Vec::with_capacity(args.repeat);
            for _ in 0..args.repeat {
                let out = Command::new(&exe)
                    .args(["--workload", w.name()])
                    .args(["--seed", &args.seed.to_string()])
                    .args(["--seconds", &args.seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }])
                    .output()
                    .map_err(|e| format!("running {}: {e}", exe.display()))?;
                let stdout = String::from_utf8_lossy(&out.stdout);
                let run = parse_result(&stdout).ok_or_else(|| {
                    format!(
                        "{} (trace {}) printed no result:\n{}",
                        w.name(),
                        u8::from(trace),
                        String::from_utf8_lossy(&out.stderr)
                    )
                })?;
                all_correct &= out.status.success() && run.correct;
                runs.push(run);
            }
            println!(
                "{:<13} {} runs ({}): {} queries attempted, {} failed",
                w.name(),
                runs.len(),
                if trace { "traced" } else { "timed" },
                runs.iter().map(|r| r.attempted).sum::<u64>(),
                runs.iter().map(|r| r.failed).sum::<u64>(),
            );
            if !trace {
                let digests: Vec<&str> = runs.iter().filter_map(|r| r.digest.as_deref()).collect();
                let stable = digests.windows(2).all(|d| d[0] == d[1]);
                println!(
                    "{:<13} output_digest {} ({})",
                    w.name(),
                    digests.first().unwrap_or(&"?"),
                    if stable {
                        "same in every run"
                    } else {
                        "DIFFERS between runs"
                    }
                );
                all_correct &= stable;
            }
            for (k, (name, _, unit)) in runs[0].metrics.iter().enumerate() {
                let values: Vec<f64> = runs
                    .iter()
                    .filter_map(|r| r.metrics.get(k))
                    .map(|m| m.1)
                    .collect();
                let [q1, med, q3] = stats::quartiles(&values);
                let spread = if med != 0.0 { (q3 - q1) / med } else { 0.0 };
                println!(
                    "{:<13} {name:<33} {med:>14.6} {q1:>14.6} {q3:>14.6} {spread:>9.4}  {unit}",
                    w.name()
                );
            }
        }
    }
    println!(
        "every run correct: {}",
        if all_correct { "yes" } else { "NO" }
    );
    Ok(all_correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_generated_input_is_feasible() {
        for w in Workload::ALL {
            for seed in [7, 42] {
                for case in QueryList::new(w, seed).cases {
                    assert_eq!(layers::feasible(&case), Ok(true), "{}", case.label());
                }
            }
        }
    }

    #[test]
    fn result_lines_round_trip() {
        let line = "output_digest x 00ff\n{\"correct\": true, \"attempted\": 120, \"failed\": 0, \
                    \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
                    \"a.b\": {\"value\": 1e-7, \"unit\": \"1/s\"}}}";
        let r = parse_result(line).expect("parses");
        assert!(r.correct);
        assert_eq!((r.attempted, r.failed), (120, 0));
        assert_eq!(r.digest.as_deref(), Some("x 00ff"));
        assert_eq!(
            r.metrics,
            vec![
                ("setup_s".to_owned(), 0.8127, "s".to_owned()),
                ("a.b".to_owned(), 1e-7, "1/s".to_owned())
            ]
        );
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(str::to_owned));
        let a = parse("--workload fleet_plan --seed 7 --seconds 3 --trace 1").expect("valid");
        assert_eq!(a.workload, Some(Workload::FleetPlan));
        assert_eq!((a.seed, a.seconds, a.trace, a.repeat), (7, 3, true, 1));
        assert_eq!(parse("--workload all").expect("valid").workload, None);
        for bad in [
            "",
            "--workload",
            "--workload hit",
            "--workload all --trace 2",
            "--seed 1",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
