//! Resilience experiment runner.
//!
//! Runs the clean / flaky-trunk / dying-NIC scenario family and writes
//! the deterministic snapshot to `BENCH_resilience.json` at the
//! workspace root. Pass `--full` to add the larger hybrid-split fleet
//! (CI runs the quick profile).

use holmes_bench::resilience;

/// Where the JSON snapshot lands: the workspace root, independent of the
/// directory `cargo run` was invoked from.
const OUT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_resilience.json");

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let profile = if full { "full" } else { "quick" };
    println!("== resilience family ({profile}) ==");

    let rows = resilience::run_family(!full);
    for row in &rows {
        let r = &row.report;
        println!(
            "{:<22} {:<12} clean {:>8.3}s  faulted {:>8.3}s  x{:<5.2} \
             retries {:>2}  tcp_fallback {:>2}  windows {:>2}{}",
            row.env,
            r.preset.name(),
            r.clean_seconds,
            r.faulted_seconds,
            r.slowdown(),
            r.flow_retries,
            r.tcp_fallback_flows,
            r.fault_windows.len(),
            match &r.replan {
                Some(replan) => format!("  replan downgraded {:?}", replan.downgraded_groups),
                None => String::new(),
            },
        );
    }

    resilience::snapshot(&rows, profile)
        .write(OUT_PATH)
        .expect("write BENCH_resilience.json");
    println!("wrote {OUT_PATH}");
}
