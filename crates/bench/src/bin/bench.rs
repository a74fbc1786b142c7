//! Quick-mode benchmark runner.
//!
//! Drives the four criterion suites (netsim, collectives, iteration,
//! groups) with the short quick profile, measures netsim event throughput
//! and the end-to-end `all_experiments` wall time, counts one paper
//! cell's logical flows, launch entries and engine flows (the twin
//! census), and writes the whole snapshot to `BENCH_netsim.json` at the
//! workspace root.
//!
//! Quick-profile numbers are for trend tracking, not precision: use
//! `cargo bench` for the full measurement windows.

use std::fmt::Write as _;
use std::time::Instant;

use criterion::{BenchResult, Criterion, Throughput};
use holmes_bench::suites;

/// Where the JSON snapshot lands: the workspace root, independent of the
/// directory `cargo run` was invoked from.
const OUT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_netsim.json");

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn write_suite(out: &mut String, name: &str, results: &[BenchResult], last: bool) {
    let _ = writeln!(out, "    \"{name}\": [");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        let throughput = match r.throughput {
            Some(Throughput::Bytes(b)) => format!(", \"throughput_bytes\": {b}"),
            Some(Throughput::Elements(e)) => format!(", \"throughput_elements\": {e}"),
            None => String::new(),
        };
        let _ = writeln!(
            out,
            "      {{\"id\": \"{}\", \"mean_ns\": {:.1}, \"median_ns\": {:.1}, \
             \"min_ns\": {:.1}, \"iterations\": {}{}}}{comma}",
            json_escape(&r.id),
            r.mean_ns,
            r.median_ns,
            r.min_ns,
            r.iterations,
            throughput,
        );
    }
    let _ = writeln!(out, "    ]{}", if last { "" } else { "," });
}

fn main() {
    let mut c = Criterion::quick();

    println!("== netsim suite (quick) ==");
    suites::netsim::benches(&mut c);
    let netsim = c.take_results();
    println!("== collectives suite (quick) ==");
    suites::collectives::benches(&mut c);
    let collectives = c.take_results();
    println!("== iteration suite (quick) ==");
    suites::iteration::benches(&mut c);
    let iteration = c.take_results();
    println!("== groups suite (quick) ==");
    suites::groups::benches(&mut c);
    let groups = c.take_results();

    // Event throughput on the reference collective workload (4 clusters
    // of 32 full-duplex nodes running ring steps), best of five runs so
    // scheduler noise biases low, not high.
    let mut events = 0u64;
    let mut best_rate = 0.0f64;
    for _ in 0..5 {
        let (ev, secs) = suites::netsim::events_per_sec_probe();
        let rate = ev as f64 / secs;
        if rate > best_rate {
            best_rate = rate;
            events = ev;
        }
    }
    println!("netsim events/sec: {best_rate:.0} ({events} events)");

    // Large-topology scaling scenario: 8 clusters x 64 nodes running
    // hierarchical all-reduce waves. Best of three (it is ~12x the
    // reference workload's event count).
    let mut large_events = 0u64;
    let mut large_rate = 0.0f64;
    for _ in 0..3 {
        let (ev, secs) = suites::netsim::large_topology_probe();
        let rate = ev as f64 / secs;
        if rate > large_rate {
            large_rate = rate;
            large_events = ev;
        }
    }
    println!("netsim events/sec (large): {large_rate:.0} ({large_events} events)");

    // End-to-end regeneration of every paper table and figure.
    let start = Instant::now();
    let sections = holmes_bench::all_experiment_sections();
    let wall = start.elapsed().as_secs_f64();
    println!(
        "all_experiments: {} sections in {wall:.3} s",
        sections.len()
    );

    // One fully-observed reference iteration (Holmes, PG1, two-cluster
    // hybrid): the unified metrics registry for this run is embedded in
    // the snapshot. Everything in it derives from simulated time, so the
    // section is deterministic and the bench gate compares it exactly.
    let mut session = holmes::obs::ObsSession::new();
    holmes::run_framework(
        holmes::FrameworkKind::Holmes,
        &holmes_topology::presets::hybrid_two_cluster(2),
        1,
        Some(&mut session),
    )
    .expect("observed reference iteration");
    let obs = session.report();
    println!(
        "observed reference iteration: {} spans / {} instants",
        session.trace.span_count(),
        session.trace.instant_count()
    );

    // Twin census of one paper cell: how many logical flows the
    // executor started, and how many engine flows netsim simulated.
    let (logical_flows, launch_entries, engine_flows, census_events) =
        suites::netsim::twin_census();
    println!(
        "twin census ({}): {logical_flows} logical flows, {launch_entries} launch entries, \
         {engine_flows} engine flows, {census_events} events",
        suites::netsim::TWIN_CENSUS_CELL
    );

    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"profile\": \"quick\",");
    let _ = writeln!(out, "  \"netsim_events_per_sec\": {:.0},", best_rate);
    let _ = writeln!(out, "  \"netsim_probe_events\": {events},");
    let _ = writeln!(out, "  \"netsim_events_per_sec_large\": {:.0},", large_rate);
    let _ = writeln!(out, "  \"netsim_large_events\": {large_events},");
    let _ = writeln!(out, "  \"all_experiments_wall_seconds\": {wall:.3},");
    let _ = writeln!(out, "  \"all_experiments_sections\": {},", sections.len());
    let _ = writeln!(
        out,
        "  \"twin_census\": {{\"cell\": \"{}\", \"logical_flows\": {logical_flows}, \
         \"launch_entries\": {launch_entries}, \"engine_flows\": {engine_flows}, \
         \"events\": {census_events}}},",
        suites::netsim::TWIN_CENSUS_CELL
    );
    out.push_str("  \"obs\": {\n    \"holmes_pg1_hybrid2\": ");
    out.push_str(obs.to_json(4).trim_start());
    out.push_str("\n  },\n");
    out.push_str("  \"suites\": {\n");
    write_suite(&mut out, "netsim", &netsim, false);
    write_suite(&mut out, "collectives", &collectives, false);
    write_suite(&mut out, "iteration", &iteration, false);
    write_suite(&mut out, "groups", &groups, true);
    out.push_str("  }\n}\n");

    std::fs::write(OUT_PATH, &out).expect("write BENCH_netsim.json");
    println!("wrote {OUT_PATH}");
}
