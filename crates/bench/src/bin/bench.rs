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

use std::time::Instant;

use criterion::{BenchResult, Criterion, Throughput};
use holmes_bench::snapshot::{round, Better, Snapshot};
use holmes_bench::suites;
use holmes_obs::json::{self, Value};

/// Where the JSON snapshot lands: the workspace root, independent of the
/// directory `cargo run` was invoked from.
const OUT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_netsim.json");

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

/// Gate each benchmark's mean (as `<id>/mean_ns`) and return the suite's
/// ungated rows.
fn suite(snap: &mut Snapshot, results: &[BenchResult]) -> Value {
    let rows = results.iter().map(|r| {
        snap.toleranced(
            &format!("{}/mean_ns", r.id),
            round(r.mean_ns, 1),
            Better::Lower,
        );
        let mut row = vec![
            ("id", r.id.as_str().into()),
            ("median_ns", round(r.median_ns, 1).into()),
            ("min_ns", round(r.min_ns, 1).into()),
            ("iterations", r.iterations.into()),
        ];
        match r.throughput {
            Some(Throughput::Bytes(b)) => row.push(("throughput_bytes", b.into())),
            Some(Throughput::Elements(e)) => row.push(("throughput_elements", e.into())),
            None => {}
        }
        json::obj(row)
    });
    Value::Arr(rows.collect())
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
    let census = suites::netsim::twin_census();
    let classes = census.classes;
    println!(
        "twin census ({}): {} logical flows, {} launch entries, {} engine flows, {} events; \
         {} devices in {} classes at start, {} splits, {} -> {} device advance steps, \
         {} of {} collectives folded, {} schedules built",
        suites::netsim::TWIN_CENSUS_CELL,
        census.logical_flows,
        census.launch_entries,
        census.engine_flows,
        census.events,
        census.devices,
        classes.classes_at_start,
        classes.splits,
        classes.steps_before(),
        classes.steps_after(),
        classes.collectives_folded,
        classes.collectives,
        classes.schedules_built,
    );

    let mut snap = Snapshot::default();
    snap.exact("profile", "quick");
    snap.exact("netsim_probe_events", events);
    snap.exact("netsim_large_events", large_events);
    snap.exact("all_experiments_sections", sections.len());
    let twins = [
        ("cell", suites::netsim::TWIN_CENSUS_CELL.into()),
        ("logical_flows", census.logical_flows.into()),
        ("launch_entries", census.launch_entries.into()),
        ("engine_flows", census.engine_flows.into()),
        ("events", census.events.into()),
    ];
    snap.exact("twin_census", json::obj(twins));
    let class_census = [
        ("cell", suites::netsim::TWIN_CENSUS_CELL.into()),
        ("devices", census.devices.into()),
        ("classes_at_start", classes.classes_at_start.into()),
        ("splits", classes.splits.into()),
        ("advance_steps_before", classes.steps_before().into()),
        ("advance_steps_after", classes.steps_after().into()),
        ("collectives", classes.collectives.into()),
        ("collectives_folded", classes.collectives_folded.into()),
        ("schedules_built", classes.schedules_built.into()),
    ];
    snap.exact("class_census", json::obj(class_census));
    snap.exact(
        "obs",
        json::obj([("holmes_pg1_hybrid2", obs.metrics.to_value())]),
    );
    // Wall-clock rates: tolerance against the baseline, plus absolute
    // speedup floors so tolerated drift can never re-open the gap to the
    // legacy core.
    let floors = [
        (
            "netsim_events_per_sec",
            best_rate,
            PROBE_SPEEDUP_FLOOR * LEGACY_EVENTS_PER_SEC,
        ),
        (
            "netsim_events_per_sec_large",
            large_rate,
            LARGE_EVENTS_FLOOR,
        ),
    ];
    for (name, rate, floor) in floors {
        snap.toleranced(name, round(rate, 0), Better::Higher);
        snap.bound(&format!("toleranced.{name}.value"), ">=", floor, true);
    }
    snap.toleranced(
        "all_experiments_wall_seconds",
        round(wall, 3),
        Better::Lower,
    );
    let suites = [
        ("netsim", suite(&mut snap, &netsim)),
        ("collectives", suite(&mut snap, &collectives)),
        ("iteration", suite(&mut snap, &iteration)),
        ("groups", suite(&mut snap, &groups)),
    ];
    snap.ungated("suites", json::obj(suites));

    snap.write(OUT_PATH).expect("write BENCH_netsim.json");
    println!("wrote {OUT_PATH}");
}
