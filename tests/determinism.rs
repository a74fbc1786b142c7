//! Cross-crate determinism contracts.
//!
//! The autotuner and the placement search fan independent evaluations out
//! across threads with `par_iter`; there is no separate serial mode.
//! Serial means `RAYON_NUM_THREADS=1`, at which the vendored rayon maps in
//! place on the calling thread. The shim reads that variable on every
//! call, so only a fresh process can pin the thread count: the autotune
//! and placement-search tests below each re-run this test binary at one
//! and at four threads and require byte-equal reports — same winners,
//! same rankings, bit-identical scores — on the paper's own topologies.
//! A netsim check on top pins that the slab-backed active set preserves
//! the exact event timeline of the original ordered-map implementation.

use std::fmt::Write as _;
use std::process::Command;

use holmes::autotune::{autotune, AutotuneRequest};
use holmes::model::ParameterGroup;
use holmes::topology::presets;
use holmes::HolmesConfig;
use holmes_netsim::{FlowSpec, LinkCapacity, NetSim, SimDuration};
use holmes_parallel::{search_cluster_orders, GroupLayout, ParallelDegrees};

/// Set in the child process: print the report instead of spawning.
const CHILD_ENV: &str = "HOLMES_DETERMINISM_CHILD";
const REPORT_BEGIN: &str = "--- thread-count report ---";
const REPORT_END: &str = "--- end of report ---";

/// Autotune rankings on three paper topologies, with every score as raw
/// bits.
fn autotune_report() -> String {
    let mut out = String::new();
    let cfg = HolmesConfig::full();
    for (name, topo, group) in [
        ("hybrid_split(4,4)", presets::hybrid_split(4, 4), 3),
        ("hybrid_two_cluster(2)", presets::hybrid_two_cluster(2), 1),
        ("table4_2r_2ib_2ib", presets::table4_2r_2ib_2ib(), 5),
    ] {
        let req = AutotuneRequest::new(ParameterGroup::table2(group).job());
        for c in autotune(&topo, &req, &cfg) {
            let sim = c.simulated.map_or("-".to_string(), |m| {
                format!("{:#x}", m.iteration_seconds.to_bits())
            });
            writeln!(
                out,
                "autotune {name} PG{group}: t={} p={} d={} est={:#x} sim={sim}",
                c.tensor,
                c.pipeline,
                c.data,
                c.estimated_seconds.to_bits(),
            )
            .unwrap();
        }
    }
    out
}

/// Exhaustive-search winners on the table-4 presets, with every cost as
/// raw bits.
fn search_report() -> String {
    let mut out = String::new();
    const GRAD: u64 = 1 << 32;
    for (name, topo, p) in [
        (
            "hybrid_two_cluster(2)",
            presets::hybrid_two_cluster(2),
            2u32,
        ),
        ("table4_2r_2r_2ib", presets::table4_2r_2r_2ib(), 3),
        ("table4_2r_2ib_2ib", presets::table4_2r_2ib_2ib(), 3),
        ("table4_4r_4ib_4ib", presets::table4_4r_4ib_4ib(), 3),
        // Misaligned: p = 2 over three clusters, so the orders' costs differ.
        ("table4_2r_2ib_2ib", presets::table4_2r_2ib_2ib(), 2),
    ] {
        let layout =
            GroupLayout::new(ParallelDegrees::infer_data(1, p, topo.device_count()).unwrap());
        let r = search_cluster_orders(&topo, &layout, GRAD);
        writeln!(
            out,
            "search {name} p={p}: order={:?} cost={:#x} evaluated={}",
            r.cluster_order,
            r.cost_seconds.to_bits(),
            r.evaluated,
        )
        .unwrap();
    }
    out
}

/// Run test `name` alone in a child process at `threads` rayon workers
/// and return the report it prints.
fn report_at(name: &str, threads: &str) -> String {
    let out = Command::new(std::env::current_exe().expect("test binary path"))
        .args(["--exact", name, "--nocapture", "--test-threads", "1"])
        .env(CHILD_ENV, "1")
        .env("RAYON_NUM_THREADS", threads)
        .output()
        .expect("re-run the test binary");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
    assert!(
        out.status.success(),
        "child at RAYON_NUM_THREADS={threads} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let begin = stdout.find(REPORT_BEGIN).expect("report start") + REPORT_BEGIN.len();
    let end = stdout.find(REPORT_END).expect("report end");
    stdout[begin..end].to_string()
}

/// In the child, print `report()`; in the parent, re-run test `name` at
/// one and at four threads and require byte-equal reports. Returns the
/// one-thread report in the parent, `None` in the child.
fn same_report_at_one_and_four_threads(name: &str, report: fn() -> String) -> Option<String> {
    if std::env::var_os(CHILD_ENV).is_some() {
        print!("\n{REPORT_BEGIN}\n{}{REPORT_END}\n", report());
        return None;
    }
    let serial = report_at(name, "1");
    let parallel = report_at(name, "4");
    assert_eq!(
        serial, parallel,
        "RAYON_NUM_THREADS=1 and =4 must give byte-equal reports"
    );
    Some(serial)
}

#[test]
fn autotune_parallel_ranking_matches_serial_on_paper_topologies() {
    if let Some(serial) = same_report_at_one_and_four_threads(
        "autotune_parallel_ranking_matches_serial_on_paper_topologies",
        autotune_report,
    ) {
        assert!(
            serial.contains("\nautotune table4_2r_2ib_2ib PG5: "),
            "report:\n{serial}"
        );
    }
}

#[test]
fn placement_search_parallel_winner_matches_serial_on_paper_topologies() {
    if let Some(serial) = same_report_at_one_and_four_threads(
        "placement_search_parallel_winner_matches_serial_on_paper_topologies",
        search_report,
    ) {
        assert_eq!(serial.matches("\nsearch ").count(), 5, "report:\n{serial}");
    }
}

/// Render the full event timeline of a staggered multi-flow workload as a
/// byte string. Two runs must agree byte-for-byte: the slab-backed active
/// set must not let slot assignment leak into float summation order.
fn event_log() -> Vec<u8> {
    let mut sim = NetSim::new();
    let shared = sim.add_link(LinkCapacity::new(3e9));
    let side = sim.add_link(LinkCapacity::new(1e9));
    for t in 0..12u64 {
        let path = if t % 3 == 0 {
            vec![shared, side]
        } else {
            vec![shared]
        };
        sim.start_flow(FlowSpec {
            path,
            bytes: 7_000_000 * (t + 1),
            latency: SimDuration::from_micros(t * 5),
            rate_cap: if t % 4 == 0 { 0.9e9 } else { f64::INFINITY },
            token: t,
            count: 1,
        });
    }
    let mut log = Vec::new();
    while let Some(c) = sim.next() {
        log.extend_from_slice(format!("{:?} {c:?}\n", sim.now()).as_bytes());
    }
    log
}

#[test]
fn netsim_event_log_is_byte_identical_across_runs() {
    assert_eq!(event_log(), event_log());
}

mod registry_export {
    //! The unified metrics registry must export byte-identically when the
    //! same operation sequence is replayed — the contract the bench gate
    //! relies on when it compares `obs` sections exactly.
    use holmes_repro::obs::{json, Registry};
    use proptest::prelude::*;

    const NAMES: [&str; 6] = [
        "engine.flow_retries",
        "engine.total_seconds",
        "netsim.flow_seconds",
        "parallel.dp_groups",
        "core.runs",
        "x.y",
    ];

    proptest! {
        #[test]
        fn registry_export_is_byte_identical_across_replays(
            ops in prop::collection::vec((0u8..3, 0usize..6, 0.0f64..1.0e6), 0..48)
        ) {
            let build = || {
                let mut r = Registry::new();
                for (op, k, v) in &ops {
                    match op {
                        0 => r.counter_add(NAMES[*k], v.to_bits() % 1024),
                        1 => r.gauge_set(NAMES[*k], *v),
                        _ => r.observe_default(NAMES[*k], *v),
                    }
                }
                r.to_json()
            };
            let a = build();
            prop_assert_eq!(&a, &build());
            // And every export is parseable JSON.
            prop_assert!(json::parse(&a).is_ok());
        }
    }
}

/// Guided synthesis is deterministic down to its search profile: the
/// expansion, per-rule pruning and group-pricing counts are pinned per
/// topology. Any change to the bound, the tie-break key, the pruning
/// rules or the group-cost memo shows up here as an exact-count diff,
/// not a flaky drift.
#[test]
fn guided_synthesis_node_counts_are_pinned() {
    use holmes_parallel::{synthesize_placement, PlacementWorkload, SynthStats};
    let gradient_only = PlacementWorkload::from(1u64 << 32);
    // (name, preset, t, p, workload, expected stats)
    let cases: [(
        &str,
        holmes::topology::Topology,
        u32,
        u32,
        PlacementWorkload,
        SynthStats,
    ); 6] = [
        (
            "table4_4r_4ib_4ib p2",
            presets::table4_4r_4ib_4ib(),
            1,
            2,
            gradient_only,
            SynthStats {
                expanded: 4,
                pushed: 4,
                pruned_bound: 3,
                pruned_dominated: 0,
                pruned_symmetry: 2,
                priced: 4,
                heuristic_won: true,
            },
        ),
        (
            "table4_2r_2ib_2ib p2",
            presets::table4_2r_2ib_2ib(),
            1,
            2,
            gradient_only,
            SynthStats {
                expanded: 5,
                pushed: 6,
                pruned_bound: 2,
                pruned_dominated: 0,
                pruned_symmetry: 2,
                priced: 5,
                heuristic_won: false,
            },
        ),
        (
            "fleet64 p64",
            presets::synthetic_fleet(64, 2),
            1,
            64,
            gradient_only,
            SynthStats {
                expanded: 0,
                pushed: 0,
                pruned_bound: 1,
                pruned_dominated: 0,
                pruned_symmetry: 0,
                priced: 64,
                heuristic_won: true,
            },
        ),
        (
            "fleet12 p6",
            presets::synthetic_fleet(12, 2),
            1,
            6,
            gradient_only,
            SynthStats {
                expanded: 136,
                pushed: 136,
                pruned_bound: 176,
                pruned_dominated: 125,
                pruned_symmetry: 516,
                priced: 44,
                heuristic_won: true,
            },
        ),
        // Mixed generations at p = 2: each 64-member DP group spans four
        // clusters, so most prefix boundaries leave one partly placed and
        // dominance keys on the partial-group signature.
        (
            "fleet_hetero8 p2 skew",
            presets::fleet_hetero(8, 2),
            1,
            2,
            PlacementWorkload::new(1 << 32, 2.5e13),
            SynthStats {
                expanded: 348,
                pushed: 366,
                pruned_bound: 192,
                pruned_dominated: 499,
                pruned_symmetry: 0,
                priced: 70,
                heuristic_won: false,
            },
        ),
        // The same fleet at t = 8: the eight DP groups of a stage sit on
        // GPU m of the same nodes, so they share one node pattern and are
        // priced once.
        (
            "fleet_hetero8 t8 p2",
            presets::fleet_hetero(8, 2),
            8,
            2,
            gradient_only,
            SynthStats {
                expanded: 318,
                pushed: 318,
                pruned_bound: 280,
                pruned_dominated: 395,
                pruned_symmetry: 0,
                priced: 70,
                heuristic_won: true,
            },
        ),
    ];
    for (name, topo, t, p, workload, expected) in cases {
        let n = topo.device_count();
        let layout = GroupLayout::new(ParallelDegrees::infer_data(t, p, n).unwrap());
        let (r1, s1) = synthesize_placement(&topo, &layout, workload);
        let (r2, s2) = synthesize_placement(&topo, &layout, workload);
        assert_eq!(s1, expected, "{name}: search profile drifted");
        assert_eq!(s1, s2, "{name}: non-deterministic stats");
        assert_eq!(r1.cluster_order, r2.cluster_order, "{name}");
        assert_eq!(
            r1.cost_seconds.to_bits(),
            r2.cost_seconds.to_bits(),
            "{name}"
        );
    }
}

/// The unaligned three-cluster paper preset is a case where guided
/// synthesis beats the fastest-first heuristic outright: the certified
/// winner reorders the clusters and strictly lowers the analytic DP-sync
/// cost. Pinned as a regression anchor for the search's usefulness, not
/// just its safety.
#[test]
fn guided_synthesis_improves_on_the_heuristic_when_stages_straddle() {
    use holmes_parallel::{synthesize_placement, HolmesScheduler};
    let topo = presets::table4_2r_2ib_2ib();
    let n = topo.device_count();
    let layout = GroupLayout::new(ParallelDegrees::infer_data(1, 2, n).unwrap());
    let (result, stats) = synthesize_placement(&topo, &layout, 1 << 32);
    assert!(!stats.heuristic_won);
    assert_ne!(result.cluster_order, HolmesScheduler::cluster_order(&topo));
}
