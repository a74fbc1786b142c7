//! Guided plan-synthesis benchmark.
//!
//! Exercises the branch-and-bound planner at the scales ISSUE 7 names and
//! writes `BENCH_plansynth.json` at the workspace root for the
//! `bench_diff` gate:
//!
//! * **`search`** (deterministic, in the `exact` map) — per-scenario node
//!   expansion and pruning counters, the number of distinct DP-group
//!   member sets priced, the winning cost bits, and the heap allocations
//!   and allocated bytes of one call (counted on the calling thread by
//!   this binary's counting allocator), for the 64-cluster
//!   aligned fleet, the 12-cluster unaligned fleet, and the 8-, 10- and
//!   12-cluster heterogeneous fleets at two pipeline stages (64-, 80- and
//!   96-member DP groups straddling several clusters: the planner's
//!   scaling case, where dominance on partly placed groups keeps the
//!   number of expanded prefixes down). The 8-cluster fleet also runs at
//!   `t = 8`, where the eight DP groups of a stage share one node pattern
//!   and the memo prices each pattern once.
//!   The three-cluster paper presets re-check the guided winner against
//!   the exhaustive oracle on every run.
//! * **`progress`** (deterministic, in the `exact` map) — the symbolic
//!   progress checker swept over every fault preset on the resilience
//!   environment: scenario and verdict counts, and the invariant that
//!   the sweep stays counterexample-free.
//! * **wall times** (machine-dependent, in the `toleranced` map) — per-plan
//!   wall-clock on all six scenarios (best of batches lasting at least
//!   5 ms each, divided by the batch size), guided plans/sec over the paper
//!   presets (each preset timed the same way), and the progress-checker
//!   sweep time (so `bench_diff` catches a checker blowup the same way it
//!   catches a planner one).
//!   The 64-cluster fleet must additionally plan in under a second —
//!   the acceptance criterion — which the snapshot's `bounds` map makes
//!   `bench_diff` enforce as an absolute limit, not a relative one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Instant;

use holmes::topology::{presets, Topology};
use holmes::{verify_preset_progress, FaultPreset};
use holmes_analysis::EventSpace;
use holmes_bench::snapshot::{Better, Snapshot};
use holmes_obs::json;
use holmes_parallel::{
    search_cluster_orders, synthesize_placement, GroupLayout, ParallelDegrees, SynthStats,
};

/// Where the JSON snapshot lands: the workspace root, independent of the
/// directory `cargo run` was invoked from.
const OUT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_plansynth.json");

/// Per-rank DP gradient volume used across scenarios: 4 GiB, PG-scale.
const GRADIENT_BYTES: u64 = 1 << 32;

/// The system allocator, counting each thread's allocations (fresh ones
/// and reallocations) and the bytes they request, so a planner call's
/// figures are exact whatever other threads do.
struct CountingAlloc;

thread_local! {
    static ALLOCATED: Cell<Allocations> = const { Cell::new(Allocations { count: 0, bytes: 0 }) };
}

/// Heap allocations and requested bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Allocations {
    count: u64,
    bytes: u64,
}

fn count_allocation(bytes: usize) {
    // `try_with`: the allocator also serves threads whose locals are gone.
    let _ = ALLOCATED.try_with(|a| {
        let mut made = a.get();
        made.count += 1;
        made.bytes += bytes as u64;
        a.set(made);
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `f`'s result and the allocations it made on this thread.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, Allocations) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    let after = ALLOCATED.with(Cell::get);
    let made = Allocations {
        count: after.count - before.count,
        bytes: after.bytes - before.bytes,
    };
    (out, made)
}

struct Scenario {
    name: &'static str,
    clusters: u32,
    ranks: u32,
    tensor: u32,
    pipeline: u32,
    stats: SynthStats,
    cost_seconds: f64,
    allocations: Allocations,
    wall_seconds: f64,
}

/// Shortest timed batch: calls far below a millisecond are timed in
/// batches at least this long and reported per call, so one preempted
/// call on a shared runner cannot read as a regression.
const MIN_BATCH_SECONDS: f64 = 5e-3;

/// Best wall time per call of `call` over `repeats` timed batches (best-of
/// to shed scheduler noise), each batch sized by one warm call to last at
/// least [`MIN_BATCH_SECONDS`].
fn best_seconds_per_call(repeats: u32, mut call: impl FnMut()) -> f64 {
    let start = Instant::now();
    call();
    let warm = start.elapsed().as_secs_f64();
    let batch = (MIN_BATCH_SECONDS / warm.max(1e-9)).ceil().clamp(1.0, 1e5) as u32;
    let mut best = f64::INFINITY;
    for _ in 0..repeats {
        let start = Instant::now();
        for _ in 0..batch {
            call();
        }
        best = best.min(start.elapsed().as_secs_f64() / f64::from(batch));
    }
    best
}

fn run_scenario(name: &'static str, topo: &Topology, t: u32, p: u32, repeats: u32) -> Scenario {
    let layout = GroupLayout::new(
        ParallelDegrees::infer_data(t, p, topo.device_count()).expect("degrees divide the fleet"),
    );
    // One pass supplies the deterministic section; every timed call must
    // repeat its search profile, winner and allocations.
    let ((result, stats), allocations) =
        allocations_of(|| synthesize_placement(topo, &layout, GRADIENT_BYTES));
    let best = best_seconds_per_call(repeats, || {
        let ((r, s), a) = allocations_of(|| synthesize_placement(topo, &layout, GRADIENT_BYTES));
        assert_eq!(s, stats, "{name}: non-deterministic search profile");
        assert_eq!(
            r.cost_seconds.to_bits(),
            result.cost_seconds.to_bits(),
            "{name}: non-deterministic winner"
        );
        assert_eq!(a, allocations, "{name}: non-deterministic allocations");
    });
    Scenario {
        name,
        clusters: topo.cluster_count(),
        ranks: topo.device_count(),
        tensor: t,
        pipeline: p,
        stats,
        cost_seconds: result.cost_seconds,
        allocations,
        wall_seconds: best,
    }
}

/// Guided-vs-oracle equivalence over the paper's three-cluster presets,
/// checked on every call; returns guided plans/sec over the sweep (one
/// plan of each preset case, each timed like a scenario).
fn oracle_sweep(repeats: u32) -> f64 {
    let cases: Vec<(Topology, u32)> = vec![
        (presets::table4_2r_2r_2ib(), 3),
        (presets::table4_2r_2ib_2ib(), 3),
        (presets::table4_2r_2ib_2ib(), 2),
        (presets::table4_4r_4ib_4ib(), 2),
    ];
    let mut seconds = 0.0f64;
    for (topo, p) in &cases {
        let layout = GroupLayout::new(
            ParallelDegrees::infer_data(1, *p, topo.device_count())
                .expect("degrees divide the preset"),
        );
        let oracle = search_cluster_orders(topo, &layout, GRADIENT_BYTES);
        seconds += best_seconds_per_call(repeats, || {
            let (guided, _) = synthesize_placement(topo, &layout, GRADIENT_BYTES);
            assert_eq!(
                guided.cluster_order, oracle.cluster_order,
                "guided diverged from the exhaustive oracle (p={p})"
            );
            assert_eq!(guided.cost_seconds.to_bits(), oracle.cost_seconds.to_bits());
        });
    }
    cases.len() as f64 / seconds
}

/// Deterministic verdict totals of one full preset sweep, plus the
/// best-of wall time of the sweep.
struct ProgressSweep {
    preset_cells: usize,
    scenarios: usize,
    skipped: usize,
    completes: usize,
    completes_degraded: usize,
    fails_fast: usize,
    counterexamples: usize,
    wall_seconds: f64,
}

/// Run the symbolic progress checker over every fault preset on the
/// resilience CI environment — same topology, parameter group, and seed
/// as `BENCH_resilience.json`, same bounded event space as the preset
/// gate tests. Verdict totals are a pure function of the inputs and are
/// gated exactly; the sweep wall time rides the tolerance gate so a
/// checker slowdown trips CI like a planner one would.
fn progress_sweep(repeats: u32) -> ProgressSweep {
    let topo = presets::hybrid_two_cluster(2);
    let run = || {
        let mut sweep = ProgressSweep {
            preset_cells: 0,
            scenarios: 0,
            skipped: 0,
            completes: 0,
            completes_degraded: 0,
            fails_fast: 0,
            counterexamples: 0,
            wall_seconds: 0.0,
        };
        for preset in FaultPreset::ALL {
            let r = verify_preset_progress(&topo, 1, preset, 11, EventSpace::quick())
                .unwrap_or_else(|e| panic!("progress sweep {}: {e}", preset.name()));
            sweep.preset_cells += 1;
            sweep.scenarios += r.scenarios;
            sweep.skipped += r.skipped;
            sweep.completes += r.completes;
            sweep.completes_degraded += r.completes_degraded;
            sweep.fails_fast += r.fails_fast;
            sweep.counterexamples += r.counterexamples.len();
        }
        sweep
    };
    let mut best = run();
    // Best-of timed passes, asserting the verdict totals never drift.
    let timed = repeats.clamp(1, 5);
    best.wall_seconds = f64::INFINITY;
    for _ in 0..timed {
        let start = Instant::now();
        let s = run();
        let wall = start.elapsed().as_secs_f64();
        assert_eq!(s.scenarios, best.scenarios, "non-deterministic sweep size");
        assert_eq!(s.completes, best.completes, "non-deterministic verdicts");
        assert_eq!(s.fails_fast, best.fails_fast, "non-deterministic verdicts");
        best.wall_seconds = best.wall_seconds.min(wall);
    }
    best
}

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let profile = if full { "full" } else { "quick" };
    let repeats = if full { 50 } else { 10 };
    println!("== guided plan synthesis ({profile}) ==");

    let fleet64 = run_scenario(
        "fleet64_aligned",
        &presets::synthetic_fleet(64, 2),
        1,
        64,
        repeats,
    );
    let fleet12 = run_scenario(
        "fleet12_unaligned",
        &presets::synthetic_fleet(12, 2),
        1,
        6,
        repeats,
    );
    let fleet8 = run_scenario("fleet8_p2", &presets::fleet_hetero(8, 2), 1, 2, repeats);
    let fleet8_t8 = run_scenario("fleet8_t8_p2", &presets::fleet_hetero(8, 2), 8, 2, repeats);
    let fleet10 = run_scenario(
        "fleet_hetero10_p2",
        &presets::fleet_hetero(10, 2),
        1,
        2,
        repeats,
    );
    let fleet12_hetero = run_scenario(
        "fleet_hetero12_p2",
        &presets::fleet_hetero(12, 2),
        1,
        2,
        repeats,
    );
    let plans_per_sec = oracle_sweep(repeats);
    let progress = progress_sweep(repeats);

    let searched = [
        &fleet64,
        &fleet12,
        &fleet8,
        &fleet8_t8,
        &fleet10,
        &fleet12_hetero,
    ];
    for s in searched {
        println!(
            "{:<18} {:>3} clusters / {:>4} ranks  t={} p={:<3} expanded {:>5}  pruned {:>5}  \
             priced {:>4}  allocs {:>6}  {:>9.3}ms  cost {:.6}s{}",
            s.name,
            s.clusters,
            s.ranks,
            s.tensor,
            s.pipeline,
            s.stats.expanded,
            s.stats.pruned_total(),
            s.stats.priced,
            s.allocations.count,
            s.wall_seconds * 1e3,
            s.cost_seconds,
            if s.stats.heuristic_won {
                "  (heuristic won)"
            } else {
                "  (improved)"
            },
        );
    }
    println!("oracle sweep: guided == exhaustive, {plans_per_sec:.0} plans/sec");
    println!(
        "progress sweep: {} preset cells, {} scenarios (+{} skipped), \
         {} complete / {} degraded / {} fail-fast, {} counterexample(s), {:.3}ms",
        progress.preset_cells,
        progress.scenarios,
        progress.skipped,
        progress.completes,
        progress.completes_degraded,
        progress.fails_fast,
        progress.counterexamples,
        progress.wall_seconds * 1e3,
    );
    assert_eq!(
        progress.counterexamples, 0,
        "shipped presets must be progress-clean"
    );
    assert!(
        fleet64.wall_seconds < 1.0,
        "64-cluster fleet must plan in under a second, took {:.3}s",
        fleet64.wall_seconds
    );

    let mut snap = Snapshot::default();
    let search = searched.into_iter().map(|s| {
        let fields = [
            ("clusters", s.clusters.into()),
            ("ranks", s.ranks.into()),
            ("pipeline", s.pipeline.into()),
            ("expanded", s.stats.expanded.into()),
            ("pushed", s.stats.pushed.into()),
            ("pruned_bound", s.stats.pruned_bound.into()),
            ("pruned_dominated", s.stats.pruned_dominated.into()),
            ("pruned_symmetry", s.stats.pruned_symmetry.into()),
            ("priced", s.stats.priced.into()),
            ("heuristic_won", s.stats.heuristic_won.into()),
            ("cost_seconds", s.cost_seconds.into()),
            ("allocations", s.allocations.count.into()),
            ("allocated_bytes", s.allocations.bytes.into()),
        ];
        (s.name, json::obj(fields))
    });
    snap.exact("search", json::obj(search));
    let verdicts = [
        ("preset_cells", progress.preset_cells.into()),
        ("scenarios", progress.scenarios.into()),
        ("skipped", progress.skipped.into()),
        ("completes", progress.completes.into()),
        ("completes_degraded", progress.completes_degraded.into()),
        ("fails_fast", progress.fails_fast.into()),
        ("counterexamples", progress.counterexamples.into()),
    ];
    snap.exact("progress", json::obj(verdicts));
    // Shipped presets must be progress-clean, whatever the baseline says.
    snap.bound("exact.progress.counterexamples", "==", 0.0, false);
    for (name, seconds) in [
        ("fleet64_plan_seconds", fleet64.wall_seconds),
        ("fleet12_plan_seconds", fleet12.wall_seconds),
        ("fleet8_p2_plan_seconds", fleet8.wall_seconds),
        ("fleet8_t8_p2_plan_seconds", fleet8_t8.wall_seconds),
        ("fleet_hetero10_p2_plan_seconds", fleet10.wall_seconds),
        (
            "fleet_hetero12_p2_plan_seconds",
            fleet12_hetero.wall_seconds,
        ),
    ] {
        snap.toleranced(name, seconds, Better::Lower);
    }
    snap.toleranced("oracle_plans_per_sec", plans_per_sec, Better::Higher);
    snap.toleranced(
        "progress_sweep_seconds",
        progress.wall_seconds,
        Better::Lower,
    );
    // The acceptance criterion as an absolute limit: the 64-cluster fleet
    // plans in well under a millisecond on any machine that can build the
    // workspace, so 1s of headroom is not a flake risk.
    snap.bound("toleranced.fleet64_plan_seconds.value", "<", 1.0, false);
    snap.ungated("profile", profile);
    snap.write(OUT_PATH).expect("write BENCH_plansynth.json");
    println!("wrote {OUT_PATH}");
}
