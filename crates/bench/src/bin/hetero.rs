//! Heterogeneous-fleet experiment runner.
//!
//! Exercises the straggler-aware Eq. 2 generalization on the
//! mixed-generation presets and writes `BENCH_hetero.json` at the
//! workspace root for the `bench_diff` gate:
//!
//! * **`partition`** (deterministic, in the `exact` map) — per hetero preset:
//!   the straggler-aware layer split next to the uniform-rate Eq. 2 split
//!   over the same placement, both simulated end to end, and the speedup
//!   of the former over the latter. The acceptance criterion — the
//!   straggler-aware partition strictly beats uniform Eq. 2 on simulated
//!   iteration time — is asserted here and re-checked by `bench_diff`.
//! * **`variants`** (deterministic, in the `exact` map) — the hetero stack
//!   exercised beyond planning: the autotuner ranking degrees on a
//!   generation-split fleet, the resilience family's straggler/churn
//!   presets running on the mixed fleet (churn re-plans price compute
//!   skew through `replan_for_delta`'s two-axis workload), and the
//!   hierarchical cross-cluster all-reduce against the forced-TCP fallback.
//! * **wall times** (machine-dependent, in the `toleranced` map) — total bench
//!   wall-clock.
//!
//! Pass `--full` to repeat the deterministic pass more times (CI runs the
//! quick profile; the snapshot content is identical either way).

use std::time::Instant;

use holmes::calibration::device_speed;
use holmes::engine::{simulate_iteration, DpSyncStrategy};
use holmes::{
    autotune, plan_for, run_resilient, AutotuneRequest, FaultPreset, HolmesConfig, PlanRequest,
};
use holmes_bench::snapshot::{Better, Snapshot};
use holmes_obs::json;
use holmes_parallel::{ParallelPlan, SelfAdaptingPartition};
use holmes_topology::{presets, Topology};

/// Where the JSON snapshot lands: the workspace root, independent of the
/// directory `cargo run` was invoked from.
const OUT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hetero.json");

/// Same seed as the resilience snapshot family: the fault timelines this
/// bench replays on the hetero fleets are the audited ones.
const SEED: u64 = 42;

/// One hetero preset's straggler-vs-uniform partition comparison.
struct PartitionRow {
    preset: &'static str,
    parameter_group: u8,
    pipeline: u32,
    ranks: u32,
    generations: usize,
    straggler_layers: Vec<u32>,
    eq2_layers: Vec<u32>,
    straggler_seconds: f64,
    eq2_seconds: f64,
}

impl PartitionRow {
    fn speedup(&self) -> f64 {
        self.eq2_seconds / self.straggler_seconds
    }
}

/// Plan a hetero preset with full Holmes (straggler-aware partition),
/// rebuild the identical placement under the uniform-rate Eq. 2 split,
/// and simulate both. `pipeline` overrides the parameter group's depth so
/// each preset runs at the depth that divides its fleet.
fn partition_row(preset: &'static str, topo: &Topology, pg: u8, pipeline: u32) -> PartitionRow {
    let mut req = PlanRequest::parameter_group(pg);
    req.pipeline_parallel = pipeline;
    let cfg = HolmesConfig::full();
    let (plan, engine_cfg) = plan_for(topo, &req, &cfg, DpSyncStrategy::DistributedOptimizer)
        .unwrap_or_else(|e| panic!("{preset}: {e}"));
    assert!(
        !topo.uniform_compute(),
        "{preset}: hetero bench needs a mixed-generation fleet"
    );

    // The uniform-rate baseline: today's Eq. 2 proportional split over the
    // calibrated per-stage scalar speeds (slowest member's NIC × GPU
    // anchor), on the *same* placement — so the delta is the partition
    // alone, not the device order.
    let degrees = plan.degrees();
    let stage_speeds: Vec<f64> = (0..degrees.pipeline)
        .map(|stage| {
            plan.stage_devices(stage)
                .iter()
                .map(|&r| {
                    let dev = topo.device(r).expect("device in topology");
                    device_speed(dev.nic_type, dev.gpu.peak_tflops)
                })
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let eq2_layers = SelfAdaptingPartition { alpha: cfg.alpha }
        .partition(req.job.config.num_layers, &stage_speeds);
    let eq2_plan = ParallelPlan::new(
        plan.layout,
        plan.assignment.clone(),
        eq2_layers.clone(),
        plan.scatter_gather,
    );

    let (_, straggler_metrics) = simulate_iteration(topo, &plan, &req.job, &engine_cfg, None, None)
        .unwrap_or_else(|e| panic!("{preset}/straggler: {e}"));
    let (_, eq2_metrics) = simulate_iteration(topo, &eq2_plan, &req.job, &engine_cfg, None, None)
        .unwrap_or_else(|e| panic!("{preset}/eq2: {e}"));

    PartitionRow {
        preset,
        parameter_group: pg,
        pipeline: degrees.pipeline,
        ranks: topo.device_count(),
        generations: topo.gpu_generations().len(),
        straggler_layers: plan.stage_layers.clone(),
        eq2_layers,
        straggler_seconds: straggler_metrics.iteration_seconds,
        eq2_seconds: eq2_metrics.iteration_seconds,
    }
}

/// The three hetero presets the PR ships, each at a pipeline depth that
/// divides its fleet. `gen_split_2c` runs at p=4 (two stages per
/// generation): Eq. 2's remainder rule parks the leftover layers on the
/// *last* stage — a V100/A100 straggler on these fleets — which is
/// exactly the misallocation the completion-time greedy repairs.
fn partition_rows() -> Vec<PartitionRow> {
    vec![
        partition_row("gen_mix_3c", &presets::gen_mix_3c(), 5, 3),
        partition_row("gen_split_2c", &presets::gen_split_2c(), 1, 4),
        partition_row("fleet_hetero_6_2", &presets::fleet_hetero(6, 2), 5, 3),
    ]
}

/// Autotune variant: the search ranks (t, p, d) on the generation-split
/// fleet; the winner plus its estimate and simulated time are pinned.
struct AutotuneVariant {
    preset: &'static str,
    tensor: u32,
    pipeline: u32,
    data: u32,
    fits_memory: bool,
    estimated_seconds: f64,
    simulated_seconds: f64,
}

fn autotune_variant() -> AutotuneVariant {
    let topo = presets::gen_split_2c();
    let req = AutotuneRequest::new(PlanRequest::parameter_group(1).job);
    // The ranking does not depend on the thread count, so the snapshot
    // is the same at any `RAYON_NUM_THREADS`.
    let ranked = autotune(&topo, &req, &HolmesConfig::full());
    let best = ranked.first().expect("autotune found a candidate");
    AutotuneVariant {
        preset: "gen_split_2c",
        tensor: best.tensor,
        pipeline: best.pipeline,
        data: best.data,
        fits_memory: best.fits_memory,
        estimated_seconds: best.estimated_seconds,
        simulated_seconds: best
            .simulated
            .expect("finalist was simulated")
            .iteration_seconds,
    }
}

/// Resilience variant: a straggler preset on the three-generation fleet,
/// plus both churn presets on the generation-split fleet (whose post-churn
/// device counts keep the degrees divisible, so the migration-aware
/// re-plan actually runs — pricing compute skew through
/// `replan_for_delta`'s two-axis workload).
struct ResilienceVariant {
    env: &'static str,
    preset: &'static str,
    clean_seconds: f64,
    faulted_seconds: f64,
    flow_retries: u64,
    tcp_fallback_flows: u64,
    delta_replan_moves: usize,
}

fn resilience_variants() -> Vec<ResilienceVariant> {
    let gen_mix = presets::gen_mix_3c();
    let gen_split = presets::gen_split_2c();
    let cells: [(&'static str, &Topology, u8, FaultPreset); 3] = [
        ("gen_mix_3c", &gen_mix, 5, FaultPreset::StragglerNode),
        ("gen_split_2c", &gen_split, 1, FaultPreset::PreemptStorm),
        ("gen_split_2c", &gen_split, 1, FaultPreset::ScaleUpMidrun),
    ];
    cells
        .into_iter()
        .map(|(env, topo, pg, preset)| {
            let r = run_resilient(topo, pg, preset, SEED, None, None)
                .unwrap_or_else(|e| panic!("resilience {env}/{}: {e}", preset.name()));
            ResilienceVariant {
                env,
                preset: preset.name(),
                clean_seconds: r.clean_seconds,
                faulted_seconds: r.faulted_seconds,
                flow_retries: r.flow_retries,
                tcp_fallback_flows: r.tcp_fallback_flows,
                delta_replan_moves: r
                    .delta_replan
                    .as_ref()
                    .map_or(0, |d| d.migration.moves.len()),
            }
        })
        .collect()
}

/// Hierarchical variants: Automatic NIC Selection on the three-generation
/// fleet at two pipeline depths. At p=3 every stage is generation-pure so
/// each DP group rides within-cluster RDMA and forcing TCP is the full
/// common-denominator penalty; at p=2 each DP group straddles a cluster
/// boundary and is classified hierarchical two-level (whose pricing already
/// crosses the inter-cluster fabric, so the forced-TCP delta collapses).
struct HierarchicalVariant {
    label: &'static str,
    preset: &'static str,
    pipeline: u32,
    groups: usize,
    rdma_groups: u32,
    hierarchical_groups: usize,
    auto_nic_seconds: f64,
    forced_tcp_seconds: f64,
}

fn hierarchical_variants() -> Vec<HierarchicalVariant> {
    let topo = presets::gen_mix_3c();
    [
        ("within_cluster_rdma", 3u32),
        ("cross_cluster_hierarchical", 2),
    ]
    .into_iter()
    .map(|(label, pipeline)| {
        let mut req = PlanRequest::parameter_group(5);
        req.pipeline_parallel = pipeline;
        let run = |cfg: &HolmesConfig| {
            let (plan, engine_cfg) =
                plan_for(&topo, &req, cfg, DpSyncStrategy::DistributedOptimizer)
                    .expect("hetero plan");
            let (_, metrics) = simulate_iteration(&topo, &plan, &req.job, &engine_cfg, None, None)
                .expect("hetero run");
            (plan, metrics)
        };
        let (plan, auto_metrics) = run(&HolmesConfig::full());
        let (_, tcp_metrics) = run(&HolmesConfig {
            auto_nic_selection: false,
            ..HolmesConfig::full()
        });
        let nic = plan.nic_report(&topo);
        HierarchicalVariant {
            label,
            preset: "gen_mix_3c",
            pipeline,
            groups: nic.groups.len(),
            rdma_groups: nic.rdma_groups,
            hierarchical_groups: nic
                .groups
                .iter()
                .filter(|g| g.algo == holmes_parallel::DpCollectiveAlgo::HierarchicalTwoLevel)
                .count(),
            auto_nic_seconds: auto_metrics.iteration_seconds,
            forced_tcp_seconds: tcp_metrics.iteration_seconds,
        }
    })
    .collect()
}

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let profile = if full { "full" } else { "quick" };
    let determinism_passes = if full { 3 } else { 1 };
    println!("== hetero fleet family ({profile}) ==");
    let start = Instant::now();

    let rows = partition_rows();
    for row in &rows {
        println!(
            "{:<18} pg{} p={} {:>3} ranks / {} gens  straggler {:?} {:.4}s  \
             eq2 {:?} {:.4}s  x{:.4}",
            row.preset,
            row.parameter_group,
            row.pipeline,
            row.ranks,
            row.generations,
            row.straggler_layers,
            row.straggler_seconds,
            row.eq2_layers,
            row.eq2_seconds,
            row.speedup(),
        );
        // The tentpole acceptance criterion: strictly faster than the
        // uniform-rate Eq. 2 split on every shipped hetero preset.
        assert!(
            row.straggler_seconds < row.eq2_seconds,
            "{}: straggler-aware partition must strictly beat uniform Eq. 2 \
             ({:?} vs {:?})",
            row.preset,
            row.straggler_seconds,
            row.eq2_seconds,
        );
    }
    // The snapshot is a pure function of the presets: re-running the
    // deterministic sections must reproduce it bit for bit.
    for _ in 0..determinism_passes {
        for (a, b) in rows.iter().zip(partition_rows().iter()) {
            assert_eq!(a.straggler_layers, b.straggler_layers, "{}", a.preset);
            assert_eq!(a.eq2_layers, b.eq2_layers, "{}", a.preset);
            assert_eq!(
                a.straggler_seconds.to_bits(),
                b.straggler_seconds.to_bits(),
                "{}: non-deterministic straggler run",
                a.preset
            );
            assert_eq!(
                a.eq2_seconds.to_bits(),
                b.eq2_seconds.to_bits(),
                "{}: non-deterministic eq2 run",
                a.preset
            );
        }
    }

    let tune = autotune_variant();
    println!(
        "autotune {:<12} t={} p={} d={}  est {:.4}s  sim {:.4}s  fits={}",
        tune.preset,
        tune.tensor,
        tune.pipeline,
        tune.data,
        tune.estimated_seconds,
        tune.simulated_seconds,
        tune.fits_memory,
    );
    let resilience = resilience_variants();
    for r in &resilience {
        println!(
            "resilience {}/{:<15} clean {:.4}s  faulted {:.4}s  retries {}  \
             tcp_fallback {}  moves {}",
            r.env,
            r.preset,
            r.clean_seconds,
            r.faulted_seconds,
            r.flow_retries,
            r.tcp_fallback_flows,
            r.delta_replan_moves,
        );
    }
    let hier = hierarchical_variants();
    for h in &hier {
        println!(
            "hierarchical {:<26} p={} {} groups ({} rdma, {} hierarchical)  \
             auto {:.4}s  forced-tcp {:.4}s",
            h.label,
            h.pipeline,
            h.groups,
            h.rdma_groups,
            h.hierarchical_groups,
            h.auto_nic_seconds,
            h.forced_tcp_seconds,
        );
    }

    let wall_seconds = start.elapsed().as_secs_f64();

    let mut snap = Snapshot::default();
    let partition = rows.iter().map(|row| {
        let fields = [
            ("parameter_group", u32::from(row.parameter_group).into()),
            ("pipeline", row.pipeline.into()),
            ("ranks", row.ranks.into()),
            ("generations", row.generations.into()),
            ("straggler_layers", row.straggler_layers.clone().into()),
            ("eq2_layers", row.eq2_layers.clone().into()),
            ("straggler_seconds", row.straggler_seconds.into()),
            ("eq2_seconds", row.eq2_seconds.into()),
            ("speedup", row.speedup().into()),
        ];
        (row.preset, json::obj(fields))
    });
    snap.exact("partition", json::obj(partition));
    let autotune = [
        ("preset", tune.preset.into()),
        ("tensor", tune.tensor.into()),
        ("pipeline", tune.pipeline.into()),
        ("data", tune.data.into()),
        ("fits_memory", tune.fits_memory.into()),
        ("estimated_seconds", tune.estimated_seconds.into()),
        ("simulated_seconds", tune.simulated_seconds.into()),
    ];
    let resilience = resilience.iter().map(|r| {
        let fields = [
            ("env", r.env.into()),
            ("clean_seconds", r.clean_seconds.into()),
            ("faulted_seconds", r.faulted_seconds.into()),
            ("flow_retries", r.flow_retries.into()),
            ("tcp_fallback_flows", r.tcp_fallback_flows.into()),
            ("delta_replan_moves", r.delta_replan_moves.into()),
        ];
        (r.preset, json::obj(fields))
    });
    let hierarchical = hier.iter().map(|h| {
        let fields = [
            ("preset", h.preset.into()),
            ("pipeline", h.pipeline.into()),
            ("groups", h.groups.into()),
            ("rdma_groups", h.rdma_groups.into()),
            ("hierarchical_groups", h.hierarchical_groups.into()),
            ("auto_nic_seconds", h.auto_nic_seconds.into()),
            ("forced_tcp_seconds", h.forced_tcp_seconds.into()),
        ];
        (h.label, json::obj(fields))
    });
    let variants = [
        ("autotune", json::obj(autotune)),
        ("resilience", json::obj(resilience)),
        ("hierarchical", json::obj(hierarchical)),
    ];
    snap.exact("variants", json::obj(variants));
    snap.toleranced("hetero_bench_seconds", wall_seconds, Better::Lower);
    // Re-checked on every fresh run, whatever the baseline says: on every
    // shipped hetero preset the straggler-aware partition strictly beats
    // the uniform Eq. 2 split.
    for row in &rows {
        let path = format!("exact.partition.{}.speedup", row.preset);
        snap.bound(&path, ">", 1.0, false);
    }
    snap.ungated("profile", profile);
    snap.ungated("seed", SEED);
    snap.write(OUT_PATH).expect("write BENCH_hetero.json");
    println!("wrote {OUT_PATH}");
}
