//! Plan exploration: exhaustively search parallelism degrees `(t, p)` for
//! a model on a fixed fleet, simulating each feasible plan and ranking by
//! throughput — the capacity-planning workflow a Holmes user runs before
//! committing a multi-week training job. Each `(t, p)` cell's placement
//! comes from the guided branch-and-bound planner, whose search trace
//! (nodes expanded vs pruned) is printed alongside the plan.
//!
//! Run with:
//! ```sh
//! cargo run --release --example plan_explorer
//! ```

use holmes_repro::engine::{price_stages, simulate_iteration, DpSyncStrategy, StagePrice};
use holmes_repro::model::{GptConfig, ParameterGroup, TrainJob};
use holmes_repro::parallel::{GroupLayout, GuidedPlanner, ParallelDegrees};
use holmes_repro::topology::presets;
use holmes_repro::{placement_gradient_bytes, plan_for, HolmesConfig, PlanRequest};

fn main() {
    // Fleet: 8 nodes split across an InfiniBand and a RoCE cluster.
    let topo = presets::hybrid_split(4, 4);
    let n = topo.device_count();
    let gpus_per_node = topo.gpus_per_node();

    // Model: PG3's 7.5 B architecture, batch 1536.
    let pg = ParameterGroup::table2(3);
    let job: TrainJob = pg.job();
    let cfg: GptConfig = job.config;

    println!(
        "Searching (t, p) for a {:.1} B model on {} GPUs…\n",
        cfg.parameter_count() as f64 / 1e9,
        n
    );
    println!(
        "{:>3} {:>3} {:>4} {:>6} {:>12} {:>14} {:>10}  search (expanded/pruned)",
        "t", "p", "d", "m", "TFLOPS/GPU", "samples/sec", "fits?"
    );

    let mut best: Option<(f64, u32, u32)> = None;
    for t in [1u32, 2, 4, 8] {
        if t > gpus_per_node {
            continue;
        }
        for p in 1..=8u32 {
            if !n.is_multiple_of(t * p) {
                continue;
            }
            let d = n / (t * p);
            let Some(m) = job.microbatches_per_replica(d) else {
                continue;
            };
            if cfg.num_layers < p {
                continue;
            }
            let request = PlanRequest {
                tensor_parallel: t,
                pipeline_parallel: p,
                job,
            };
            let simulated = plan_for(
                &topo,
                &request,
                &HolmesConfig::full(),
                DpSyncStrategy::DistributedOptimizer,
            )
            .map_err(|e| e.to_string())
            .and_then(|(plan, engine_cfg)| {
                // Memory feasibility: the builder's own verdict, every
                // stage against its smallest member.
                let fits = price_stages(&topo, &plan, &job, &engine_cfg)
                    .is_ok_and(|stages| stages.iter().all(StagePrice::fits_memory));
                simulate_iteration(&topo, &plan, &job, &engine_cfg, None, None)
                    .map(|(_, metrics)| (metrics, fits))
                    .map_err(|e| e.to_string())
            });
            let (metrics, fits) = match simulated {
                Ok(r) => r,
                Err(e) => {
                    println!("{t:>3} {p:>3} {d:>4}      — infeasible: {e}");
                    continue;
                }
            };
            // The guided planner's search trace for this cell: how much
            // of the cluster-order space branch-and-bound actually
            // visited to certify the placement it handed the builder.
            let degrees = ParallelDegrees::infer_data(t, p, n).expect("degrees divide the fleet");
            let layout = GroupLayout::new(degrees);
            let (placement, stats) = GuidedPlanner.plan_workload_with_stats(
                &topo,
                &layout,
                placement_gradient_bytes(&job, degrees),
            );
            println!(
                "{:>3} {:>3} {:>4} {:>6} {:>12.1} {:>14.2} {:>10}  {:>3} expanded / {:>3} pruned{}",
                t,
                p,
                d,
                m,
                metrics.tflops_per_gpu,
                metrics.throughput_samples_per_sec,
                if fits { "yes" } else { "NO (OOM)" },
                stats.expanded,
                stats.pruned_total(),
                if stats.heuristic_won {
                    String::new()
                } else {
                    format!(
                        ", improved on heuristic: order {:?}",
                        placement.cluster_order
                    )
                }
            );
            if fits {
                let score = metrics.throughput_samples_per_sec;
                if best.is_none_or(|(b, _, _)| score > b) {
                    best = Some((score, t, p));
                }
            }
        }
    }

    if let Some((score, t, p)) = best {
        println!("\nBest memory-feasible plan: t={t}, p={p} at {score:.2} samples/s");
    }
}
