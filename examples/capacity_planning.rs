//! Capacity planning for a long training run: auto-tune the parallelism,
//! then simulate a jittered multi-iteration run and project the wall-clock
//! cost of a full token budget — the arithmetic behind the paper's
//! motivation (OPT-175B: 33 days on 1024 GPUs).
//!
//! Run with:
//! ```sh
//! cargo run --release --example capacity_planning
//! ```

use holmes_repro::engine::DpSyncStrategy;
use holmes_repro::model::ParameterGroup;
use holmes_repro::topology::presets;
use holmes_repro::{
    autotune, simulate_training_run, AutotuneRequest, HolmesConfig, PlanRequest, ReliabilityModel,
    Scenario, TrainingRunConfig,
};

fn main() {
    // The fleet we actually have: 4 InfiniBand nodes + 4 RoCE nodes.
    let topo = presets::hybrid_split(4, 4);
    let pg = ParameterGroup::table2(3); // 7.5 B model
    println!(
        "Planning a {:.1} B-parameter run on {} GPUs (4 IB + 4 RoCE nodes)\n",
        pg.config.parameter_count() as f64 / 1e9,
        topo.device_count()
    );

    // 1. Auto-tune the parallelism degrees.
    let ranked = autotune(
        &topo,
        &AutotuneRequest::new(pg.job()),
        &HolmesConfig::full(),
    );
    println!("Top plans (estimate-pruned; finalists simulated unless their compute floor rules them out):");
    println!(
        "{:>3} {:>3} {:>4} {:>14} {:>14} {:>8}",
        "t", "p", "d", "est iter (s)", "sim iter (s)", "memory"
    );
    for c in ranked.iter().take(5) {
        println!(
            "{:>3} {:>3} {:>4} {:>14.2} {:>14} {:>8}",
            c.tensor,
            c.pipeline,
            c.data,
            c.estimated_seconds,
            c.simulated
                .map(|m| format!("{:.2}", m.iteration_seconds))
                .unwrap_or_else(|| "—".into()),
            if c.fits_memory { "ok" } else { "OOM" },
        );
    }
    let best = &ranked[0];

    // 2. Simulate a jittered 100-iteration run with the winning plan.
    let scenario = Scenario {
        topo: topo.clone(),
        request: PlanRequest {
            tensor_parallel: best.tensor,
            pipeline_parallel: best.pipeline,
            job: pg.job(),
        },
    };
    let run = simulate_training_run(
        &scenario,
        &HolmesConfig::full(),
        DpSyncStrategy::DistributedOptimizer,
        &TrainingRunConfig {
            iterations: 100,
            ..TrainingRunConfig::default()
        },
    )
    .expect("run simulates");

    println!(
        "\n100-iteration run with t={} p={}:",
        best.tensor, best.pipeline
    );
    println!(
        "  iteration: mean {:.2} s, p50 {:.2} s, p95 {:.2} s",
        run.mean_seconds, run.p50_seconds, run.p95_seconds
    );
    println!(
        "  throughput: {:.1} samples/s = {:.0} tokens/s",
        run.samples_per_sec, run.tokens_per_sec
    );

    // 3. Project a full pre-training budget (300 B tokens, LLaMA-scale).
    let budget = 300e9;
    println!(
        "\nProjected wall-clock for {:.0e} tokens: {:.1} days on this fleet",
        budget,
        run.days_for_tokens(budget)
    );

    // 4. Account for failures and checkpointing (the paper defers fault
    // handling to future work; the reliability model covers the planning
    // side of it).
    let reliability = ReliabilityModel::default();
    let ckpt = reliability.plan(&topo, &pg.config);
    println!(
        "\nReliability: job MTBF {:.1} h, checkpoint {:.1} s every {:.0} s, goodput {:.1}%",
        ckpt.job_mtbf_seconds / 3600.0,
        ckpt.checkpoint_seconds,
        ckpt.interval_seconds,
        ckpt.goodput * 100.0
    );
    let effective = ckpt.effective_throughput(run.tokens_per_sec);
    println!(
        "Failure-adjusted projection: {:.1} days",
        budget / effective / 86_400.0
    );
}
