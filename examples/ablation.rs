//! Component ablation: measure what each Holmes mechanism contributes
//! (the paper's Table 5), plus an α sensitivity sweep for the
//! Self-Adapting Pipeline Partition (Eq. 2).
//!
//! Run with:
//! ```sh
//! cargo run --release --example ablation
//! ```

use holmes_repro::topology::presets;
use holmes_repro::{run_framework, run_holmes_with, FrameworkKind, HolmesConfig};

fn main() {
    // Table 5's setting: PG3 (7.5 B) on 8 nodes = 4 RoCE + 4 InfiniBand.
    let topo = presets::hybrid_split(4, 4);

    println!("Ablation on PG3, 8 nodes (4 RoCE + 4 IB):\n");
    println!(
        "{:<32} {:>12} {:>14}",
        "configuration", "TFLOPS/GPU", "samples/sec"
    );

    let rows: Vec<(&str, HolmesConfig)> = vec![
        ("Holmes (full)", HolmesConfig::full()),
        (
            "w/o Self-Adapting-Partition",
            HolmesConfig::without_self_adapting(),
        ),
        (
            "w/o Overlapped Optimizer",
            HolmesConfig::without_overlapped_optimizer(),
        ),
        ("w/o Above Two", HolmesConfig::without_both()),
    ];
    let full = run_holmes_with(&HolmesConfig::full(), &topo, 3).unwrap();
    for (name, cfg) in &rows {
        let r = run_holmes_with(cfg, &topo, 3).unwrap();
        let delta = r.metrics.tflops_per_gpu - full.metrics.tflops_per_gpu;
        println!(
            "{:<32} {:>8.1} ({:+.1}) {:>12.2}",
            name, r.metrics.tflops_per_gpu, delta, r.metrics.throughput_samples_per_sec
        );
    }
    let mlm = run_framework(FrameworkKind::MegatronLm, &topo, 3, None).unwrap();
    println!(
        "{:<32} {:>8.1} ({:+.1}) {:>12.2}",
        "Megatron-LM (baseline)",
        mlm.metrics.tflops_per_gpu,
        mlm.metrics.tflops_per_gpu - full.metrics.tflops_per_gpu,
        mlm.metrics.throughput_samples_per_sec
    );

    // α sensitivity: the paper fixes α = 1.05; sweep it.
    println!("\nEq. 2 α sweep (same setting):");
    println!("{:<8} {:>16} {:>12}", "alpha", "stage layers", "TFLOPS/GPU");
    for alpha in [1.0, 1.02, 1.05, 1.1, 1.15, 1.2, 1.3] {
        let cfg = HolmesConfig {
            alpha,
            ..HolmesConfig::full()
        };
        let r = run_holmes_with(&cfg, &topo, 3).unwrap();
        println!(
            "{:<8.2} {:>16} {:>12.1}",
            alpha,
            format!("{:?}", r.stage_layers),
            r.metrics.tflops_per_gpu
        );
    }
}
