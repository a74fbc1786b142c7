//! End-to-end benchmarks: simulating one full training iteration for the
//! configurations behind each paper table. These bound the wall-clock
//! cost of regenerating the evaluation (`all_experiments` sweeps dozens of
//! these per table).

use criterion::{black_box, BenchmarkId, Criterion};

use holmes::{run_framework, run_holmes_with, FrameworkKind, HolmesConfig};
use holmes_topology::{presets, NicType};

/// One Table 1 cell: PG1 on a 4-node homogeneous environment.
fn bench_table1_cell(c: &mut Criterion) {
    let mut g = c.benchmark_group("iteration/table1_cell");
    for nic in NicType::ALL {
        let topo = presets::homogeneous(nic, 4);
        g.bench_with_input(BenchmarkId::from_parameter(nic.label()), &topo, |b, t| {
            b.iter(|| black_box(run_framework(FrameworkKind::Holmes, t, 1, None).unwrap()))
        });
    }
    g.finish();
}

/// One Table 3 hybrid cell at growing scale.
fn bench_table3_hybrid_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("iteration/table3_hybrid");
    for nodes in [4u32, 6, 8] {
        let topo = presets::hybrid_two_cluster(nodes / 2);
        g.bench_with_input(BenchmarkId::from_parameter(nodes), &topo, |b, t| {
            b.iter(|| black_box(run_framework(FrameworkKind::Holmes, t, 3, None).unwrap()))
        });
    }
    g.finish();
}

/// One Table 4 cell: three clusters, pipeline depth 3, 96 GPUs.
fn bench_table4_cell(c: &mut Criterion) {
    c.bench_function("iteration/table4_12node_3cluster", |b| {
        let topo = presets::table4_4r_4ib_4ib();
        b.iter(|| black_box(run_framework(FrameworkKind::Holmes, &topo, 6, None).unwrap()))
    });
}

/// One Table 5 ablation row (full Holmes vs the cheapest ablation).
fn bench_table5_row(c: &mut Criterion) {
    let topo = presets::hybrid_split(4, 4);
    let mut g = c.benchmark_group("iteration/table5_row");
    g.bench_function("holmes_full", |b| {
        b.iter(|| black_box(run_holmes_with(&HolmesConfig::full(), &topo, 3).unwrap()))
    });
    g.bench_function("megatron_lm", |b| {
        b.iter(|| black_box(run_framework(FrameworkKind::MegatronLm, &topo, 3, None).unwrap()))
    });
    g.finish();
}

/// The largest Figure 7 point: PG7 (39.1 B, t=8) on 12 nodes.
fn bench_fig7_largest(c: &mut Criterion) {
    c.bench_function("iteration/fig7_pg7_12nodes", |b| {
        let topo = presets::hybrid_split(6, 6);
        b.iter(|| black_box(run_framework(FrameworkKind::Holmes, &topo, 7, None).unwrap()))
    });
}

/// Run the whole iteration suite against `c`.
pub fn benches(c: &mut Criterion) {
    bench_table1_cell(c);
    bench_table3_hybrid_scaling(c);
    bench_table4_cell(c);
    bench_table5_row(c);
    bench_fig7_largest(c);
}
