//! Micro-benchmarks of the parallel-group algebra and schedulers: these
//! run on every planner invocation, so they must stay cheap even for
//! thousand-GPU fleets.

use criterion::{black_box, BenchmarkId, Criterion};

use holmes_parallel::{
    GroupLayout, HolmesScheduler, NicSelectionReport, ParallelDegrees, SelfAdaptingPartition,
};
use holmes_topology::presets;

fn bench_group_enumeration(c: &mut Criterion) {
    let mut g = c.benchmark_group("groups/enumerate");
    for &(t, p, d) in &[(8u32, 8u32, 16u32), (8, 16, 64), (8, 32, 128)] {
        let n = t * p * d;
        let layout = GroupLayout::new(ParallelDegrees::new(t, p, d, n).unwrap());
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("n={n}")),
            &layout,
            |b, l| {
                b.iter(|| {
                    black_box(l.tp_groups());
                    black_box(l.pp_groups());
                    black_box(l.dp_groups());
                })
            },
        );
    }
    g.finish();
}

fn bench_scheduler(c: &mut Criterion) {
    let mut g = c.benchmark_group("groups/holmes_scheduler");
    for nodes in [8u32, 32, 128] {
        let topo = presets::hybrid_two_cluster(nodes / 2);
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("gpus={}", topo.device_count())),
            &topo,
            |b, topo| b.iter(|| black_box(HolmesScheduler::assign(topo))),
        );
    }
    g.finish();
}

fn bench_nic_selection(c: &mut Criterion) {
    let mut g = c.benchmark_group("groups/nic_selection");
    for nodes in [8u32, 32] {
        let topo = presets::hybrid_two_cluster(nodes / 2);
        let n = topo.device_count();
        let layout = GroupLayout::new(ParallelDegrees::infer_data(1, 2, n).unwrap());
        let assignment = HolmesScheduler::assign(&topo);
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("gpus={n}")),
            &(topo, layout, assignment),
            |b, (topo, layout, assignment)| {
                b.iter(|| black_box(NicSelectionReport::analyze(topo, layout, assignment)))
            },
        );
    }
    g.finish();
}

fn bench_partition(c: &mut Criterion) {
    c.bench_function("groups/self_adapting_partition", |b| {
        let speeds: Vec<f64> = (0..32).map(|i| 120.0 + f64::from(i)).collect();
        b.iter(|| {
            black_box(SelfAdaptingPartition { alpha: 1.05 }.partition(black_box(128), &speeds))
        })
    });
}

/// Run the whole groups suite against `c`.
pub fn benches(c: &mut Criterion) {
    bench_group_enumeration(c);
    bench_scheduler(c);
    bench_nic_selection(c);
    bench_partition(c);
}
