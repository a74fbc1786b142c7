//! Experiment implementations: one function per paper table/figure.
//!
//! Every function returns an [`ExperimentSection`] whose body is a
//! paper-vs-measured plain-text table ready for EXPERIMENTS.md. Absolute
//! equality with the paper is not expected (the substrate is a calibrated
//! simulator, not the authors' testbed); orderings, gaps and crossovers
//! are.

use rayon::prelude::*;

use holmes::{
    calibration, run_framework, run_holmes_with, run_scenario, FrameworkKind, HolmesConfig,
    RunResult, Scenario, TableBuilder,
};
use holmes_engine::DpSyncStrategy;
use holmes_model::{parameter_count, ParameterGroup};
use holmes_topology::{presets, NicType, Topology};

/// One rendered experiment.
#[derive(Debug, Clone)]
pub struct ExperimentSection {
    /// Short id, e.g. `table1`.
    pub id: &'static str,
    /// Paper reference, e.g. `Table 1`.
    pub title: &'static str,
    /// Rendered body.
    pub body: String,
}

/// The four NIC environments of Table 3 for a given per-environment node
/// count (the Hybrid environment splits the same node count across two
/// clusters).
fn environment(nic_env: &str, nodes: u32) -> Topology {
    match nic_env {
        "InfiniBand" => presets::homogeneous(NicType::InfiniBand, nodes),
        "RoCE" => presets::homogeneous(NicType::RoCE, nodes),
        "Ethernet" => presets::homogeneous(NicType::Ethernet, nodes),
        "Hybrid" => presets::hybrid_two_cluster(nodes / 2),
        other => panic!("unknown NIC environment {other}"),
    }
}

fn run_holmes(topo: &Topology, pg: u8) -> RunResult {
    run_framework(FrameworkKind::Holmes, topo, pg, None).expect("scenario must run")
}

/// Table 1: PG1 on 4 nodes under each homogeneous NIC environment — the
/// calibration anchor.
pub fn table1() -> ExperimentSection {
    let mut t = TableBuilder::new("Table 1 — PG1 (3.6 B) on 4 nodes / 32 GPUs: paper → measured")
        .header([
            "NIC Env",
            "TFLOPS",
            "Throughput (samples/s)",
            "Bandwidth (Gb/s)",
        ]);
    for nic in NicType::ALL {
        let topo = presets::homogeneous(nic, 4);
        let r = run_holmes(&topo, 1);
        t.row([
            nic.label().to_string(),
            TableBuilder::paper_vs(
                calibration::paper_table1_tflops(nic),
                r.metrics.tflops_per_gpu,
            ),
            TableBuilder::paper_vs(
                calibration::paper_table1_throughput(nic),
                r.metrics.throughput_samples_per_sec,
            ),
            format!(
                "{:.0}",
                if nic == NicType::Ethernet {
                    25.0
                } else {
                    200.0
                }
            ),
        ]);
    }
    ExperimentSection {
        id: "table1",
        title: "Table 1",
        body: t.render(),
    }
}

/// Table 2: parameter groups and Eq. 5 verification.
pub fn table2() -> ExperimentSection {
    let paper_billions = [3.6, 3.6, 7.5, 7.5, 7.5, 7.5, 39.1, 39.1];
    let mut t = TableBuilder::new("Table 2 — parameter groups (Eq. 5 check)").header([
        "Group",
        "Params (B) paper → Eq.5",
        "Heads",
        "Hidden",
        "Layers",
        "t",
        "p",
        "Micro",
        "Batch",
    ]);
    for pg in ParameterGroup::all() {
        let billions = parameter_count(&pg.config) as f64 / 1e9;
        t.row([
            pg.id.to_string(),
            TableBuilder::paper_vs(paper_billions[(pg.id - 1) as usize], billions),
            pg.config.num_heads.to_string(),
            pg.config.hidden_size.to_string(),
            pg.config.num_layers.to_string(),
            pg.tensor_parallel.to_string(),
            pg.pipeline_parallel.to_string(),
            pg.micro_batch.to_string(),
            pg.global_batch.to_string(),
        ]);
    }
    ExperimentSection {
        id: "table2",
        title: "Table 2",
        body: t.render(),
    }
}

/// Paper Table 3 values: `[pg][env][nodes] -> (tflops, throughput)`.
const TABLE3_PAPER: [[[(f64, f64); 3]; 4]; 4] = [
    // PG1: 4, 6, 8 nodes × {IB, RoCE, Ethernet, Hybrid}
    [
        [(197.0, 99.23), (188.0, 142.09), (148.0, 148.88)],
        [(160.0, 80.54), (151.0, 114.15), (145.0, 145.64)],
        [(122.0, 61.32), (99.0, 74.98), (83.0, 83.38)],
        [(149.0, 74.91), (129.0, 97.84), (112.0, 112.46)],
    ],
    // PG2
    [
        [(206.0, 103.66), (200.0, 151.25), (156.0, 156.66)],
        [(168.0, 84.78), (162.0, 122.53), (159.0, 160.47)],
        [(145.0, 72.95), (128.0, 96.75), (114.0, 114.52)],
        [(162.0, 81.38), (152.0, 114.63), (132.0, 132.73)],
    ],
    // PG3
    [
        [(229.0, 55.95), (220.0, 80.64), (189.0, 92.35)],
        [(196.0, 48.04), (185.0, 67.84), (185.0, 90.40)],
        [(168.0, 41.04), (143.0, 52.91), (132.0, 64.85)],
        [(191.0, 46.66), (170.0, 62.43), (168.0, 82.02)],
    ],
    // PG4
    [
        [(233.0, 57.03), (228.0, 83.61), (196.0, 95.79)],
        [(201.0, 49.10), (193.0, 70.88), (194.0, 94.85)],
        [(180.0, 44.10), (168.0, 61.59), (158.0, 77.31)],
        [(200.0, 48.89), (187.0, 68.52), (177.0, 86.58)],
    ],
];

const TABLE3_ENVS: [&str; 4] = ["InfiniBand", "RoCE", "Ethernet", "Hybrid"];
const TABLE3_NODES: [u32; 3] = [4, 6, 8];

/// Table 3: PG1–4 across the four environments and three node counts.
pub fn table3() -> ExperimentSection {
    let mut t =
        TableBuilder::new("Table 3 — homogeneous and heterogeneous environments: paper → measured")
            .header([
                "PG",
                "NIC Env",
                "4n TFLOPS",
                "4n Thpt",
                "6n TFLOPS",
                "6n Thpt",
                "8n TFLOPS",
                "8n Thpt",
            ]);
    // Sweep in parallel: 48 independent simulations, each owning a private
    // simulator. The rayon collect preserves input order, so `cells` comes
    // back already sorted by (pg, env, nodes) and rendering is identical to
    // a serial sweep.
    let mut keys: Vec<(usize, usize, usize)> = Vec::new();
    for pi in 0..4 {
        for ei in 0..TABLE3_ENVS.len() {
            for ni in 0..TABLE3_NODES.len() {
                keys.push((pi, ei, ni));
            }
        }
    }
    let cells: Vec<((usize, usize, usize), RunResult)> = keys
        .par_iter()
        .map(|&(pi, ei, ni)| {
            let topo = environment(TABLE3_ENVS[ei], TABLE3_NODES[ni]);
            ((pi, ei, ni), run_holmes(&topo, (pi + 1) as u8))
        })
        .collect();

    for (pi, pg) in (1u8..=4).enumerate() {
        for (ei, env) in TABLE3_ENVS.iter().enumerate() {
            let mut row = vec![pg.to_string(), (*env).to_string()];
            for (ni, &(paper_tf, paper_th)) in TABLE3_PAPER[pi][ei].iter().enumerate() {
                let (_, r) = cells
                    .iter()
                    .find(|(k, _)| *k == (pi, ei, ni))
                    .expect("cell computed");
                row.push(TableBuilder::paper_vs(paper_tf, r.metrics.tflops_per_gpu));
                row.push(TableBuilder::paper_vs(
                    paper_th,
                    r.metrics.throughput_samples_per_sec,
                ));
            }
            t.row(row);
        }
    }
    ExperimentSection {
        id: "table3",
        title: "Table 3",
        body: t.render(),
    }
}

/// Table 4: three-cluster environments (p = 3), PG5 and PG6.
pub fn table4() -> ExperimentSection {
    // (label, topology, paper (tflops, thpt) for PG5 then PG6; Ethernet
    // rows use a homogeneous Ethernet cluster of the same node count.)
    type TopoBuilder = fn() -> Topology;
    let columns: [(&str, TopoBuilder); 3] = [
        ("6n 2R+2R+2IB", presets::table4_2r_2r_2ib),
        ("6n 2R+2IB+2IB", presets::table4_2r_2ib_2ib),
        ("12n 4R+4IB+4IB", presets::table4_4r_4ib_4ib),
    ];
    // Paper values (Table 4; the published table is partially garbled — we
    // transcribe the legible cells and mark the rest approximate).
    let paper_hybrid_pg5 = [(163.0, 59.75), (161.0, 59.19), (138.0, 101.24)];
    let paper_hybrid_pg6 = [(174.0, 63.96), (169.0, 61.87), (146.0, 107.21)];
    let paper_eth_pg5 = [(143.0, 52.51), (143.0, 52.51), (95.0, 70.11)];
    let paper_eth_pg6 = [(160.0, 59.0), (160.0, 59.0), (122.0, 89.65)];

    let mut t = TableBuilder::new(
        "Table 4 — three clusters without high-speed interconnects (p=3): paper → measured",
    )
    .header(["PG", "NIC Env", "Column", "TFLOPS", "Throughput"]);
    for (pg, paper_h, paper_e) in [
        (5u8, paper_hybrid_pg5, paper_eth_pg5),
        (6u8, paper_hybrid_pg6, paper_eth_pg6),
    ] {
        for (ci, (label, build)) in columns.iter().enumerate() {
            let topo = build();
            let eth = presets::homogeneous(NicType::Ethernet, topo.node_count());
            let r_eth = run_holmes(&eth, pg);
            let r_hyb = run_holmes(&topo, pg);
            t.row([
                pg.to_string(),
                "Ethernet".to_string(),
                (*label).to_string(),
                TableBuilder::paper_vs(paper_e[ci].0, r_eth.metrics.tflops_per_gpu),
                TableBuilder::paper_vs(paper_e[ci].1, r_eth.metrics.throughput_samples_per_sec),
            ]);
            t.row([
                pg.to_string(),
                "Hybrid".to_string(),
                (*label).to_string(),
                TableBuilder::paper_vs(paper_h[ci].0, r_hyb.metrics.tflops_per_gpu),
                TableBuilder::paper_vs(paper_h[ci].1, r_hyb.metrics.throughput_samples_per_sec),
            ]);
        }
    }
    ExperimentSection {
        id: "table4",
        title: "Table 4",
        body: t.render(),
    }
}

/// Table 5: component ablation on PG3, 8 nodes = 4 RoCE + 4 IB.
pub fn table5() -> ExperimentSection {
    let topo = presets::hybrid_split(4, 4);
    let paper = [
        ("Megatron-LM", 132.0, 64.86),
        ("Holmes", 183.0, 89.48),
        ("w/o Self-Adapting-Partition", 179.0, 87.55),
        ("w/o Overlapped Optimizer", 170.0, 83.15),
        ("w/o Above Two", 168.0, 82.02),
    ];
    let measured: Vec<RunResult> = vec![
        run_framework(FrameworkKind::MegatronLm, &topo, 3, None).unwrap(),
        run_holmes_with(&HolmesConfig::full(), &topo, 3).unwrap(),
        run_holmes_with(&HolmesConfig::without_self_adapting(), &topo, 3).unwrap(),
        run_holmes_with(&HolmesConfig::without_overlapped_optimizer(), &topo, 3).unwrap(),
        run_holmes_with(&HolmesConfig::without_both(), &topo, 3).unwrap(),
    ];
    let mut t =
        TableBuilder::new("Table 5 — ablation (PG3, 8 nodes = 4 RoCE + 4 IB): paper → measured")
            .header(["Training Framework", "TFLOPS", "Throughput"]);
    for ((name, ptf, pth), r) in paper.iter().zip(&measured) {
        t.row([
            (*name).to_string(),
            TableBuilder::paper_vs(*ptf, r.metrics.tflops_per_gpu),
            TableBuilder::paper_vs(*pth, r.metrics.throughput_samples_per_sec),
        ]);
    }
    ExperimentSection {
        id: "table5",
        title: "Table 5",
        body: t.render(),
    }
}

/// Figure 3: grads-reduce-scatter wall time per parameter group per
/// environment (4 nodes). The paper gives a bar chart; we report measured
/// seconds and verify its qualitative claim (IB shortest, Ethernet longest,
/// Hybrid in between).
pub fn fig3() -> ExperimentSection {
    let mut t = TableBuilder::new(
        "Figure 3 — grads-reduce-scatter wall seconds on 4 nodes (measured; paper's ordering: \
         InfiniBand shortest, Ethernet longest, Hybrid between the RDMA envs and Ethernet)",
    )
    .header(["PG", "InfiniBand", "RoCE", "Hybrid", "Ethernet"]);
    for pg in 1u8..=4 {
        let mut row = vec![pg.to_string()];
        for env in ["InfiniBand", "RoCE", "Hybrid", "Ethernet"] {
            let topo = environment(env, 4);
            let r = run_holmes(&topo, pg);
            row.push(format!("{:.3}", r.report.reduce_scatter_seconds()));
        }
        t.row(row);
    }
    ExperimentSection {
        id: "fig3",
        title: "Figure 3",
        body: t.render(),
    }
}

/// Figure 4: Case 2 — throughput on 4 nodes when clusters lack any
/// high-speed interconnect between them.
pub fn fig4() -> ExperimentSection {
    let envs: [(&str, Topology); 6] = [
        (
            "InfiniBand (upper bound)",
            presets::homogeneous(NicType::InfiniBand, 4),
        ),
        ("RoCE", presets::homogeneous(NicType::RoCE, 4)),
        (
            "InfiniBand & Ethernet",
            presets::same_nic_two_clusters(NicType::InfiniBand, 2),
        ),
        (
            "RoCE & Ethernet",
            presets::same_nic_two_clusters(NicType::RoCE, 2),
        ),
        ("Hybrid (IB + RoCE)", presets::hybrid_two_cluster(2)),
        (
            "Ethernet (lower bound)",
            presets::homogeneous(NicType::Ethernet, 4),
        ),
    ];
    let mut t = TableBuilder::new(
        "Figure 4 — throughput (samples/s) on 4 nodes, Case 2 cross-cluster settings (measured)",
    )
    .header(["NIC Env", "PG1", "PG2", "PG3", "PG4"]);
    for (label, topo) in &envs {
        let mut row = vec![(*label).to_string()];
        for pg in 1u8..=4 {
            let r = run_holmes(topo, pg);
            row.push(format!("{:.2}", r.metrics.throughput_samples_per_sec));
        }
        t.row(row);
    }
    ExperimentSection {
        id: "fig4",
        title: "Figure 4",
        body: t.render(),
    }
}

/// Figure 5: Self-Adapting vs Uniform pipeline partition on the hybrid
/// environment.
pub fn fig5() -> ExperimentSection {
    let topo = presets::hybrid_two_cluster(2);
    let mut t =
        TableBuilder::new("Figure 5 — pipeline partition strategies on 4-node hybrid (measured)")
            .header([
                "PG",
                "Uniform TFLOPS",
                "Self-Adapting TFLOPS",
                "Uniform Thpt",
                "Self-Adapting Thpt",
                "Stage layers (SA)",
            ]);
    for pg in 1u8..=4 {
        let uni = run_holmes_with(&HolmesConfig::without_self_adapting(), &topo, pg).unwrap();
        let sa = run_holmes_with(&HolmesConfig::full(), &topo, pg).unwrap();
        t.row([
            pg.to_string(),
            format!("{:.0}", uni.metrics.tflops_per_gpu),
            format!("{:.0}", sa.metrics.tflops_per_gpu),
            format!("{:.2}", uni.metrics.throughput_samples_per_sec),
            format!("{:.2}", sa.metrics.throughput_samples_per_sec),
            format!("{:?}", sa.stage_layers),
        ]);
    }
    ExperimentSection {
        id: "fig5",
        title: "Figure 5",
        body: t.render(),
    }
}

/// Figure 6: Holmes vs mainstream frameworks (PG3, 8 nodes = 4 RoCE + 4 IB).
pub fn fig6() -> ExperimentSection {
    let topo = presets::hybrid_split(4, 4);
    // Paper: Holmes 183 TFLOPS (Table 5), Megatron-LM 132; the
    // DeepSpeed/LLaMA bars are read off the figure (approximate).
    let rows = [
        (FrameworkKind::Holmes, Some(183.0)),
        (FrameworkKind::MegatronLlama, Some(150.0)),
        (FrameworkKind::MegatronDeepSpeed, Some(128.0)),
        (FrameworkKind::MegatronLm, Some(132.0)),
    ];
    let mut t = TableBuilder::new(
        "Figure 6 — frameworks on PG3, 8 nodes (4 RoCE + 4 IB): paper → measured",
    )
    .header(["Framework", "TFLOPS", "Throughput (measured)"]);
    for (kind, paper) in rows {
        let r = run_framework(kind, &topo, 3, None).unwrap();
        let tf = match paper {
            Some(p) => TableBuilder::paper_vs(p, r.metrics.tflops_per_gpu),
            None => format!("{:.0}", r.metrics.tflops_per_gpu),
        };
        t.row([
            kind.name().to_string(),
            tf,
            format!("{:.2}", r.metrics.throughput_samples_per_sec),
        ]);
    }
    ExperimentSection {
        id: "fig6",
        title: "Figure 6",
        body: t.render(),
    }
}

/// Figure 7: Holmes speedup over each framework for PG7/PG8 at increasing
/// node counts (hybrid half-IB half-RoCE splits).
pub fn fig7() -> ExperimentSection {
    let mut t = TableBuilder::new(
        "Figure 7 — Holmes speedup ratio (throughput / framework throughput), PG7 & PG8 (measured)",
    )
    .header([
        "PG",
        "Nodes",
        "vs Megatron-LM",
        "vs Megatron-DeepSpeed",
        "vs Megatron-LLaMA",
    ]);
    let cases: [(u8, &[u32]); 2] = [(7, &[4, 8, 12]), (8, &[6, 12])];
    for (pg, node_counts) in cases {
        for &nodes in node_counts {
            let topo = presets::hybrid_split(nodes / 2, nodes / 2);
            let holmes = run_framework(FrameworkKind::Holmes, &topo, pg, None).unwrap();
            let speedup = |kind| {
                let r = run_framework(kind, &topo, pg, None).unwrap();
                holmes.metrics.throughput_samples_per_sec / r.metrics.throughput_samples_per_sec
            };
            t.row([
                pg.to_string(),
                nodes.to_string(),
                format!("{:.2}x", speedup(FrameworkKind::MegatronLm)),
                format!("{:.2}x", speedup(FrameworkKind::MegatronDeepSpeed)),
                format!("{:.2}x", speedup(FrameworkKind::MegatronLlama)),
            ]);
        }
    }
    ExperimentSection {
        id: "fig7",
        title: "Figure 7",
        body: t.render(),
    }
}

/// Extension: an ablation the paper calls out but does not isolate —
/// what raw device *ordering* costs when an unlucky hostfile interleaves
/// clusters (Cross-Cluster Pipeline Parallelism's scheduling half).
pub fn ext_scheduling() -> ExperimentSection {
    use holmes_engine::{simulate_iteration, EngineConfig};
    use holmes_parallel::{
        DeviceAssignment, GroupLayout, HolmesScheduler, InterleavedScheduler, ParallelDegrees,
        ParallelPlan, UniformPartition,
    };

    let topo = presets::hybrid_two_cluster(2);
    let pg = ParameterGroup::table2(1);
    let degrees = ParallelDegrees::infer_data(
        pg.tensor_parallel,
        pg.pipeline_parallel,
        topo.device_count(),
    )
    .unwrap();
    let layout = GroupLayout::new(degrees);
    let job = pg.job();

    let mut t = TableBuilder::new(
        "Extension — device-ordering ablation (PG1, 4-node hybrid, uniform partition, measured): \
         an interleaved hostfile breaks every DP group's NIC homogeneity even with Automatic NIC \
         Selection on",
    )
    .header(["Device order", "TFLOPS", "RDMA-capable DP groups"]);
    for (label, assignment) in [
        ("Holmes (cluster-aligned)", HolmesScheduler::assign(&topo)),
        (
            "sequential hostfile",
            DeviceAssignment::identity(topo.device_count()),
        ),
        ("interleaved hostfile", InterleavedScheduler::assign(&topo)),
    ] {
        let layers = UniformPartition.partition(job.config.num_layers, &[1.0, 1.0]);
        let plan = ParallelPlan::new(layout, assignment, layers, true);
        let nic = plan.nic_report(&topo);
        let (_, metrics) =
            simulate_iteration(&topo, &plan, &job, &EngineConfig::default(), None, None).unwrap();
        t.row([
            label.to_string(),
            format!("{:.0}", metrics.tflops_per_gpu),
            format!("{}/{}", nic.rdma_groups, nic.groups.len()),
        ]);
    }
    ExperimentSection {
        id: "ext_scheduling",
        title: "Extension: scheduling ablation",
        body: t.render(),
    }
}

/// Extension: α sensitivity of the Self-Adapting Pipeline Partition.
pub fn ext_alpha_sweep() -> ExperimentSection {
    let topo = presets::hybrid_two_cluster(2);
    let mut t = TableBuilder::new("Extension — Eq. 2 α sweep (PG3, 4-node hybrid, measured)")
        .header(["alpha", "Stage layers", "TFLOPS", "Throughput"]);
    for alpha in [1.0, 1.05, 1.1, 1.2, 1.3] {
        let cfg = HolmesConfig {
            alpha,
            ..HolmesConfig::full()
        };
        let r = run_holmes_with(&cfg, &topo, 3).unwrap();
        t.row([
            format!("{alpha:.2}"),
            format!("{:?}", r.stage_layers),
            format!("{:.0}", r.metrics.tflops_per_gpu),
            format!("{:.2}", r.metrics.throughput_samples_per_sec),
        ]);
    }
    ExperimentSection {
        id: "ext_alpha",
        title: "Extension: α sweep",
        body: t.render(),
    }
}

/// Extension: gradient-bucket count sweep for the overlapped optimizer.
pub fn ext_bucket_sweep() -> ExperimentSection {
    let topo = presets::homogeneous(NicType::RoCE, 4);
    let mut t = TableBuilder::new(
        "Extension — overlapped-optimizer bucket sweep (PG3, 4-node RoCE, measured)",
    )
    .header(["Buckets", "TFLOPS", "Reduce-scatter wall (s)"]);
    for buckets in [1u32, 2, 4, 8, 16, 32] {
        let cfg = HolmesConfig {
            buckets,
            ..HolmesConfig::full()
        };
        let r = run_holmes_with(&cfg, &topo, 3).unwrap();
        t.row([
            buckets.to_string(),
            format!("{:.0}", r.metrics.tflops_per_gpu),
            format!("{:.3}", r.report.reduce_scatter_seconds()),
        ]);
    }
    ExperimentSection {
        id: "ext_buckets",
        title: "Extension: bucket sweep",
        body: t.render(),
    }
}

/// Extension: pipeline-schedule comparison — GPipe vs 1F1B vs interleaved
/// (the schedule the paper's experiments enable) at scarce and plentiful
/// micro-batch counts.
pub fn ext_schedules() -> ExperimentSection {
    use holmes_engine::{simulate_iteration, EngineConfig, ScheduleKind};
    use holmes_parallel::{
        GroupLayout, HolmesScheduler, ParallelDegrees, ParallelPlan, UniformPartition,
    };

    let topo = presets::homogeneous(NicType::InfiniBand, 4);
    let mut t = TableBuilder::new(
        "Extension — pipeline schedules (PG3 arch, 4-node IB, p=4, measured TFLOPS/GPU)",
    )
    .header([
        "Microbatches/replica",
        "GPipe",
        "1F1B",
        "Interleaved v=2",
        "Interleaved v=3",
    ]);
    // p=4 over 32 GPUs → d=8; vary the global batch to vary m.
    for (label, batch) in [("4 (bubble-bound)", 128u32), ("24 (steady-state)", 768)] {
        let pg = ParameterGroup::table2(3);
        let mut job = pg.job();
        job.global_batch = batch;
        let degrees = ParallelDegrees::infer_data(1, 4, topo.device_count()).unwrap();
        let layout = GroupLayout::new(degrees);
        let assignment = HolmesScheduler::assign(&topo);
        let layers = UniformPartition.partition(job.config.num_layers, &[1.0; 4]);
        let plan = ParallelPlan::new(layout, assignment, layers, true);
        let run = |schedule| {
            let cfg = EngineConfig {
                schedule,
                ..EngineConfig::default()
            };
            simulate_iteration(&topo, &plan, &job, &cfg, None, None)
                .map(|(_, m)| format!("{:.0}", m.tflops_per_gpu))
                .unwrap_or_else(|e| format!("({e})"))
        };
        t.row([
            label.to_string(),
            run(ScheduleKind::GPipe),
            run(ScheduleKind::OneFOneB),
            run(ScheduleKind::Interleaved { virtual_stages: 2 }),
            run(ScheduleKind::Interleaved { virtual_stages: 3 }),
        ]);
    }
    ExperimentSection {
        id: "ext_schedules",
        title: "Extension: pipeline schedules",
        body: t.render(),
    }
}

/// Extension: gradient-synchronization strategy comparison per NIC
/// environment — classic DDP all-reduce, ZeRO-1 (blocking distributed
/// optimizer), the paper's overlapped optimizer, and ZeRO-3 full sharding.
pub fn ext_dp_strategies() -> ExperimentSection {
    use holmes::plan_for;
    use holmes::PlanRequest;
    use holmes_engine::{simulate_iteration, EngineConfig};

    let mut t =
        TableBuilder::new("Extension — DP sync strategies (PG1, 4 nodes, measured TFLOPS/GPU)")
            .header(["NIC Env", "AllReduce", "ZeRO-1", "Overlapped", "ZeRO-3"]);
    for nic in NicType::ALL {
        let topo = presets::homogeneous(nic, 4);
        let req = PlanRequest::parameter_group(1);
        let (plan, base_cfg) = plan_for(
            &topo,
            &req,
            &HolmesConfig::full(),
            DpSyncStrategy::DistributedOptimizer,
        )
        .expect("plan");
        let run = |dp_sync| {
            let cfg = EngineConfig {
                dp_sync,
                ..base_cfg
            };
            simulate_iteration(&topo, &plan, &req.job, &cfg, None, None)
                .map(|(_, m)| format!("{:.0}", m.tflops_per_gpu))
                .unwrap_or_else(|e| format!("({e})"))
        };
        t.row([
            nic.label().to_string(),
            run(DpSyncStrategy::AllReduce),
            run(DpSyncStrategy::DistributedOptimizer),
            run(DpSyncStrategy::overlapped()),
            run(DpSyncStrategy::Zero3),
        ]);
    }
    ExperimentSection {
        id: "ext_dp_strategies",
        title: "Extension: DP sync strategies",
        body: t.render(),
    }
}

/// Extension: where the traffic actually flows — per-NIC-class bytes and
/// peak uplink utilization under Holmes vs the NIC-oblivious baseline on
/// the hybrid environment. Shows the mechanism of the win: Holmes moves
/// gradient traffic onto RDMA links and leaves Ethernet nearly idle.
pub fn ext_link_usage() -> ExperimentSection {
    let topo = presets::hybrid_two_cluster(2);
    let mut t = TableBuilder::new(
        "Extension — uplink traffic split (PG1, 4-node hybrid): who saturates Ethernet?",
    )
    .header([
        "Framework",
        "RDMA GB (fleet)",
        "Ethernet GB (fleet)",
        "Peak eth util",
        "TFLOPS",
    ]);
    for kind in [FrameworkKind::Holmes, FrameworkKind::MegatronLm] {
        let r = run_framework(kind, &topo, 1, None).expect("run");
        let rdma_gb: f64 = r
            .report
            .node_link_usage
            .iter()
            .map(|u| u.rdma_bytes)
            .sum::<f64>()
            / 1e9;
        let eth_gb: f64 = r
            .report
            .node_link_usage
            .iter()
            .map(|u| u.eth_bytes)
            .sum::<f64>()
            / 1e9;
        let peak_eth = r
            .report
            .node_link_usage
            .iter()
            .map(|u| u.eth_utilization)
            .fold(0.0f64, f64::max);
        t.row([
            kind.name().to_string(),
            format!("{rdma_gb:.1}"),
            format!("{eth_gb:.1}"),
            format!("{:.0}%", peak_eth * 100.0),
            format!("{:.0}", r.metrics.tflops_per_gpu),
        ]);
    }
    ExperimentSection {
        id: "ext_link_usage",
        title: "Extension: link usage",
        body: t.render(),
    }
}

/// Extension: closed-form estimator accuracy against the simulator across
/// Table 3's environments (the estimator drives the autotuner's pruning).
pub fn ext_estimator_accuracy() -> ExperimentSection {
    use holmes::{estimate_iteration, plan_for, PlanRequest};
    use holmes_engine::simulate_iteration;

    let mut t = TableBuilder::new(
        "Extension — closed-form estimator vs event simulation (PG1, 4 nodes, iteration seconds)",
    )
    .header(["NIC Env", "Estimated", "Simulated", "Relative error"]);
    for env in TABLE3_ENVS {
        let topo = environment(env, 4);
        let req = PlanRequest::parameter_group(1);
        let (plan, engine_cfg) = plan_for(
            &topo,
            &req,
            &HolmesConfig::full(),
            DpSyncStrategy::DistributedOptimizer,
        )
        .expect("plan");
        let est = estimate_iteration(&topo, &plan, &req.job, &engine_cfg).expect("estimate");
        let (report, _) =
            simulate_iteration(&topo, &plan, &req.job, &engine_cfg, None, None).expect("sim");
        t.row([
            env.to_string(),
            format!("{:.2}", est.seconds),
            format!("{:.2}", report.total_seconds),
            format!(
                "{:+.1}%",
                100.0 * (est.seconds - report.total_seconds) / report.total_seconds
            ),
        ]);
    }
    ExperimentSection {
        id: "ext_estimator",
        title: "Extension: estimator accuracy",
        body: t.render(),
    }
}

/// Extension: the two-level hierarchical all-reduce vs the flat ring for
/// a DP group spanning two same-NIC clusters joined by an Ethernet trunk
/// (raw collective wall time for a 1 GiB gradient buffer). The flat ring
/// drags every round through the slow inter-cluster hop; the hierarchical
/// schedule confines all but `1/k` of the volume to intra-cluster RDMA.
pub fn ext_hierarchical() -> ExperimentSection {
    use holmes_engine::{execute, CollKind, CollectiveSpec, ExecutionSpec, Op, TransportPolicy};
    use holmes_topology::Rank;
    let bytes = 1u64 << 30;
    let mut t = TableBuilder::new(
        "Extension — hierarchical vs flat all-reduce across clusters (2+2 nodes, 1 GiB, seconds)",
    )
    .header(["NIC Env", "Flat ring", "Hierarchical", "Speedup"]);
    for nic in [NicType::InfiniBand, NicType::RoCE] {
        let topo = presets::same_nic_two_clusters(nic, 2);
        let devices: Vec<Rank> = (0..topo.device_count()).map(Rank).collect();
        let run = |kind| {
            let programs = devices
                .iter()
                .map(|&d| (d, vec![Op::CollStart { id: 0 }, Op::CollWait { id: 0 }]))
                .collect();
            execute(
                &topo,
                ExecutionSpec {
                    programs,
                    collectives: vec![CollectiveSpec::new(kind, devices.clone(), bytes)],
                    transport: TransportPolicy::Auto,
                },
            )
            .expect("collective must run")
            .total_seconds
        };
        let flat = run(CollKind::AllReduce);
        let hier = run(CollKind::HierarchicalAllReduce);
        t.row([
            nic.label().to_string(),
            format!("{flat:.3}"),
            format!("{hier:.3}"),
            format!("{:.2}x", flat / hier),
        ]);
    }
    ExperimentSection {
        id: "ext_hierarchical",
        title: "Extension: hierarchical cross-cluster all-reduce",
        body: t.render(),
    }
}

/// Extension: switch oversubscription sensitivity — how a tapered
/// leaf–spine fabric inside the InfiniBand cluster erodes Holmes's hybrid
/// advantage (the paper assumes non-blocking switches).
pub fn ext_oversubscription() -> ExperimentSection {
    use holmes_topology::TopologyBuilder;
    let mut t =
        TableBuilder::new("Extension — IB-cluster switch taper (PG3, 4-node hybrid, measured)")
            .header(["Oversubscription", "TFLOPS", "Throughput"]);
    for oversub in [1.0f64, 2.0, 4.0, 8.0] {
        let topo = TopologyBuilder::new()
            .cluster("ib", 2, NicType::InfiniBand)
            .oversubscription(oversub)
            .cluster("roce", 2, NicType::RoCE)
            .build()
            .expect("topology");
        let r = run_holmes(&topo, 3);
        t.row([
            format!("{oversub:.0}:1"),
            format!("{:.0}", r.metrics.tflops_per_gpu),
            format!("{:.2}", r.metrics.throughput_samples_per_sec),
        ]);
    }
    ExperimentSection {
        id: "ext_oversubscription",
        title: "Extension: switch oversubscription",
        body: t.render(),
    }
}

/// Extension: failure-adjusted goodput across fleet sizes (the paper's
/// declared future work on fault handling).
pub fn ext_reliability() -> ExperimentSection {
    use holmes::ReliabilityModel;
    let model = ReliabilityModel::default();
    let mut t = TableBuilder::new(
        "Extension — checkpoint/restart goodput (PG7, 1000 h/node MTBF, 20 GB/s storage)",
    )
    .header([
        "Fleet",
        "Job MTBF (h)",
        "Checkpoint (s)",
        "Interval (s)",
        "Goodput",
    ]);
    for nodes in [4u32, 8, 12] {
        let topo = presets::hybrid_split(nodes / 2, nodes / 2);
        let plan = model.plan(&topo, &ParameterGroup::table2(7).config);
        t.row([
            format!("{nodes} nodes"),
            format!("{:.1}", plan.job_mtbf_seconds / 3600.0),
            format!("{:.1}", plan.checkpoint_seconds),
            format!("{:.0}", plan.interval_seconds),
            format!("{:.2}%", plan.goodput * 100.0),
        ]);
    }
    ExperimentSection {
        id: "ext_reliability",
        title: "Extension: reliability",
        body: t.render(),
    }
}

/// Run the non-overlapped baseline for comparison helpers in tests.
pub fn run_baseline(topo: &Topology, pg: u8) -> RunResult {
    run_scenario(
        &Scenario::new(topo.clone(), pg),
        &HolmesConfig {
            cross_cluster_pp: false,
            auto_nic_selection: false,
            self_adapting_partition: false,
            overlapped_optimizer: false,
            ..HolmesConfig::default()
        },
        DpSyncStrategy::AllReduce,
        None,
    )
    .expect("baseline must run")
}

/// All sections, in paper order.
///
/// Every section function is independent (each simulation owns a private
/// `NetSim`), so sections are evaluated in parallel; the ordered collect
/// keeps the rendered output byte-identical to a serial run.
pub fn all_experiment_sections() -> Vec<ExperimentSection> {
    let sections: Vec<fn() -> ExperimentSection> = vec![
        table1,
        table2,
        table3,
        table4,
        table5,
        fig3,
        fig4,
        fig5,
        fig6,
        fig7,
        ext_scheduling,
        ext_alpha_sweep,
        ext_bucket_sweep,
        ext_schedules,
        ext_dp_strategies,
        ext_link_usage,
        ext_estimator_accuracy,
        ext_hierarchical,
        ext_oversubscription,
        ext_reliability,
    ];
    sections.par_iter().map(|build| build()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_verifies_eq5_without_simulation() {
        let section = table2();
        assert_eq!(section.id, "table2");
        // All eight groups appear with their paper parameter counts.
        for needle in ["3.6 → 3.6", "7.5 → 7.5", "39.1 → 39.1"] {
            assert!(section.body.contains(needle), "missing {needle}");
        }
        assert!(section.body.matches('\n').count() > 8);
    }

    #[test]
    fn table1_reports_all_three_environments() {
        let section = table1();
        for env in ["InfiniBand", "RoCE", "Ethernet"] {
            assert!(section.body.contains(env));
        }
        assert!(section.body.contains("→"), "paper-vs-measured cells");
    }

    #[test]
    #[should_panic(expected = "unknown NIC environment")]
    fn unknown_environment_panics() {
        environment("token-ring", 4);
    }

    #[test]
    fn hierarchical_section_shows_a_speedup_over_the_flat_ring() {
        let section = ext_hierarchical();
        assert_eq!(section.id, "ext_hierarchical");
        for env in ["InfiniBand", "RoCE"] {
            assert!(section.body.contains(env));
        }
        // Every data row ends with a `<ratio>x` speedup cell; the ratio
        // must favour the hierarchical schedule on both environments.
        let mut rows = 0;
        for line in section.body.lines() {
            let ratio = line
                .split_whitespace()
                .rev()
                .find_map(|cell| cell.strip_suffix('x')?.parse::<f64>().ok());
            if let Some(ratio) = ratio {
                rows += 1;
                assert!(ratio > 1.2, "weak speedup in {line:?}");
            }
        }
        assert_eq!(rows, 2, "one speedup row per environment");
    }

    #[test]
    fn baseline_helper_runs() {
        let topo = presets::homogeneous(NicType::InfiniBand, 2);
        // d=8, B=768 divides; a tiny smoke check of the helper.
        let r = run_baseline(&topo, 1);
        assert!(r.metrics.tflops_per_gpu > 0.0);
    }
}
