//! Full-stack integration tests asserting the paper's headline claims
//! hold in the simulated reproduction — every assertion here maps to a
//! sentence in the paper's abstract or evaluation (§4).

use holmes_repro::topology::{presets, NicType};
use holmes_repro::{calibration, run_framework, run_holmes_with, FrameworkKind, HolmesConfig};

fn tflops(kind: FrameworkKind, topo: &holmes_repro::topology::Topology, pg: u8) -> f64 {
    run_framework(kind, topo, pg, None)
        .expect("run succeeds")
        .metrics
        .tflops_per_gpu
}

/// Abstract: "our framework achieves performance levels close to those
/// achievable with homogeneous RDMA-capable networks … significantly
/// exceeding training efficiency within the pure Ethernet environment."
#[test]
fn hybrid_close_to_rdma_far_above_ethernet() {
    for pg in [1u8, 2, 3] {
        let ib = tflops(
            FrameworkKind::Holmes,
            &presets::homogeneous(NicType::InfiniBand, 4),
            pg,
        );
        let roce = tflops(
            FrameworkKind::Holmes,
            &presets::homogeneous(NicType::RoCE, 4),
            pg,
        );
        let eth = tflops(
            FrameworkKind::Holmes,
            &presets::homogeneous(NicType::Ethernet, 4),
            pg,
        );
        let hybrid = tflops(FrameworkKind::Holmes, &presets::hybrid_two_cluster(2), pg);
        // "close to" the homogeneous RDMA envelope…
        assert!(
            hybrid > 0.80 * roce,
            "PG{pg}: hybrid {hybrid} vs RoCE {roce}"
        );
        assert!(hybrid < ib, "PG{pg}: hybrid cannot beat pure InfiniBand");
        // …and "significantly exceeding" Ethernet.
        assert!(
            hybrid > 1.10 * eth,
            "PG{pg}: hybrid {hybrid} vs Ethernet {eth}"
        );
    }
}

/// Table 1's calibration anchor: measured PG1 numbers within 5% of the
/// paper's on all three environments.
#[test]
fn table1_calibration_within_5_percent() {
    for nic in NicType::ALL {
        let topo = presets::homogeneous(nic, 4);
        let r = run_framework(FrameworkKind::Holmes, &topo, 1, None).unwrap();
        let paper = calibration::paper_table1_tflops(nic);
        let rel = (r.metrics.tflops_per_gpu - paper).abs() / paper;
        assert!(
            rel < 0.05,
            "{nic}: measured {:.1} vs paper {paper} (rel {rel:.3})",
            r.metrics.tflops_per_gpu
        );
        let paper_thpt = calibration::paper_table1_throughput(nic);
        let rel = (r.metrics.throughput_samples_per_sec - paper_thpt).abs() / paper_thpt;
        assert!(rel < 0.05, "{nic} throughput off by {rel:.3}");
    }
}

/// §4.2: "Holmes outperforms the other LLM training frameworks" in the
/// heterogeneous environment, and "Megatron-LLaMA demonstrates superior
/// performance compared to Megatron-LM and Megatron-DeepSpeed".
#[test]
fn figure6_framework_ordering() {
    let topo = presets::hybrid_split(4, 4);
    let holmes = tflops(FrameworkKind::Holmes, &topo, 3);
    let llama = tflops(FrameworkKind::MegatronLlama, &topo, 3);
    let ds = tflops(FrameworkKind::MegatronDeepSpeed, &topo, 3);
    let lm = tflops(FrameworkKind::MegatronLm, &topo, 3);
    assert!(
        holmes > llama && llama > ds && llama > lm,
        "holmes {holmes}, llama {llama}, deepspeed {ds}, lm {lm}"
    );
    // The paper's Figure 6 gap: Holmes ≈ 1.4× Megatron-LM.
    let ratio = holmes / lm;
    assert!(
        (1.2..1.8).contains(&ratio),
        "Holmes/Megatron-LM ratio {ratio} out of the paper's range"
    );
}

/// Table 5's ablation ordering, including "the effects … are nearly
/// orthogonal" (w/o both ≈ sum of individual losses) and "Overlapped
/// Distributed Optimizer contributes more than Self-Adapting Partition".
#[test]
fn table5_ablation_structure() {
    let topo = presets::hybrid_split(4, 4);
    let full = run_holmes_with(&HolmesConfig::full(), &topo, 3)
        .unwrap()
        .metrics
        .tflops_per_gpu;
    let no_sa = run_holmes_with(&HolmesConfig::without_self_adapting(), &topo, 3)
        .unwrap()
        .metrics
        .tflops_per_gpu;
    let no_ov = run_holmes_with(&HolmesConfig::without_overlapped_optimizer(), &topo, 3)
        .unwrap()
        .metrics
        .tflops_per_gpu;
    let no_both = run_holmes_with(&HolmesConfig::without_both(), &topo, 3)
        .unwrap()
        .metrics
        .tflops_per_gpu;

    let loss_sa = full - no_sa;
    let loss_ov = full - no_ov;
    let loss_both = full - no_both;
    assert!(loss_sa >= 0.0 && loss_ov >= 0.0);
    assert!(
        loss_ov > loss_sa,
        "overlap {loss_ov} must matter more than SA {loss_sa}"
    );
    // Orthogonality: joint loss within 35% of the sum of individual losses.
    let sum = loss_sa + loss_ov;
    assert!(
        (loss_both - sum).abs() <= 0.35 * sum.max(1.0),
        "joint {loss_both} vs sum {sum}"
    );
}

/// §4.2 Case 2 (Figure 4): two same-NIC clusters joined only by Ethernet
/// land between the single-cluster upper bound and the Ethernet lower
/// bound, for both RDMA technologies.
#[test]
fn figure4_case2_bounds() {
    for nic in [NicType::InfiniBand, NicType::RoCE] {
        let upper = tflops(FrameworkKind::Holmes, &presets::homogeneous(nic, 4), 1);
        let split = tflops(
            FrameworkKind::Holmes,
            &presets::same_nic_two_clusters(nic, 2),
            1,
        );
        let lower = tflops(
            FrameworkKind::Holmes,
            &presets::homogeneous(NicType::Ethernet, 4),
            1,
        );
        assert!(upper >= split, "{nic}: split {split} vs upper {upper}");
        assert!(split > lower, "{nic}: split {split} vs lower {lower}");
    }
}

/// Table 4: Holmes on three heterogeneous clusters beats Ethernet-only at
/// the same scale, for both p=3 parameter groups.
#[test]
fn table4_three_clusters_beat_ethernet() {
    for pg in [5u8, 6] {
        for topo in [
            presets::table4_2r_2r_2ib(),
            presets::table4_2r_2ib_2ib(),
            presets::table4_4r_4ib_4ib(),
        ] {
            let eth = presets::homogeneous(NicType::Ethernet, topo.node_count());
            let hybrid = tflops(FrameworkKind::Holmes, &topo, pg);
            let ethernet = tflops(FrameworkKind::Holmes, &eth, pg);
            assert!(
                hybrid > ethernet,
                "PG{pg} on {} nodes: hybrid {hybrid} vs ethernet {ethernet}",
                topo.node_count()
            );
        }
    }
}

/// Figure 7: Holmes's speedup over baselines grows (or at least does not
/// shrink) with cluster count for the large PG7 model.
#[test]
fn figure7_speedup_scales() {
    let speedup_at = |nodes: u32| {
        let topo = presets::hybrid_split(nodes / 2, nodes / 2);
        let holmes = run_framework(FrameworkKind::Holmes, &topo, 7, None).unwrap();
        let lm = run_framework(FrameworkKind::MegatronLm, &topo, 7, None).unwrap();
        holmes.metrics.throughput_samples_per_sec / lm.metrics.throughput_samples_per_sec
    };
    let s4 = speedup_at(4);
    let s8 = speedup_at(8);
    let s12 = speedup_at(12);
    assert!(s4 > 1.0, "speedup at 4 nodes = {s4}");
    assert!(s8 >= s4 * 0.95, "{s8} vs {s4}");
    assert!(s12 >= s8 * 0.95, "{s12} vs {s8}");
}

/// Scaling sanity across Table 3's node counts: aggregate throughput
/// increases with more nodes, per-GPU TFLOPS does not increase.
#[test]
fn table3_scaling_trends() {
    for env in [NicType::InfiniBand, NicType::RoCE, NicType::Ethernet] {
        let mut prev_thpt = 0.0;
        for nodes in [4u32, 6, 8] {
            let topo = presets::homogeneous(env, nodes);
            let r = run_framework(FrameworkKind::Holmes, &topo, 2, None).unwrap();
            assert!(
                r.metrics.throughput_samples_per_sec > prev_thpt,
                "{env} at {nodes} nodes: throughput must grow"
            );
            prev_thpt = r.metrics.throughput_samples_per_sec;
        }
    }
}

/// The 39.1 B models (PG7/PG8, t=8) run end-to-end on hybrid fleets.
#[test]
fn large_models_run() {
    let topo = presets::hybrid_split(2, 2);
    let r7 = run_framework(FrameworkKind::Holmes, &topo, 7, None).unwrap();
    assert!(r7.metrics.tflops_per_gpu > 30.0 && r7.metrics.tflops_per_gpu < 312.0);
    let topo12 = presets::hybrid_split(6, 6);
    let r8 = run_framework(FrameworkKind::Holmes, &topo12, 8, None).unwrap();
    assert!(r8.metrics.tflops_per_gpu > 30.0 && r8.metrics.tflops_per_gpu < 312.0);
    assert_eq!(r8.stage_layers.len(), 3);
}
