//! Case 2 of the paper (§2.2): training across GPU clusters at different
//! locations, with **no** high-speed interconnect between them.
//!
//! Scenario: a lab owns two 2-node InfiniBand clusters built years apart,
//! plus an older RoCE cluster. None of them alone is big enough for the
//! 7.5 B model at the target batch size; Holmes joins them with
//! cross-cluster pipeline parallelism so only activation traffic crosses
//! the slow inter-site Ethernet.
//!
//! Run with:
//! ```sh
//! cargo run --release --example multi_cluster
//! ```

use holmes_repro::topology::{presets, NicType, TopologyBuilder};
use holmes_repro::{run_framework, run_holmes_with, FrameworkKind, HolmesConfig};

fn main() {
    // --- Two same-NIC clusters, Ethernet between sites -------------------
    let two_site_ib = presets::same_nic_two_clusters(NicType::InfiniBand, 2);
    let r = run_framework(FrameworkKind::Holmes, &two_site_ib, 3, None).unwrap();
    println!("Two InfiniBand sites joined by Ethernet (PG3, 7.5 B):");
    println!(
        "  Holmes: {:.0} TFLOPS/GPU, {:.2} samples/s (upper bound = single IB cluster, \
         lower bound = Ethernet everywhere)",
        r.metrics.tflops_per_gpu, r.metrics.throughput_samples_per_sec
    );

    // Reference bounds.
    let upper = run_framework(
        FrameworkKind::Holmes,
        &presets::homogeneous(NicType::InfiniBand, 4),
        3,
        None,
    )
    .unwrap();
    let lower = run_framework(
        FrameworkKind::Holmes,
        &presets::homogeneous(NicType::Ethernet, 4),
        3,
        None,
    )
    .unwrap();
    println!(
        "  bounds: IB {:.0} TFLOPS ≥ Holmes {:.0} ≥ Ethernet {:.0}",
        upper.metrics.tflops_per_gpu, r.metrics.tflops_per_gpu, lower.metrics.tflops_per_gpu
    );

    // --- Three clusters with three different stages (Table 4) ------------
    let three = presets::table4_2r_2ib_2ib();
    let r3 = run_framework(FrameworkKind::Holmes, &three, 5, None).unwrap();
    println!("\nThree clusters (2 RoCE + 2 IB + 2 IB nodes), PG5 with pipeline depth 3:");
    println!(
        "  Holmes: {:.0} TFLOPS/GPU, {:.2} samples/s, stage layers {:?}",
        r3.metrics.tflops_per_gpu, r3.metrics.throughput_samples_per_sec, r3.stage_layers
    );
    println!(
        "  NIC selection: {}/{} DP groups on RDMA",
        r3.nic.rdma_groups,
        r3.nic.groups.len()
    );

    // --- A custom, unbalanced fleet --------------------------------------
    // 3 IB nodes + 1 RoCE node: pipeline stages cannot align perfectly
    // with clusters; Holmes still recovers most RDMA groups.
    let fleet = TopologyBuilder::new()
        .cluster("big-ib", 3, NicType::InfiniBand)
        .cluster("old-roce", 1, NicType::RoCE)
        .build()
        .unwrap();
    let rf = run_holmes_with(&HolmesConfig::full(), &fleet, 1).unwrap();
    println!("\nUnbalanced fleet (3 IB nodes + 1 RoCE node), PG1:");
    println!(
        "  Holmes: {:.0} TFLOPS/GPU, RDMA DP groups {}/{}",
        rf.metrics.tflops_per_gpu,
        rf.nic.rdma_groups,
        rf.nic.groups.len()
    );
}
