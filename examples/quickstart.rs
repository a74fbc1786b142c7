//! Quickstart: train a GPT model across two clusters with incompatible
//! RDMA NICs and compare Holmes against a NIC-oblivious baseline.
//!
//! Run with:
//! ```sh
//! cargo run --release --example quickstart
//! ```

use holmes_repro::topology::presets;
use holmes_repro::{run_framework, FrameworkKind};

fn main() {
    // The paper's "Hybird" environment: one InfiniBand cluster and one
    // RoCE cluster (2 nodes × 8 A100 each), connected only by Ethernet.
    let topo = presets::hybrid_two_cluster(2);
    println!(
        "Topology: {} clusters, {} nodes, {} GPUs",
        topo.cluster_count(),
        topo.node_count(),
        topo.device_count()
    );

    // Train parameter group 1 (a 3.6 B-parameter GPT-3-style model,
    // Table 2 of the paper) for one simulated iteration per framework.
    println!(
        "\n{:<20} {:>12} {:>16} {:>12}",
        "framework", "TFLOPS/GPU", "samples/sec", "iter (s)"
    );
    for kind in FrameworkKind::ALL {
        let result = run_framework(kind, &topo, 1, None).expect("simulation runs");
        println!(
            "{:<20} {:>12.1} {:>16.2} {:>12.2}",
            kind.name(),
            result.metrics.tflops_per_gpu,
            result.metrics.throughput_samples_per_sec,
            result.metrics.iteration_seconds,
        );
    }

    // Holmes's Automatic NIC Selection keeps every data-parallel group on
    // one RDMA technology:
    let holmes = run_framework(FrameworkKind::Holmes, &topo, 1, None).unwrap();
    println!(
        "\nHolmes NIC selection: {}/{} data-parallel groups on RDMA; stage layers = {:?}",
        holmes.nic.rdma_groups,
        holmes.nic.groups.len(),
        holmes.stage_layers,
    );
}
