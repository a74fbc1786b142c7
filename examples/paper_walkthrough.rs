//! A guided walkthrough of the paper's Figure 2 example: a 6-layer
//! transformer trained across 2 clusters × 2 nodes × 4 GPUs with degrees
//! `d=2, t=2, p=4`, printing the exact `[TP]`, `[PP]`, `[DP]` group
//! matrices of Eqs. 1/3/4 and where each group's traffic flows.
//!
//! Run with:
//! ```sh
//! cargo run --release --example paper_walkthrough
//! ```

use holmes_repro::parallel::{GroupLayout, HolmesScheduler, ParallelDegrees};
use holmes_repro::topology::{LinkKind, NicType, Rank, TopologyBuilder};

fn main() {
    // Figure 2's machine environment: cluster 1 (nodes 1–2) on InfiniBand,
    // cluster 2 (nodes 3–4) on RoCE, Ethernet between the clusters, 4 GPUs
    // per node.
    let topo = TopologyBuilder::new()
        .cluster("cluster-1 (InfiniBand)", 2, NicType::InfiniBand)
        .cluster("cluster-2 (RoCE)", 2, NicType::RoCE)
        .gpus_per_node(4)
        .build()
        .expect("figure 2 topology");
    println!(
        "Figure 2 topology: {} clusters, {} nodes, {} GPUs\n",
        topo.cluster_count(),
        topo.node_count(),
        topo.device_count()
    );

    // Figure 2's parallelism: d=2, t=2, p=4 over N=16 devices.
    let degrees = ParallelDegrees::new(2, 4, 2, topo.device_count()).expect("valid degrees");
    let layout = GroupLayout::new(degrees);
    let assignment = HolmesScheduler::assign(&topo);

    // Print the three group matrices (1-based, as the paper writes them).
    let print_groups = |name: &str, groups: Vec<Vec<u32>>| {
        println!("[{name}] groups (paper 1-based ranks):");
        for (i, g) in groups.iter().enumerate() {
            let members: Vec<String> = g.iter().map(|r| format!("{}", r + 1)).collect();
            println!("  {name}[{}] = {{{}}}", i + 1, members.join(", "));
        }
        println!();
    };
    print_groups("TP", layout.tp_groups());
    print_groups("PP", layout.pp_groups());
    print_groups("DP", layout.dp_groups());

    // Which transport does each group family actually use?
    println!("Transports under the Holmes assignment:");
    let describe = |label: &str, group: &[u32]| {
        let devices: Vec<Rank> = group.iter().map(|&l| assignment.device_of(l)).collect();
        let kinds: Vec<String> = devices
            .windows(2)
            .map(|w| match topo.link_between(w[0], w[1]).unwrap().kind {
                LinkKind::NvLink => "NVLink".to_owned(),
                LinkKind::PciE => "PCI-E".to_owned(),
                LinkKind::Rdma(nic) => format!("RDMA/{nic}"),
                LinkKind::Tcp => "Ethernet".to_owned(),
            })
            .collect();
        println!("  {label}: {}", kinds.join(" → "));
    };
    describe("TP[1] (intra-node)", &layout.tp_group(0));
    describe("PP[1] (across clusters)", &layout.pp_group(0));
    describe("DP[1] (within a cluster)", &layout.dp_group(0));

    // The paper's claims, verified programmatically:
    let nic = holmes_repro::parallel::NicSelectionReport::analyze(&topo, &layout, &assignment);
    println!(
        "\nAutomatic NIC Selection: {}/{} DP groups RDMA-capable \
         (the paper's design goal: all of them)",
        nic.rdma_groups,
        nic.groups.len()
    );
    assert_eq!(nic.ethernet_groups, 0, "Figure 2's DP groups must be RDMA");
}
