//! Nodes and clusters: the `C = {c_1 … c_M}` hierarchy of §2.4.

use crate::gpu::GpuProfile;
use crate::link::LinkProfile;
use crate::nic::{NicProfile, NicType};

/// Index of a cluster within a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClusterId(pub u32);

/// Index of a node within its cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// One server: `G` GPUs behind a NIC, connected internally by NVLink/PCI-E.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// GPUs on this node (the paper uses 8× A100 per node).
    pub gpu_count: u32,
    /// Profile shared by all GPUs on the node.
    pub gpu: GpuProfile,
    /// The high-speed NIC this node's GPUs communicate through.
    pub nic: NicProfile,
    /// Fallback Ethernet NIC, always present (management / TCP path used
    /// when RDMA is impossible).
    pub ethernet: NicProfile,
    /// Intra-node GPU-to-GPU transport.
    pub intra_link: LinkProfile,
}

impl Node {
    /// GPUs on a paper-standard node ([`Node::standard`]).
    pub const STANDARD_GPUS: u32 = 8;

    /// A paper-standard node: 8× A100-80GB behind the given NIC, NVLink
    /// internally, with a reference 25 Gb/s Ethernet fallback.
    pub fn standard(nic: NicProfile) -> Self {
        Node {
            gpu_count: Self::STANDARD_GPUS,
            gpu: GpuProfile::a100_80g(),
            nic,
            ethernet: NicProfile::ethernet_25g(),
            intra_link: LinkProfile::nvlink(),
        }
    }

    /// NIC technology of this node's high-speed NIC.
    #[inline]
    pub fn nic_type(&self) -> NicType {
        self.nic.nic_type
    }
}

/// A cluster: a set of nodes that share a high-speed switch.
///
/// Within a cluster, nodes whose NICs are RDMA-compatible can use RDMA.
/// Between clusters there is never a high-speed interconnect in the paper's
/// Case 2 — only Ethernet.
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    /// Human-readable name (shown in reports).
    pub name: String,
    /// Nodes in this cluster, in rank order.
    pub nodes: Vec<Node>,
    /// Whether the cluster has a high-speed switch. Without one, even
    /// same-technology RDMA NICs cannot reach each other and all inter-node
    /// traffic falls back to Ethernet.
    pub has_switch: bool,
    /// Switch oversubscription ratio (≥ 1.0): the fabric's bisection
    /// bandwidth is `Σ node uplinks / oversubscription`. 1.0 models a
    /// full-bisection (non-blocking) fabric; 2.0 a typical 2:1
    /// leaf–spine taper.
    pub oversubscription: f64,
}

impl Cluster {
    /// A cluster of `node_count` identical standard nodes behind one switch.
    pub fn homogeneous(name: impl Into<String>, node_count: u32, nic_type: NicType) -> Self {
        let nic = NicProfile::reference(nic_type);
        Cluster {
            name: name.into(),
            nodes: (0..node_count).map(|_| Node::standard(nic)).collect(),
            has_switch: true,
            oversubscription: 1.0,
        }
    }

    /// Aggregate RDMA bisection bandwidth of this cluster's switch in
    /// bytes/second (`Σ node uplinks / oversubscription`).
    pub fn switch_bisection_bytes_per_sec(&self) -> f64 {
        let total: f64 = self
            .nodes
            .iter()
            .map(|n| n.nic.node_uplink_bytes_per_sec())
            .sum();
        total / self.oversubscription.max(1.0)
    }

    /// Total GPU count in this cluster.
    pub fn gpu_count(&self) -> u32 {
        self.nodes.iter().map(|n| n.gpu_count).sum()
    }

    /// The single NIC technology of this cluster, if homogeneous.
    pub fn uniform_nic_type(&self) -> Option<NicType> {
        let first = self.nodes.first()?.nic_type();
        self.nodes
            .iter()
            .all(|n| n.nic_type() == first)
            .then_some(first)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_node_matches_paper_hardware() {
        let node = Node::standard(NicProfile::infiniband_200g());
        assert_eq!(node.gpu_count, 8);
        assert_eq!(node.gpu.peak_tflops, 312.0);
        assert_eq!(node.nic_type(), NicType::InfiniBand);
    }

    #[test]
    fn homogeneous_cluster_counts() {
        let c = Cluster::homogeneous("a", 4, NicType::RoCE);
        assert_eq!(c.nodes.len(), 4);
        assert_eq!(c.gpu_count(), 32);
        assert_eq!(c.uniform_nic_type(), Some(NicType::RoCE));
        assert!(c.has_switch);
    }

    #[test]
    fn oversubscription_divides_bisection() {
        let mut c = Cluster::homogeneous("a", 4, NicType::InfiniBand);
        let full = c.switch_bisection_bytes_per_sec();
        c.oversubscription = 2.0;
        assert!((c.switch_bisection_bytes_per_sec() - full / 2.0).abs() < 1.0);
        // Ratios below 1 clamp to non-blocking.
        c.oversubscription = 0.5;
        assert_eq!(c.switch_bisection_bytes_per_sec(), full);
    }

    #[test]
    fn mixed_cluster_has_no_uniform_nic() {
        let mut c = Cluster::homogeneous("a", 2, NicType::RoCE);
        c.nodes.push(Node::standard(NicProfile::infiniband_200g()));
        assert_eq!(c.uniform_nic_type(), None);
    }

    #[test]
    fn empty_cluster_has_no_uniform_nic() {
        let c = Cluster {
            name: "empty".into(),
            nodes: vec![],
            has_switch: true,
            oversubscription: 1.0,
        };
        assert_eq!(c.uniform_nic_type(), None);
        assert_eq!(c.gpu_count(), 0);
    }
}
