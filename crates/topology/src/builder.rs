//! Fluent construction of [`Topology`] values.

use crate::cluster::{Cluster, Node};
use crate::error::TopologyError;
use crate::gpu::GpuProfile;
use crate::link::LinkProfile;
use crate::nic::{NicProfile, NicType};
use crate::topology::Topology;

/// Builder for [`Topology`].
///
/// ```
/// use holmes_topology::{TopologyBuilder, NicType};
///
/// let topo = TopologyBuilder::new()
///     .cluster("ib-cluster", 2, NicType::InfiniBand)
///     .cluster("roce-cluster", 2, NicType::RoCE)
///     .gpus_per_node(4)
///     .build()
///     .unwrap();
/// assert_eq!(topo.device_count(), 16);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TopologyBuilder {
    clusters: Vec<Cluster>,
    gpus_per_node: Option<u32>,
    intra_link: Option<LinkProfile>,
    inter_cluster: Option<NicProfile>,
    node_ethernet: Option<NicProfile>,
}

impl TopologyBuilder {
    /// Start an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a homogeneous cluster of `node_count` standard nodes behind a
    /// switch, using the reference profile for `nic_type`.
    pub fn cluster(mut self, name: impl Into<String>, node_count: u32, nic_type: NicType) -> Self {
        self.clusters
            .push(Cluster::homogeneous(name, node_count, nic_type));
        self
    }

    /// Append a cluster with a custom NIC profile.
    pub fn cluster_with_profile(
        mut self,
        name: impl Into<String>,
        node_count: u32,
        nic: NicProfile,
    ) -> Self {
        self.clusters.push(Cluster {
            name: name.into(),
            nodes: (0..node_count).map(|_| Node::standard(nic)).collect(),
            has_switch: true,
            oversubscription: 1.0,
        });
        self
    }

    /// Append a homogeneous cluster whose nodes carry a non-default GPU
    /// generation (hyper-heterogeneous fleets mix accelerator generations
    /// across clusters while each cluster stays internally uniform).
    pub fn cluster_with_gpu(
        mut self,
        name: impl Into<String>,
        node_count: u32,
        nic_type: NicType,
        gpu: GpuProfile,
    ) -> Self {
        let mut cluster = Cluster::homogeneous(name, node_count, nic_type);
        for node in &mut cluster.nodes {
            node.gpu = gpu.clone();
        }
        self.clusters.push(cluster);
        self
    }

    /// Set the switch oversubscription ratio on the most recently added
    /// cluster (≥ 1.0; see [`Cluster::oversubscription`]).
    ///
    /// # Panics
    /// Panics when no cluster has been added yet.
    pub fn oversubscription(mut self, ratio: f64) -> Self {
        self.clusters
            .last_mut()
            .expect("add a cluster before setting oversubscription")
            .oversubscription = ratio;
        self
    }

    /// Append a fully custom cluster.
    pub fn custom_cluster(mut self, cluster: Cluster) -> Self {
        self.clusters.push(cluster);
        self
    }

    /// Override the per-node GPU count for every node added so far and later.
    pub fn gpus_per_node(mut self, count: u32) -> Self {
        self.gpus_per_node = Some(count);
        self
    }

    /// Override the intra-node link on every node.
    pub fn intra_node_link(mut self, link: LinkProfile) -> Self {
        self.intra_link = Some(link);
        self
    }

    /// Override the inter-cluster Ethernet profile (defaults to the
    /// reference 25 Gb/s profile).
    pub fn inter_cluster_ethernet(mut self, nic: NicProfile) -> Self {
        self.inter_cluster = Some(nic);
        self
    }

    /// Override the per-node fallback Ethernet NIC on every node.
    pub fn node_ethernet(mut self, nic: NicProfile) -> Self {
        self.node_ethernet = Some(nic);
        self
    }

    /// Finalize into an immutable [`Topology`].
    pub fn build(mut self) -> Result<Topology, TopologyError> {
        for cluster in &mut self.clusters {
            for node in &mut cluster.nodes {
                if let Some(g) = self.gpus_per_node {
                    node.gpu_count = g;
                }
                if let Some(link) = self.intra_link {
                    node.intra_link = link;
                }
                if let Some(eth) = self.node_ethernet {
                    node.ethernet = eth;
                }
            }
        }
        let inter = self.inter_cluster.unwrap_or_else(NicProfile::ethernet_25g);
        Topology::new(self.clusters, inter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_applies_overrides_to_all_nodes() {
        let topo = TopologyBuilder::new()
            .cluster("a", 2, NicType::InfiniBand)
            .cluster("b", 1, NicType::RoCE)
            .gpus_per_node(2)
            .intra_node_link(LinkProfile::pcie4())
            .build()
            .unwrap();
        assert_eq!(topo.device_count(), 6);
        for cluster in topo.clusters() {
            for node in &cluster.nodes {
                assert_eq!(node.gpu_count, 2);
                assert_eq!(node.intra_link, LinkProfile::pcie4());
            }
        }
    }

    #[test]
    fn builder_rejects_empty() {
        assert!(TopologyBuilder::new().build().is_err());
    }

    #[test]
    fn custom_inter_cluster_profile_is_used() {
        let slow = NicProfile {
            bandwidth_gbps: 1.0,
            ..NicProfile::ethernet_25g()
        };
        let topo = TopologyBuilder::new()
            .cluster("a", 1, NicType::InfiniBand)
            .cluster("b", 1, NicType::InfiniBand)
            .inter_cluster_ethernet(slow)
            .build()
            .unwrap();
        assert_eq!(topo.inter_cluster_profile().bandwidth_gbps, 1.0);
    }

    #[test]
    fn custom_cluster_is_preserved() {
        let mut c = Cluster::homogeneous("x", 1, NicType::Ethernet);
        c.has_switch = false;
        let topo = TopologyBuilder::new().custom_cluster(c).build().unwrap();
        assert!(!topo.clusters()[0].has_switch);
    }
}
