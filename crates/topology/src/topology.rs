//! The global topology: clusters, global rank numbering, link resolution.

use crate::cluster::{Cluster, ClusterId, NodeId};
use crate::error::TopologyError;
use crate::gpu::GpuProfile;
use crate::link::{LinkKind, LinkProfile};
use crate::nic::{NicProfile, NicType};

/// Global device index.
///
/// §2.4 numbers clusters, nodes and GPUs sequentially: in the `i`-th cluster,
/// the `j`-th GPU of the `k`-th node is
/// `rank_{G·((Σ_{a<i} f_a) + k − 1) + j}` (1-based in the paper). We store
/// 0-based ranks; [`Rank::paper_index`] recovers the paper's 1-based form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rank(pub u32);

impl Rank {
    /// The paper's 1-based rank index.
    #[inline]
    pub fn paper_index(self) -> u32 {
        self.0 + 1
    }

    /// Construct from the paper's 1-based index.
    #[inline]
    pub fn from_paper_index(idx: u32) -> Self {
        debug_assert!(idx >= 1, "paper ranks are 1-based");
        Rank(idx - 1)
    }
}

impl std::fmt::Display for Rank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Physical coordinates of a device: (cluster, node-within-cluster,
/// gpu-within-node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeviceCoord {
    /// Cluster index.
    pub cluster: ClusterId,
    /// Node index within the cluster.
    pub node: NodeId,
    /// GPU index within the node.
    pub gpu: u32,
}

/// Resolved information about one device.
#[derive(Debug, Clone, Copy)]
pub struct Device<'t> {
    /// Global rank.
    pub rank: Rank,
    /// Physical coordinates.
    pub coord: DeviceCoord,
    /// GPU profile.
    pub gpu: &'t GpuProfile,
    /// High-speed NIC of the hosting node.
    pub nic: &'t NicProfile,
    /// NIC technology shorthand.
    pub nic_type: NicType,
}

/// Largest device count a [`Topology`] may hold. Every layer keeps
/// per-device state and ranks are `u32`, so larger requests are rejected
/// before any node or device is allocated.
pub const MAX_DEVICES: u32 = 1 << 20;

/// An immutable multi-cluster GPU topology.
///
/// Construction goes through [`crate::TopologyBuilder`] or the presets; the
/// struct itself only offers queries.
#[derive(Debug, Clone)]
pub struct Topology {
    clusters: Vec<Cluster>,
    /// Ethernet profile used for all inter-cluster traffic.
    inter_cluster: NicProfile,
    /// coords[rank] = physical coordinates, precomputed at build time.
    coords: Vec<DeviceCoord>,
    /// Per-node GPU count `G` (uniform across the topology, §2.4).
    gpus_per_node: u32,
}

impl Topology {
    /// Build a topology from clusters. Fails when empty or when nodes have
    /// uneven GPU counts (the paper's formalization assumes a uniform `G`).
    pub fn new(clusters: Vec<Cluster>, inter_cluster: NicProfile) -> Result<Self, TopologyError> {
        let first = clusters
            .iter()
            .flat_map(|c| c.nodes.first())
            .next()
            .ok_or(TopologyError::Empty)?;
        let g = first.gpu_count;
        if g == 0 {
            return Err(TopologyError::NodeWithoutGpus);
        }
        Self::check_device_total(
            clusters
                .iter()
                .flat_map(|c| &c.nodes)
                .map(|n| u64::from(n.gpu_count))
                .sum(),
        )?;
        let mut coords = Vec::new();
        for (ci, cluster) in clusters.iter().enumerate() {
            for (ni, node) in cluster.nodes.iter().enumerate() {
                if node.gpu_count == 0 {
                    return Err(TopologyError::NodeWithoutGpus);
                }
                if node.gpu_count != g {
                    return Err(TopologyError::UnevenGpuCounts {
                        expected: g,
                        found: node.gpu_count,
                    });
                }
                for gi in 0..node.gpu_count {
                    coords.push(DeviceCoord {
                        cluster: ClusterId(ci as u32),
                        node: NodeId(ni as u32),
                        gpu: gi,
                    });
                }
            }
        }
        if coords.is_empty() {
            return Err(TopologyError::Empty);
        }
        Ok(Topology {
            clusters,
            inter_cluster,
            coords,
            gpus_per_node: g,
        })
    }

    /// `Ok` when `total` devices fit under [`MAX_DEVICES`]. Callers that
    /// build topologies from outside input check `nodes × GPUs per node`
    /// here before allocating any node.
    ///
    /// # Errors
    /// [`TopologyError::TooManyDevices`] above the cap.
    pub fn check_device_total(total: u64) -> Result<(), TopologyError> {
        if total > u64::from(MAX_DEVICES) {
            return Err(TopologyError::TooManyDevices { total });
        }
        Ok(())
    }

    /// Total device count `N = G · Σ f_i`.
    #[inline]
    pub fn device_count(&self) -> u32 {
        // `Topology::new` caps the count at `MAX_DEVICES`, so this fits.
        self.coords.len() as u32
    }

    /// Per-node GPU count `G`.
    #[inline]
    pub fn gpus_per_node(&self) -> u32 {
        self.gpus_per_node
    }

    /// Number of clusters `M`.
    #[inline]
    pub fn cluster_count(&self) -> u32 {
        self.clusters.len() as u32
    }

    /// Total node count `Σ f_i`.
    pub fn node_count(&self) -> u32 {
        self.clusters.iter().map(|c| c.nodes.len() as u32).sum()
    }

    /// All clusters.
    #[inline]
    pub fn clusters(&self) -> &[Cluster] {
        &self.clusters
    }

    /// The Ethernet profile used between clusters.
    #[inline]
    pub fn inter_cluster_profile(&self) -> &NicProfile {
        &self.inter_cluster
    }

    /// Physical coordinates of a rank.
    pub fn coord(&self, rank: Rank) -> Result<DeviceCoord, TopologyError> {
        self.coords
            .get(rank.0 as usize)
            .copied()
            .ok_or(TopologyError::RankOutOfRange {
                rank: rank.0,
                total: self.device_count(),
            })
    }

    /// Inverse of [`Topology::coord`].
    pub fn rank_of(&self, coord: DeviceCoord) -> Option<Rank> {
        let mut base = 0u32;
        for (ci, cluster) in self.clusters.iter().enumerate() {
            if ci as u32 == coord.cluster.0 {
                let node = cluster.nodes.get(coord.node.0 as usize)?;
                if coord.gpu >= node.gpu_count {
                    return None;
                }
                return Some(Rank(base + coord.node.0 * self.gpus_per_node + coord.gpu));
            }
            base += cluster.gpu_count();
        }
        None
    }

    /// Resolved device info for a rank.
    pub fn device(&self, rank: Rank) -> Result<Device<'_>, TopologyError> {
        let coord = self.coord(rank)?;
        let node = &self.clusters[coord.cluster.0 as usize].nodes[coord.node.0 as usize];
        Ok(Device {
            rank,
            coord,
            gpu: &node.gpu,
            nic: &node.nic,
            nic_type: node.nic.nic_type,
        })
    }

    /// Iterate over all devices in rank order.
    pub fn devices(&self) -> impl Iterator<Item = Device<'_>> + '_ {
        (0..self.device_count()).map(move |r| self.device(Rank(r)).expect("rank in range"))
    }

    /// NIC technology of the node hosting `rank`.
    pub fn nic_type_of(&self, rank: Rank) -> Result<NicType, TopologyError> {
        Ok(self.device(rank)?.nic_type)
    }

    /// Global ranks hosted by a cluster, in order.
    pub fn cluster_ranks(&self, cluster: ClusterId) -> Vec<Rank> {
        let mut base = 0u32;
        for (ci, c) in self.clusters.iter().enumerate() {
            let count = c.gpu_count();
            if ci as u32 == cluster.0 {
                return (base..base + count).map(Rank).collect();
            }
            base += count;
        }
        Vec::new()
    }

    /// Resolve the best transport between two distinct devices.
    ///
    /// * same node → the node's intra-node link (NVLink);
    /// * same cluster with a switch, RDMA-compatible NICs → RDMA at the
    ///   slower endpoint's effective per-port rate;
    /// * same cluster, incompatible NICs (or no switch) → TCP over the
    ///   nodes' Ethernet fallback;
    /// * different clusters → TCP over the inter-cluster Ethernet.
    pub fn link_between(&self, a: Rank, b: Rank) -> Result<LinkProfile, TopologyError> {
        let ca = self.coord(a)?;
        let cb = self.coord(b)?;
        let node_a = &self.clusters[ca.cluster.0 as usize].nodes[ca.node.0 as usize];
        let node_b = &self.clusters[cb.cluster.0 as usize].nodes[cb.node.0 as usize];

        if ca.cluster == cb.cluster && ca.node == cb.node {
            return Ok(node_a.intra_link);
        }

        if ca.cluster == cb.cluster {
            let cluster = &self.clusters[ca.cluster.0 as usize];
            if cluster.has_switch && node_a.nic.nic_type.rdma_compatible(node_b.nic.nic_type) {
                // RDMA path; the slower endpoint's NIC bounds the flow.
                let (slow, fast);
                if node_a.nic.effective_bytes_per_sec() <= node_b.nic.effective_bytes_per_sec() {
                    (slow, fast) = (&node_a.nic, &node_b.nic);
                } else {
                    (slow, fast) = (&node_b.nic, &node_a.nic);
                }
                return Ok(LinkProfile {
                    kind: LinkKind::Rdma(slow.nic_type),
                    bandwidth_bytes_per_sec: slow.effective_bytes_per_sec(),
                    latency_ns: slow.latency_ns().max(fast.latency_ns()),
                });
            }
            // Incompatible NICs inside one cluster: only Ethernet works.
            let eth = if node_a.ethernet.effective_bytes_per_sec()
                <= node_b.ethernet.effective_bytes_per_sec()
            {
                &node_a.ethernet
            } else {
                &node_b.ethernet
            };
            return Ok(LinkProfile {
                kind: LinkKind::Tcp,
                bandwidth_bytes_per_sec: eth.effective_bytes_per_sec(),
                latency_ns: eth.latency_ns(),
            });
        }

        // Cross-cluster: plain Ethernet, possibly long-haul.
        Ok(LinkProfile {
            kind: LinkKind::Tcp,
            bandwidth_bytes_per_sec: self.inter_cluster.effective_bytes_per_sec(),
            latency_ns: self.inter_cluster.latency_ns(),
        })
    }

    /// Resolve the transport between two distinct devices with RDMA
    /// *excluded* — the path traffic takes after a NIC failure forces the
    /// pair down to TCP. Same-node pairs still ride NVLink (a NIC loss
    /// does not affect the intra-node fabric); everything else rides the
    /// Ethernet fallback exactly as [`Topology::link_between`] prices it
    /// for RDMA-incompatible pairs.
    pub fn tcp_link_between(&self, a: Rank, b: Rank) -> Result<LinkProfile, TopologyError> {
        let ca = self.coord(a)?;
        let cb = self.coord(b)?;
        let node_a = &self.clusters[ca.cluster.0 as usize].nodes[ca.node.0 as usize];
        let node_b = &self.clusters[cb.cluster.0 as usize].nodes[cb.node.0 as usize];

        if ca.cluster == cb.cluster && ca.node == cb.node {
            return Ok(node_a.intra_link);
        }
        if ca.cluster == cb.cluster {
            let eth = if node_a.ethernet.effective_bytes_per_sec()
                <= node_b.ethernet.effective_bytes_per_sec()
            {
                &node_a.ethernet
            } else {
                &node_b.ethernet
            };
            return Ok(LinkProfile {
                kind: LinkKind::Tcp,
                bandwidth_bytes_per_sec: eth.effective_bytes_per_sec(),
                latency_ns: eth.latency_ns(),
            });
        }
        Ok(LinkProfile {
            kind: LinkKind::Tcp,
            bandwidth_bytes_per_sec: self.inter_cluster.effective_bytes_per_sec(),
            latency_ns: self.inter_cluster.latency_ns(),
        })
    }

    /// True when every device in the topology sits behind the same NIC
    /// technology and a single cluster — the paper's "homogeneous" Case 1.
    pub fn is_homogeneous(&self) -> bool {
        if self.clusters.len() != 1 {
            return false;
        }
        self.clusters[0].uniform_nic_type().is_some()
    }

    /// True when every node carries the same [`GpuProfile`]: the fleet is
    /// compute-uniform. A descriptive predicate for reports; no pricing
    /// branches on it. On such a fleet the skew-priced DP groups and the
    /// straggler-aware partition reduce to their NIC-only forms bit for
    /// bit, while a stage mixing NICs still pays for its slowest member
    /// (NIC compute interference differs).
    pub fn uniform_compute(&self) -> bool {
        let mut nodes = self.clusters.iter().flat_map(|c| &c.nodes);
        match nodes.next() {
            Some(first) => nodes.all(|n| n.gpu == first.gpu),
            None => true,
        }
    }

    /// The set of distinct GPU profile names present, ordered by first
    /// appearance in rank order (deduplicated). One entry ⇔
    /// [`Topology::uniform_compute`].
    pub fn gpu_generations(&self) -> Vec<&str> {
        let mut seen: Vec<&str> = Vec::new();
        for node in self.clusters.iter().flat_map(|c| &c.nodes) {
            if !seen.contains(&node.gpu.name.as_str()) {
                seen.push(&node.gpu.name);
            }
        }
        seen
    }

    /// The set of distinct NIC technologies present, in `NicType::ALL` order.
    pub fn nic_types_present(&self) -> Vec<NicType> {
        NicType::ALL
            .into_iter()
            .filter(|t| {
                self.clusters
                    .iter()
                    .flat_map(|c| &c.nodes)
                    .any(|n| n.nic_type() == *t)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TopologyBuilder;

    fn two_cluster_topo() -> Topology {
        // Figure 2 of the paper: 2 clusters × 2 nodes × 4 GPUs; cluster 0
        // uses InfiniBand, cluster 1 uses RoCE, Ethernet between them.
        TopologyBuilder::new()
            .cluster("ib", 2, NicType::InfiniBand)
            .cluster("roce", 2, NicType::RoCE)
            .gpus_per_node(4)
            .build()
            .unwrap()
    }

    #[test]
    fn rank_numbering_matches_paper_formula() {
        let topo = two_cluster_topo();
        // Paper: rank_{G((Σ_{a<i} f_a)+k−1)+j}, 1-based. Cluster 2 (i=2),
        // node 1 (k=1), gpu 2 (j=2), G=4, f_1=2 → rank_{4·(2+0)+2} = rank_10
        // → 0-based 9.
        let coord = DeviceCoord {
            cluster: ClusterId(1),
            node: NodeId(0),
            gpu: 1,
        };
        let rank = topo.rank_of(coord).unwrap();
        assert_eq!(rank.paper_index(), 10);
        assert_eq!(topo.coord(rank).unwrap(), coord);
    }

    #[test]
    fn coord_rank_roundtrip_for_all_devices() {
        let topo = two_cluster_topo();
        assert_eq!(topo.device_count(), 16);
        for r in 0..16 {
            let rank = Rank(r);
            let coord = topo.coord(rank).unwrap();
            assert_eq!(topo.rank_of(coord), Some(rank));
        }
    }

    #[test]
    fn same_node_link_is_nvlink() {
        let topo = two_cluster_topo();
        let link = topo.link_between(Rank(0), Rank(3)).unwrap();
        assert_eq!(link.kind, LinkKind::NvLink);
    }

    #[test]
    fn same_cluster_same_nic_is_rdma() {
        let topo = two_cluster_topo();
        // ranks 0..4 node0, 4..8 node1, both InfiniBand cluster 0.
        let link = topo.link_between(Rank(0), Rank(4)).unwrap();
        assert_eq!(link.kind, LinkKind::Rdma(NicType::InfiniBand));
        // RoCE cluster: ranks 8..12 node0, 12..16 node1.
        let link = topo.link_between(Rank(8), Rank(12)).unwrap();
        assert_eq!(link.kind, LinkKind::Rdma(NicType::RoCE));
    }

    #[test]
    fn cross_cluster_link_is_tcp() {
        let topo = two_cluster_topo();
        let link = topo.link_between(Rank(0), Rank(8)).unwrap();
        assert_eq!(link.kind, LinkKind::Tcp);
        // TCP is far slower than RDMA here.
        let rdma = topo.link_between(Rank(0), Rank(4)).unwrap();
        assert!(link.bandwidth_bytes_per_sec < rdma.bandwidth_bytes_per_sec);
    }

    #[test]
    fn mixed_nic_inside_cluster_falls_back_to_tcp() {
        use crate::cluster::{Cluster, Node};
        let mut cluster = Cluster::homogeneous("mixed", 1, NicType::InfiniBand);
        cluster.nodes.push(Node::standard(NicProfile::roce_200g()));
        let topo = Topology::new(vec![cluster], NicProfile::ethernet_25g()).unwrap();
        let link = topo.link_between(Rank(0), Rank(8)).unwrap();
        assert_eq!(link.kind, LinkKind::Tcp);
    }

    #[test]
    fn cluster_without_switch_cannot_use_rdma() {
        use crate::cluster::Cluster;
        let mut cluster = Cluster::homogeneous("switchless", 2, NicType::InfiniBand);
        cluster.has_switch = false;
        let topo = Topology::new(vec![cluster], NicProfile::ethernet_25g()).unwrap();
        let link = topo.link_between(Rank(0), Rank(8)).unwrap();
        assert_eq!(link.kind, LinkKind::Tcp);
    }

    #[test]
    fn homogeneity_detection() {
        let topo = two_cluster_topo();
        assert!(!topo.is_homogeneous());
        let homo = TopologyBuilder::new()
            .cluster("ib", 4, NicType::InfiniBand)
            .build()
            .unwrap();
        assert!(homo.is_homogeneous());
    }

    #[test]
    fn nic_types_present_ordering() {
        let topo = two_cluster_topo();
        assert_eq!(
            topo.nic_types_present(),
            vec![NicType::InfiniBand, NicType::RoCE]
        );
    }

    #[test]
    fn cluster_ranks_are_contiguous() {
        let topo = two_cluster_topo();
        let c0: Vec<u32> = topo
            .cluster_ranks(ClusterId(0))
            .iter()
            .map(|r| r.0)
            .collect();
        let c1: Vec<u32> = topo
            .cluster_ranks(ClusterId(1))
            .iter()
            .map(|r| r.0)
            .collect();
        assert_eq!(c0, (0..8).collect::<Vec<_>>());
        assert_eq!(c1, (8..16).collect::<Vec<_>>());
        assert!(topo.cluster_ranks(ClusterId(5)).is_empty());
    }

    #[test]
    fn out_of_range_rank_is_an_error() {
        let topo = two_cluster_topo();
        assert!(matches!(
            topo.coord(Rank(99)),
            Err(TopologyError::RankOutOfRange {
                rank: 99,
                total: 16
            })
        ));
    }

    #[test]
    fn empty_topology_rejected() {
        assert!(matches!(
            Topology::new(vec![], NicProfile::ethernet_25g()),
            Err(TopologyError::Empty)
        ));
    }

    #[test]
    fn uneven_gpu_counts_rejected() {
        use crate::cluster::{Cluster, Node};
        let mut cluster = Cluster::homogeneous("c", 1, NicType::InfiniBand);
        let mut odd = Node::standard(NicProfile::infiniband_200g());
        odd.gpu_count = 4;
        cluster.nodes.push(odd);
        assert!(matches!(
            Topology::new(vec![cluster], NicProfile::ethernet_25g()),
            Err(TopologyError::UnevenGpuCounts {
                expected: 8,
                found: 4
            })
        ));
    }

    #[test]
    fn oversized_topologies_are_rejected_before_allocation() {
        // 2 × u32::MAX GPUs: summed in u64, refused before any coordinate.
        let huge = crate::TopologyBuilder::new()
            .cluster("c", 2, NicType::InfiniBand)
            .gpus_per_node(u32::MAX)
            .build();
        assert_eq!(
            huge.unwrap_err(),
            TopologyError::TooManyDevices {
                total: 2 * u64::from(u32::MAX)
            }
        );
        assert!(Topology::check_device_total(u64::from(MAX_DEVICES)).is_ok());
        assert!(Topology::check_device_total(u64::from(MAX_DEVICES) + 1).is_err());
    }
}
