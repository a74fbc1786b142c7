//! Mapping a hardware [`Topology`] onto simulator links, plus routing.
//!
//! Every node contributes four shared links: RDMA uplink/downlink (its
//! high-speed NIC, all ports aggregated) and Ethernet uplink/downlink (the
//! TCP fallback path). A transfer between two ranks is routed according to
//! the topology's transport-resolution rules
//! ([`Topology::link_between`]): NVLink transfers are modelled as
//! uncontended (NVSwitch is effectively non-blocking), RDMA transfers
//! traverse the two nodes' RDMA links, TCP transfers traverse the Ethernet
//! links and, across clusters, an optional shared trunk.

use holmes_topology::{LinkKind, Rank, Topology};

use crate::flow::FlowSpec;
use crate::link::{LinkCapacity, LinkId};
use crate::sim::NetSim;
use crate::time::SimDuration;

/// A topology-level fault location: the links one fault or recovery
/// acts on, named by what fails rather than by [`LinkId`]. Node indices
/// are global and cluster-major, like [`Fabric::node_of`]'s.
/// [`Fabric::links_of`] expands a target to its links.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultTarget {
    /// Both directions of a node's RDMA uplink (the NIC itself).
    NodeRdma(u32),
    /// Both directions of a node's Ethernet uplink.
    NodeEth(u32),
    /// The inter-cluster trunk, present only on a fabric built with
    /// [`Fabric::build_with_trunk`].
    Trunk,
}

/// Per-node link handles.
#[derive(Debug, Clone, Copy)]
struct NodeLinks {
    rdma_up: LinkId,
    rdma_down: LinkId,
    eth_up: LinkId,
    eth_down: LinkId,
}

/// A resolved route between two ranks.
#[derive(Debug, Clone, PartialEq)]
pub struct Route {
    /// Shared links the flow traverses (empty for intra-node NVLink).
    pub path: Vec<LinkId>,
    /// Per-flow rate ceiling in bytes/second (one NIC port or NVLink lane).
    pub rate_cap: f64,
    /// One-way latency.
    pub latency: SimDuration,
}

/// The simulated network fabric for one topology.
#[derive(Debug, Clone)]
pub struct Fabric {
    node_links: Vec<NodeLinks>,
    /// Optional shared inter-cluster trunk (bandwidth bottleneck between
    /// sites). `None` models a full-bisection Ethernet fabric where only
    /// per-node uplinks bind.
    trunk: Option<LinkId>,
    /// Per-cluster switch link for oversubscribed fabrics (`None` when the
    /// cluster is non-blocking).
    cluster_switches: Vec<Option<LinkId>>,
    gpus_per_node: u32,
}

impl Fabric {
    /// Register this topology's links with `sim` and return the fabric.
    pub fn build(topo: &Topology, sim: &mut NetSim) -> Fabric {
        Self::build_inner(topo, sim, None)
    }

    /// Like [`Fabric::build`] but with a shared inter-cluster trunk of the
    /// given capacity (bytes/second). Used to model bandwidth-limited
    /// site-to-site connectivity and for failure-injection experiments.
    pub fn build_with_trunk(topo: &Topology, sim: &mut NetSim, trunk_bytes_per_sec: f64) -> Fabric {
        Self::build_inner(topo, sim, Some(trunk_bytes_per_sec))
    }

    fn build_inner(topo: &Topology, sim: &mut NetSim, trunk: Option<f64>) -> Fabric {
        let mut node_links = Vec::new();
        let mut cluster_switches = Vec::new();
        for cluster in topo.clusters() {
            for node in &cluster.nodes {
                let rdma_cap = LinkCapacity::new(node.nic.node_uplink_bytes_per_sec());
                let eth_cap = LinkCapacity::new(node.ethernet.node_uplink_bytes_per_sec());
                node_links.push(NodeLinks {
                    rdma_up: sim.add_link(rdma_cap),
                    rdma_down: sim.add_link(rdma_cap),
                    eth_up: sim.add_link(eth_cap),
                    eth_down: sim.add_link(eth_cap),
                });
            }
            cluster_switches.push(if cluster.oversubscription > 1.0 {
                Some(sim.add_link(LinkCapacity::new(cluster.switch_bisection_bytes_per_sec())))
            } else {
                None
            });
        }
        let trunk = trunk.map(|cap| sim.add_link(LinkCapacity::new(cap)));
        Fabric {
            node_links,
            trunk,
            cluster_switches,
            gpus_per_node: topo.gpus_per_node(),
        }
    }

    /// Global node index hosting `rank`.
    #[inline]
    pub fn node_of(&self, rank: Rank) -> usize {
        (rank.0 / self.gpus_per_node) as usize
    }

    /// Number of nodes with registered links.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.node_links.len()
    }

    /// `(rdma_up, rdma_down, eth_up, eth_down)` link ids of a node, for
    /// utilization reporting.
    pub fn node_link_ids(&self, node: usize) -> (LinkId, LinkId, LinkId, LinkId) {
        let l = self.node_links[node];
        (l.rdma_up, l.rdma_down, l.eth_up, l.eth_down)
    }

    /// Resolve the route for a transfer from `a` to `b`.
    ///
    /// # Panics
    /// Panics when either rank is outside the topology (the fabric is built
    /// for exactly one topology).
    pub fn route(&self, topo: &Topology, a: Rank, b: Rank) -> Route {
        self.route_with(topo, a, b, false)
    }

    /// The route for a transfer from `a` to `b`, over the profile
    /// [`Topology::tcp_link_between`] prices when `force_tcp` is set (a
    /// NIC loss, or a NIC-oblivious framework that demotes the whole job
    /// to sockets, paper §3.2) and [`Topology::link_between`] otherwise.
    /// Each link kind has one path: none for NVLink/PCIe, the two nodes'
    /// RDMA links plus an oversubscribed cluster's switch, or their
    /// Ethernet links plus the trunk across clusters.
    #[expect(clippy::expect_used, reason = "ranks of the fabric's topology")]
    fn route_with(&self, topo: &Topology, a: Rank, b: Rank, force_tcp: bool) -> Route {
        assert_ne!(a, b, "no self-routes");
        let profile = if force_tcp {
            topo.tcp_link_between(a, b)
        } else {
            topo.link_between(a, b)
        }
        .expect("ranks belong to the fabric's topology");
        let cluster = |r: Rank| {
            topo.coord(r)
                .expect("fabric routes are built only for ranks inside the topology")
                .cluster
        };
        let src = self.node_links[self.node_of(a)];
        let dst = self.node_links[self.node_of(b)];
        let path = match profile.kind {
            LinkKind::NvLink | LinkKind::PciE => Vec::new(),
            LinkKind::Rdma(_) => {
                let mut path = vec![src.rdma_up, dst.rdma_down];
                // Oversubscribed fabrics bottleneck inter-node RDMA at the
                // cluster switch's bisection.
                path.extend(self.cluster_switches[cluster(a).0 as usize]);
                path
            }
            LinkKind::Tcp => {
                let mut path = vec![src.eth_up, dst.eth_down];
                if cluster(a) != cluster(b) {
                    path.extend(self.trunk);
                }
                path
            }
        };
        Route {
            path,
            rate_cap: profile.bandwidth_bytes_per_sec,
            latency: SimDuration::from_nanos(profile.latency_ns),
        }
    }

    /// The fabric links a fault on `target` acts on: both directions of
    /// a node's NIC, or the trunk (none when the fabric was built
    /// without one).
    ///
    /// # Panics
    /// Panics when a node target lies past the fabric's last node.
    pub fn links_of(&self, target: FaultTarget) -> Vec<LinkId> {
        match target {
            FaultTarget::NodeRdma(node) => {
                let l = self.node_links[node as usize];
                vec![l.rdma_up, l.rdma_down]
            }
            FaultTarget::NodeEth(node) => {
                let l = self.node_links[node as usize];
                vec![l.eth_up, l.eth_down]
            }
            FaultTarget::Trunk => self.trunk.into_iter().collect(),
        }
    }

    /// A [`RouteTable`] for this fabric, with no route resolved yet.
    pub fn route_table(&self) -> RouteTable {
        let n = self.node_links.len();
        RouteTable {
            nodes: n,
            index: vec![0; n * n * 2],
            routes: Vec::new(),
        }
    }

    /// Build a ready-to-start [`FlowSpec`] for a transfer.
    pub fn flow_spec(
        &self,
        topo: &Topology,
        from: Rank,
        to: Rank,
        bytes: u64,
        token: u64,
    ) -> FlowSpec {
        let route = self.route(topo, from, to);
        FlowSpec {
            path: route.path,
            bytes,
            latency: route.latency,
            rate_cap: route.rate_cap,
            token,
            count: 1,
        }
    }
}

/// Memoised routes of one [`Fabric`], keyed by (source node, destination
/// node, transport).
///
/// A route is a function of the two ranks' nodes and the transport
/// alone: both endpoints' NICs, clusters and link handles are per node,
/// and intra-node pairs ride the node's own NVLink/PCIe profile. So the
/// first transfer of a node pair walks the topology once and every later
/// one is a table hit, bit-identical to walking it again. Build one per
/// fabric with [`Fabric::route_table`].
#[derive(Debug, Clone)]
pub struct RouteTable {
    nodes: usize,
    /// Per key, one past the position of its route in `routes`; 0 until
    /// the key is first resolved.
    index: Vec<u32>,
    routes: Vec<Route>,
}

impl RouteTable {
    /// The route from `a` to `b` on `fabric` (the fabric this table was
    /// built for), forced down to TCP/Ethernet when `force_tcp` is set.
    ///
    /// # Panics
    /// Panics when `a == b`, or when either rank is outside the topology.
    #[expect(clippy::cast_possible_truncation, reason = "route indices are u32")]
    pub fn route(
        &mut self,
        fabric: &Fabric,
        topo: &Topology,
        a: Rank,
        b: Rank,
        force_tcp: bool,
    ) -> &Route {
        assert_ne!(a, b, "no self-routes");
        let key = (fabric.node_of(a) * self.nodes + fabric.node_of(b)) * 2 + usize::from(force_tcp);
        if self.index[key] == 0 {
            self.routes.push(fabric.route_with(topo, a, b, force_tcp));
            self.index[key] = self.routes.len() as u32;
        }
        &self.routes[self.index[key] as usize - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holmes_topology::{presets, NicType};

    fn hybrid() -> (Topology, NetSim, Fabric) {
        let topo = presets::hybrid_two_cluster(2);
        let mut sim = NetSim::new();
        let fabric = Fabric::build(&topo, &mut sim);
        (topo, sim, fabric)
    }

    #[test]
    fn intra_node_route_is_pathless() {
        let (topo, _, fabric) = hybrid();
        let r = fabric.route(&topo, Rank(0), Rank(1));
        assert!(r.path.is_empty());
        assert!(r.rate_cap > 100e9); // NVLink-class
    }

    #[test]
    fn rdma_route_uses_two_links() {
        let (topo, _, fabric) = hybrid();
        // Ranks 0 and 8 are nodes 0 and 1 of the InfiniBand cluster.
        let r = fabric.route(&topo, Rank(0), Rank(8));
        assert_eq!(r.path.len(), 2);
        // Per-port IB rate: 200 Gb/s × 0.92 = 23 GB/s.
        assert!((r.rate_cap - 23e9).abs() < 1e8);
    }

    #[test]
    fn cross_cluster_route_is_ethernet() {
        let (topo, _, fabric) = hybrid();
        let r = fabric.route(&topo, Rank(0), Rank(16));
        assert_eq!(r.path.len(), 2);
        // 25 Gb/s × 0.85 ≈ 2.66 GB/s.
        assert!(r.rate_cap < 4e9);
        assert!(r.latency >= SimDuration::from_micros(10));
    }

    #[test]
    fn trunk_is_appended_to_cross_cluster_routes_only() {
        let topo = presets::hybrid_two_cluster(2);
        let mut sim = NetSim::new();
        let fabric = Fabric::build_with_trunk(&topo, &mut sim, 10e9);
        let cross = fabric.route(&topo, Rank(0), Rank(16));
        assert_eq!(cross.path.len(), 3);
        let within = fabric.route(&topo, Rank(0), Rank(8));
        assert_eq!(within.path.len(), 2);
    }

    #[test]
    fn flows_through_fabric_complete() {
        let (topo, mut sim, fabric) = hybrid();
        let spec = fabric.flow_spec(&topo, Rank(0), Rank(8), 23_000_000_000, 1);
        sim.start_flow(spec);
        let c = sim.next().unwrap();
        assert!(matches!(c, crate::sim::Completion::Flow { token: 1, .. }));
        // 23 GB at ~23 GB/s ≈ 1 s.
        let t = sim.now().as_secs_f64();
        assert!((t - 1.0).abs() < 0.01, "t = {t}");
    }

    #[test]
    fn node_uplink_contention_halves_rate() {
        let (topo, mut sim, fabric) = hybrid();
        // Two flows out of node 0 (ranks 0 and 1) to node 1: they share the
        // node-0 RDMA uplink... but the uplink aggregates 8 ports, so two
        // single-port flows do NOT contend. Verify no slowdown first.
        sim.start_flow(fabric.flow_spec(&topo, Rank(0), Rank(8), 2_300_000_000, 1));
        sim.start_flow(fabric.flow_spec(&topo, Rank(1), Rank(9), 2_300_000_000, 2));
        sim.next().unwrap();
        let t = sim.now().as_secs_f64();
        assert!(
            (t - 0.1).abs() < 0.01,
            "per-port flows should not contend: {t}"
        );
    }

    #[test]
    fn ethernet_preset_nodes_route_tcp() {
        let topo = presets::homogeneous(NicType::Ethernet, 2);
        let mut sim = NetSim::new();
        let fabric = Fabric::build(&topo, &mut sim);
        let r = fabric.route(&topo, Rank(0), Rank(8));
        assert_eq!(r.path.len(), 2);
        assert!(r.rate_cap < 4e9);
    }

    #[test]
    #[should_panic(expected = "no self-routes")]
    fn self_route_panics() {
        let (topo, _, fabric) = hybrid();
        fabric.route(&topo, Rank(0), Rank(0));
    }

    #[test]
    fn oversubscribed_switch_bottlenecks_many_flows() {
        use holmes_topology::TopologyBuilder;
        let run = |oversub: f64| {
            let topo = TopologyBuilder::new()
                .cluster("ib", 2, NicType::InfiniBand)
                .oversubscription(oversub)
                .build()
                .unwrap();
            let mut sim = NetSim::new();
            let fabric = Fabric::build(&topo, &mut sim);
            // Two concurrent inter-node flows, each one port's worth.
            sim.start_flow(fabric.flow_spec(&topo, Rank(0), Rank(8), 23_000_000_000, 1));
            sim.start_flow(fabric.flow_spec(&topo, Rank(1), Rank(9), 23_000_000_000, 2));
            while sim.next().is_some() {}
            sim.now().as_secs_f64()
        };
        let full = run(1.0);
        // 4:1 taper: switch bisection = 2 nodes × 2 ports × 23 GB/s ÷ 4 =
        // 23 GB/s shared by both flows.
        let tapered = run(4.0);
        assert!(
            tapered > 1.8 * full,
            "tapered {tapered} vs full-bisection {full}"
        );
    }

    #[test]
    fn forced_tcp_demotes_rdma_pairs() {
        let (topo, _, fabric) = hybrid();
        let rdma = fabric.route(&topo, Rank(0), Rank(8));
        let tcp = fabric.route_with(&topo, Rank(0), Rank(8), true);
        assert!(tcp.rate_cap < rdma.rate_cap / 5.0);
        // Intra-node stays on NVLink even when forced.
        let nv = fabric.route_with(&topo, Rank(0), Rank(1), true);
        assert!(nv.path.is_empty());
        assert!(nv.rate_cap > 100e9);
    }

    /// Every ordered rank pair on `topo`, both transports: a table hit
    /// equals the walked route bit for bit.
    fn assert_table_matches_routes(topo: &Topology, fabric: &Fabric) {
        let bits = |r: &Route| (r.path.clone(), r.rate_cap.to_bits(), r.latency);
        let mut table = fabric.route_table();
        for pass in 0..2 {
            for a in 0..topo.device_count() {
                for b in 0..topo.device_count() {
                    if a == b {
                        continue;
                    }
                    let (a, b) = (Rank(a), Rank(b));
                    let auto = table.route(fabric, topo, a, b, false);
                    assert_eq!(bits(auto), bits(&fabric.route(topo, a, b)), "pass {pass}");
                    let tcp = table.route(fabric, topo, a, b, true);
                    assert_eq!(
                        bits(tcp),
                        bits(&fabric.route_with(topo, a, b, true)),
                        "pass {pass}"
                    );
                }
            }
        }
        // One resolved route per (node pair, transport) at most.
        let nodes = fabric.node_count();
        assert!(table.routes.len() <= nodes * nodes * 2);
    }

    #[test]
    fn route_table_hits_equal_walked_routes() {
        use holmes_topology::TopologyBuilder;
        // Two clusters of unequal NICs.
        let split = presets::hybrid_split(2, 2);
        let mut sim = NetSim::new();
        let fabric = Fabric::build(&split, &mut sim);
        assert_table_matches_routes(&split, &fabric);
        // The same fleet behind a shared inter-cluster trunk.
        let mut sim = NetSim::new();
        let trunked = Fabric::build_with_trunk(&split, &mut sim, 10e9);
        assert_table_matches_routes(&split, &trunked);
        // An oversubscribed RDMA switch beside a non-blocking cluster.
        let tapered = TopologyBuilder::new()
            .cluster("ib", 2, NicType::InfiniBand)
            .oversubscription(4.0)
            .cluster("roce", 2, NicType::RoCE)
            .build()
            .unwrap();
        let mut sim = NetSim::new();
        let fabric = Fabric::build(&tapered, &mut sim);
        assert_table_matches_routes(&tapered, &fabric);
    }

    #[test]
    #[should_panic(expected = "no self-routes")]
    fn route_table_keeps_the_self_route_guard() {
        let (topo, _, fabric) = hybrid();
        let mut table = fabric.route_table();
        // Resolve node 0's intra-node route first, so a cached entry
        // exists under the key a self-route would hit.
        table.route(&fabric, &topo, Rank(0), Rank(1), false);
        table.route(&fabric, &topo, Rank(0), Rank(0), false);
    }

    #[test]
    fn fault_targets_expand_to_their_links() {
        let topo = presets::hybrid_two_cluster(2);
        let mut sim = NetSim::new();
        let fabric = Fabric::build(&topo, &mut sim);
        let (ru, rd, eu, ed) = fabric.node_link_ids(3);
        assert_eq!(fabric.links_of(FaultTarget::NodeRdma(3)), vec![ru, rd]);
        assert_eq!(fabric.links_of(FaultTarget::NodeEth(3)), vec![eu, ed]);
        assert!(fabric.links_of(FaultTarget::Trunk).is_empty());
        // The trunk is the third hop of every cross-cluster route.
        let trunked = Fabric::build_with_trunk(&topo, &mut sim, 10e9);
        let cross = trunked.route(&topo, Rank(0), Rank(16));
        assert_eq!(trunked.links_of(FaultTarget::Trunk), cross.path[2..]);
    }

    #[test]
    fn forced_tcp_cross_cluster_matches_auto() {
        let (topo, _, fabric) = hybrid();
        // Cross-cluster pairs were already TCP under auto routing.
        let auto = fabric.route(&topo, Rank(0), Rank(16));
        let forced = fabric.route_with(&topo, Rank(0), Rank(16), true);
        assert_eq!(auto.rate_cap, forced.rate_cap);
        assert_eq!(auto.path.len(), forced.path.len());
    }
}
