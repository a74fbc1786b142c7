//! A tiny textual topology specification, for CLIs and config files.
//!
//! Grammar (whitespace-free):
//!
//! ```text
//! spec     := cluster ( "+" cluster )*
//! cluster  := nic ":" nodes [ "x" gpus ]
//! nic      := "ib" | "infiniband" | "roce" | "eth" | "ethernet"
//! ```
//!
//! Examples: `ib:4`, `ib:4+roce:4`, `ib:2x4+roce:2x4+eth:1x8`.
//! Every cluster gets a high-speed switch; clusters are joined by the
//! reference inter-cluster Ethernet. All clusters must use the same
//! per-node GPU count (the §2.4 formalization requires a uniform `G`).

use crate::builder::TopologyBuilder;
use crate::cluster::Node;
use crate::nic::NicType;
use crate::topology::Topology;

/// Parse a topology spec string. See the module docs for the grammar.
///
/// ```
/// use holmes_topology::parse_topology_spec;
///
/// let topo = parse_topology_spec("ib:4+roce:4").unwrap();
/// assert_eq!(topo.cluster_count(), 2);
/// assert_eq!(topo.device_count(), 64);
/// ```
pub fn parse_topology_spec(spec: &str) -> Result<Topology, String> {
    if spec.trim().is_empty() {
        return Err("empty topology spec".to_owned());
    }
    let mut clusters = Vec::new();
    let mut gpus_per_node: Option<u32> = None;
    for part in spec.trim().split('+') {
        let (nic_str, rest) = part
            .split_once(':')
            .ok_or_else(|| format!("cluster '{part}': expected nic:nodes[xgpus]"))?;
        let nic = match nic_str.to_ascii_lowercase().as_str() {
            "ib" | "infiniband" => NicType::InfiniBand,
            "roce" => NicType::RoCE,
            "eth" | "ethernet" => NicType::Ethernet,
            other => return Err(format!("unknown NIC '{other}' (ib|roce|eth)")),
        };
        let (nodes_str, gpus_str) = match rest.split_once('x') {
            Some((n, g)) => (n, Some(g)),
            None => (rest, None),
        };
        let nodes: u32 = nodes_str
            .parse()
            .map_err(|e| format!("cluster '{part}': bad node count: {e}"))?;
        if nodes == 0 {
            return Err(format!("cluster '{part}': node count must be positive"));
        }
        if let Some(g) = gpus_str {
            let g: u32 = g
                .parse()
                .map_err(|e| format!("cluster '{part}': bad GPU count: {e}"))?;
            if g == 0 {
                return Err(format!("cluster '{part}': GPU count must be positive"));
            }
            match gpus_per_node {
                None => gpus_per_node = Some(g),
                Some(prev) if prev != g => {
                    return Err(format!(
                        "all clusters must share one per-node GPU count ({prev} vs {g})"
                    ))
                }
                Some(_) => {}
            }
        }
        clusters.push((nic, nodes));
    }
    // Bound the fleet before any node is allocated.
    let nodes: u64 = clusters.iter().map(|&(_, n)| u64::from(n)).sum();
    let g = gpus_per_node.unwrap_or(Node::STANDARD_GPUS);
    Topology::check_device_total(nodes.saturating_mul(u64::from(g))).map_err(|e| e.to_string())?;
    let mut builder = TopologyBuilder::new().gpus_per_node(g);
    for (i, (nic, nodes)) in clusters.into_iter().enumerate() {
        builder = builder.cluster(format!("{nic}-{i}"), nodes, nic);
    }
    builder.build().map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_cluster() {
        let topo = parse_topology_spec("ib:4").unwrap();
        assert_eq!(topo.cluster_count(), 1);
        assert_eq!(topo.node_count(), 4);
        assert_eq!(topo.device_count(), 32);
        assert!(topo.is_homogeneous());
    }

    #[test]
    fn multi_cluster_with_gpu_counts() {
        let topo = parse_topology_spec("ib:2x4+roce:2x4").unwrap();
        assert_eq!(topo.cluster_count(), 2);
        assert_eq!(topo.gpus_per_node(), 4);
        assert_eq!(topo.device_count(), 16);
        assert_eq!(
            topo.nic_types_present(),
            vec![NicType::InfiniBand, NicType::RoCE]
        );
    }

    #[test]
    fn aliases_and_case_insensitivity() {
        for spec in ["InfiniBand:1", "IB:1", "ib:1"] {
            assert_eq!(
                parse_topology_spec(spec).unwrap().nic_types_present(),
                vec![NicType::InfiniBand],
                "{spec}"
            );
        }
        assert_eq!(
            parse_topology_spec("ETHERNET:2")
                .unwrap()
                .nic_types_present(),
            vec![NicType::Ethernet]
        );
    }

    #[test]
    fn three_cluster_table4_spec() {
        let topo = parse_topology_spec("roce:4+ib:4+ib:4").unwrap();
        assert_eq!(topo.cluster_count(), 3);
        assert_eq!(topo.device_count(), 96);
    }

    #[test]
    fn malformed_specs_are_rejected_with_reasons() {
        for (spec, needle) in [
            ("", "empty"),
            ("ib", "expected nic"),
            ("token-ring:4", "unknown NIC"),
            ("ib:zero", "bad node count"),
            ("ib:0", "positive"),
            ("ib:2x0", "GPU count must be positive"),
            ("ib:2xfour", "bad GPU count"),
            ("ib:2x4+roce:2x8", "share one per-node GPU count"),
            ("ib:536870912", "more than the 1048576 supported"),
            ("ib:2x4294967295", "more than the 1048576 supported"),
            ("ib:131072+roce:1", "more than the 1048576 supported"),
            ("ib:4294967295x4294967295+ib:4294967295", "more than"),
        ] {
            let err = parse_topology_spec(spec).unwrap_err();
            assert!(err.contains(needle), "{spec}: {err}");
        }
    }

    #[test]
    fn mixed_explicit_and_default_gpus() {
        // Only one cluster pins the GPU count; it applies fleet-wide.
        let topo = parse_topology_spec("ib:1x2+roce:1").unwrap();
        assert_eq!(topo.gpus_per_node(), 2);
        assert_eq!(topo.device_count(), 4);
    }
}
