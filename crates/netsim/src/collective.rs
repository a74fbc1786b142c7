//! The uniform link a ring of ranks runs at ([`ring_link`]): its
//! slowest hop and largest hop latency. The planner's NIC selection, the
//! estimator and the cross-crate tests price a flat ring by folding its
//! [`crate::algo`] schedule over that link
//! ([`crate::algo::CollSchedule::seconds_uniform`]); no ring cost has a
//! closed form of its own.

use holmes_topology::{Rank, Topology, TopologyError};

/// The uniform link a ring over `devices` (in ring order) runs at: the
/// slowest hop's bandwidth in bytes/s and the largest hop latency in
/// seconds. With `tcp` set every inter-node hop is priced over the TCP
/// fallback ([`Topology::tcp_link_between`]) instead of the best link.
/// Hops sharing one fabric link are not slowed; the flow replay models
/// that. A group of at most one rank moves nothing: `(∞, 0)`.
///
/// # Errors
/// [`TopologyError::RankOutOfRange`] when a member is not in `topo`.
pub fn ring_link(
    topo: &Topology,
    devices: &[Rank],
    tcp: bool,
) -> Result<(f64, f64), TopologyError> {
    let mut bw = f64::INFINITY;
    let mut lat: f64 = 0.0;
    if devices.len() <= 1 {
        return Ok((bw, lat));
    }
    for (i, &a) in devices.iter().enumerate() {
        let b = devices[(i + 1) % devices.len()];
        let link = if tcp {
            topo.tcp_link_between(a, b)?
        } else {
            topo.link_between(a, b)?
        };
        bw = bw.min(link.bandwidth_bytes_per_sec);
        lat = lat.max(link.latency_ns as f64 * 1e-9);
    }
    Ok((bw, lat))
}

#[cfg(test)]
mod tests {
    use super::*;
    use holmes_topology::{presets, NicType};

    fn link_over(topo: &Topology, ranks: std::ops::Range<u32>) -> (f64, f64) {
        let devices: Vec<Rank> = ranks.map(Rank).collect();
        ring_link(topo, &devices, false).unwrap()
    }

    #[test]
    fn singleton_ring_is_free() {
        let topo = presets::homogeneous(NicType::InfiniBand, 2);
        assert_eq!(link_over(&topo, 3..4), (f64::INFINITY, 0.0));
        assert_eq!(ring_link(&topo, &[], true), Ok((f64::INFINITY, 0.0)));
    }

    #[test]
    fn node_local_ring_runs_at_nvlink_speed() {
        let topo = presets::homogeneous(NicType::InfiniBand, 2);
        assert!(link_over(&topo, 0..8).0 > 100e9);
    }

    #[test]
    fn two_node_ring_bound_by_nic() {
        // Ranks ordered node-contiguously: the two boundary hops (7→8,
        // 15→0) ride the per-port IB rate.
        let topo = presets::homogeneous(NicType::InfiniBand, 2);
        assert!((link_over(&topo, 0..16).0 - 23e9).abs() < 1e8);
    }

    #[test]
    fn ib_ring_beats_roce_ring_beats_ethernet_ring() {
        let seconds = |nic| {
            let (bw, lat) = link_over(&presets::homogeneous(nic, 2), 0..16);
            let devices: Vec<Rank> = (0..16).map(Rank).collect();
            crate::algo::ring_all_reduce(&devices, 1 << 30).seconds_uniform(bw, lat)
        };
        let (t_ib, t_roce, t_eth) = (
            seconds(NicType::InfiniBand),
            seconds(NicType::RoCE),
            seconds(NicType::Ethernet),
        );
        assert!(t_ib < t_roce, "IB {t_ib} vs RoCE {t_roce}");
        assert!(t_roce < t_eth, "RoCE {t_roce} vs Ethernet {t_eth}");
    }

    #[test]
    fn cross_cluster_ring_is_ethernet_bound() {
        // One node per cluster; a ring across both must use TCP.
        let topo = presets::hybrid_two_cluster(1);
        assert!(link_over(&topo, 0..16).0 < 4e9);
    }

    #[test]
    fn out_of_range_rank_is_an_error() {
        let topo = presets::homogeneous(NicType::InfiniBand, 2);
        let total = topo.device_count();
        assert_eq!(
            ring_link(&topo, &[Rank(0), Rank(total)], false),
            Err(TopologyError::RankOutOfRange { rank: total, total })
        );
    }
}
