//! Ring pricing on a uniform link: the bottleneck link of a ring
//! ([`ring_link`]) and the closed-form ring costs over it.
//!
//! Each formula here is the algebraic result of folding the corresponding
//! [`crate::algo`] ring schedule over a **uniform** link model
//! ([`crate::algo::CollSchedule::seconds_uniform`]): every round costs
//! `latency + chunk/bandwidth` (its transfers move concurrently and carry
//! equal chunks), and rounds serialize. For the standard bandwidth-optimal
//! ring algorithms (Patarasuk & Yuan, the paper's \[26\], and the
//! Ring-AllReduce the paper describes in §3.2) that fold collapses to:
//!
//! * **reduce-scatter** — `n−1` rounds of `V/n`: `(n−1)·(lat + V/(n·bw))`;
//! * **all-gather** — identical round structure;
//! * **all-reduce** — reduce-scatter followed by all-gather.
//!
//! The closed forms divide the volume in ℝ while the IR truncates chunks
//! to whole bytes and sums rounds one by one, so the two differ in the
//! last bits; the planner, the estimator and the compute model price with
//! the closed forms, and `tests/properties.rs` bounds their distance from
//! the fold and from a flow-level replay. Every other algorithm (tree,
//! broadcast, hierarchical, parameter server) is priced only by folding
//! its [`crate::algo`] schedule.

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

/// Ring reduce-scatter over `n` ranks of a `bytes`-sized buffer.
pub fn reduce_scatter_seconds(
    n: u32,
    bytes: u64,
    bandwidth_bytes_per_sec: f64,
    latency_s: f64,
) -> f64 {
    if n <= 1 {
        return 0.0;
    }
    let steps = f64::from(n - 1);
    let chunk = bytes as f64 / f64::from(n);
    steps * (latency_s + chunk / bandwidth_bytes_per_sec)
}

/// Ring all-gather over `n` ranks of a `bytes`-sized buffer.
pub fn all_gather_seconds(n: u32, bytes: u64, bandwidth_bytes_per_sec: f64, latency_s: f64) -> f64 {
    // Identical step structure to reduce-scatter.
    reduce_scatter_seconds(n, bytes, bandwidth_bytes_per_sec, latency_s)
}

/// Ring all-reduce = reduce-scatter + all-gather.
pub fn ring_allreduce_seconds(
    n: u32,
    bytes: u64,
    bandwidth_bytes_per_sec: f64,
    latency_s: f64,
) -> f64 {
    reduce_scatter_seconds(n, bytes, bandwidth_bytes_per_sec, latency_s)
        + all_gather_seconds(n, bytes, bandwidth_bytes_per_sec, latency_s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use holmes_topology::{presets, NicType};

    const GB: u64 = 1_000_000_000;
    const BW: f64 = 1e9; // 1 GB/s
    const LAT: f64 = 1e-5;

    #[test]
    fn single_rank_collectives_are_free() {
        assert_eq!(ring_allreduce_seconds(1, GB, BW, LAT), 0.0);
        assert_eq!(reduce_scatter_seconds(1, GB, BW, LAT), 0.0);
        assert_eq!(all_gather_seconds(0, GB, BW, LAT), 0.0);
    }

    #[test]
    fn allreduce_equals_rs_plus_ag() {
        let ar = ring_allreduce_seconds(8, GB, BW, LAT);
        let rs = reduce_scatter_seconds(8, GB, BW, LAT);
        let ag = all_gather_seconds(8, GB, BW, LAT);
        assert!((ar - (rs + ag)).abs() < 1e-12);
    }

    #[test]
    fn allreduce_traffic_approaches_2v_for_large_n() {
        // At zero latency, all-reduce time → 2·V·(n−1)/n ÷ BW.
        let t = ring_allreduce_seconds(1000, GB, BW, 0.0);
        let ideal = 2.0 * (GB as f64) * 999.0 / 1000.0 / BW;
        assert!((t - ideal).abs() < 1e-9);
        assert!(t < 2.0 * GB as f64 / BW);
    }

    #[test]
    fn cost_is_monotone_in_volume() {
        let a = ring_allreduce_seconds(8, GB, BW, LAT);
        let b = ring_allreduce_seconds(8, 2 * GB, BW, LAT);
        assert!(b > a);
    }

    #[test]
    fn cost_is_monotone_in_latency_and_inverse_in_bandwidth() {
        let base = ring_allreduce_seconds(8, GB, BW, LAT);
        assert!(ring_allreduce_seconds(8, GB, BW, 10.0 * LAT) > base);
        assert!(ring_allreduce_seconds(8, GB, 2.0 * BW, LAT) < base);
    }

    #[test]
    fn latency_term_scales_with_ring_size() {
        // With a zero-byte payload, cost is purely (n−1)·latency per phase.
        let t = ring_allreduce_seconds(5, 0, BW, LAT);
        assert!((t - 2.0 * 4.0 * LAT).abs() < 1e-12);
    }

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
            ring_allreduce_seconds(16, 1 << 30, bw, lat)
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
