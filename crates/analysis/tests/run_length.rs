//! Run-length collective schedules. A `CollSchedule` stores its rounds as
//! `(round, repeat)` runs, and every fold prices a run's round once and
//! adds that cost `repeat` times. For every algorithm this must be bit
//! for bit the fold over the expanded rounds, and the runs' round count
//! and byte total must be the verifier's closed-form totals.

use holmes_analysis::expected_totals;
use holmes_netsim::algo::{estimate_on_topology, partition_by_cluster, CollKind, CollSchedule};
use holmes_topology::{presets, NicType, Rank, Topology};
use proptest::prelude::*;

/// Every collective kind, the parameter-server ones with `servers`.
fn kinds(servers: u32) -> [CollKind; 8] {
    [
        CollKind::AllReduce,
        CollKind::TreeAllReduce,
        CollKind::ReduceScatter,
        CollKind::AllGather,
        CollKind::Broadcast,
        CollKind::HierarchicalAllReduce,
        CollKind::PsPush { servers },
        CollKind::PsPull { servers },
    ]
}

/// Multi-cluster fabrics, so hierarchical groups split by cluster.
fn topologies() -> [Topology; 2] {
    [presets::table4_2r_2r_2ib(), presets::fleet_hetero(5, 1)]
}

/// The uniform fold written out round by round over the expanded
/// schedule: each round costs its slowest transfer, rounds add up in
/// order.
fn uniform_by_round(schedule: &CollSchedule, bw: f64, lat: f64) -> f64 {
    let mut total = 0.0f64;
    for round in schedule.rounds() {
        total += round
            .transfers()
            .iter()
            .map(|t| lat + t.bytes as f64 / bw)
            .fold(0.0, f64::max);
    }
    total
}

/// Check `kind` over `devices` moving `bytes` against the expanded fold
/// and the verifier's totals.
fn check(
    topo: &Topology,
    kind: CollKind,
    devices: &[Rank],
    bytes: u64,
    bw: f64,
    lat: f64,
) -> Result<(), TestCaseError> {
    let cluster_of = |r: Rank| topo.coord(r).expect("member inside the topology").cluster.0;
    let schedule = kind.schedule(devices, bytes, cluster_of);
    prop_assert_eq!(
        schedule.seconds_uniform(bw, lat).to_bits(),
        uniform_by_round(&schedule, bw, lat).to_bits(),
        "{:?} uniform fold over {} members",
        kind,
        devices.len()
    );
    let expanded = CollSchedule::from_rounds(schedule.rounds().cloned().collect());
    prop_assert_eq!(
        estimate_on_topology(topo, &schedule).to_bits(),
        estimate_on_topology(topo, &expanded).to_bits(),
        "{:?} topology fold over {} members",
        kind,
        devices.len()
    );
    let group_sizes: Vec<u64> = if kind == CollKind::HierarchicalAllReduce {
        partition_by_cluster(devices, cluster_of)
            .iter()
            .map(|g| g.len() as u64)
            .collect()
    } else {
        vec![devices.len() as u64]
    };
    let (want_bytes, want_rounds) = expected_totals(kind, &group_sizes, bytes);
    prop_assert_eq!(schedule.total_bytes(), want_bytes, "{:?} bytes", kind);
    prop_assert_eq!(schedule.round_count(), want_rounds, "{:?} rounds", kind);
    prop_assert_eq!(schedule.rounds().count(), want_rounds as usize);
    Ok(())
}

proptest! {
    /// Random members (first-seen order over the whole fabric, so
    /// hierarchical groups split unequally and include singleton
    /// clusters), volumes, links and kinds.
    #[test]
    fn runs_fold_like_their_expanded_rounds(
        topo_ix in 0usize..2,
        kind_ix in 0usize..8,
        servers in 1u32..6,
        picks in prop::collection::vec(0u32..1_000_000, 0..48),
        bytes in 0u64..(1 << 36),
        bw in prop::sample::select(vec![1.25e9, 3e9, 23e9, 1e9 / 3.0]),
        lat_us in 0u64..100,
    ) {
        let topo = &topologies()[topo_ix];
        let mut devices: Vec<Rank> = Vec::new();
        for p in picks {
            let r = Rank(p % topo.device_count());
            if !devices.contains(&r) {
                devices.push(r);
            }
        }
        let kind = kinds(servers)[kind_ix];
        check(topo, kind, &devices, bytes, bw, lat_us as f64 * 1e-6)?;
    }
}

/// A volume that does not divide by the member count: the 20-member
/// ring of 7,451,480,064 bytes, over one cluster and split across two.
#[test]
fn indivisible_volume_folds_like_its_expanded_rounds() {
    let bytes = 7_451_480_064;
    assert_ne!(bytes % 20, 0);
    // Ranks 0..20 of three 8-GPU nodes, and ranks 6..26 of 16-GPU
    // clusters: ten members in each of the first two.
    let one_cluster = (presets::homogeneous(NicType::RoCE, 3), 0..20);
    let two_clusters = (presets::table4_2r_2r_2ib(), 6..26);
    for (topo, ranks) in [one_cluster, two_clusters] {
        let devices: Vec<Rank> = ranks.map(Rank).collect();
        for kind in kinds(3) {
            check(&topo, kind, &devices, bytes, 23e9, 5e-6).expect("runs fold like rounds");
        }
    }
}
