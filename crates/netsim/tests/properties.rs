//! Property-based tests of the fluid-flow simulator: fairness, work
//! conservation, monotonicity and determinism under randomized workloads.

#![allow(
    clippy::expect_used,
    reason = "test code: exact comparisons and unwrapped fixtures"
)]

use proptest::prelude::*;

use holmes_netsim::algo::{self, CollKind, CollSchedule, Round, Transfer};
use holmes_netsim::{
    Completion, FlowSpec, LinkCapacity, LinkHealth, LinkId, NetSim, SimDuration, SimTime,
};
use holmes_topology::{
    presets, Cluster, ClusterId, NicProfile, NicType, Node, Rank, Topology, TopologyBuilder,
};

/// Drain a simulator, returning (completion order tokens, final time).
fn drain(sim: &mut NetSim) -> (Vec<u64>, f64) {
    let mut tokens = Vec::new();
    while let Some(c) = sim.next() {
        if let Completion::Flow { token, .. } = c {
            tokens.push(token);
        }
    }
    (tokens, sim.now().as_secs_f64())
}

/// Drain a simulator into a byte-exact textual event log: every completion
/// (flows, timers, faults) stamped with the exact integer-nanosecond clock.
fn drain_log(sim: &mut NetSim) -> String {
    let mut log = String::new();
    while let Some(c) = sim.next() {
        log.push_str(&format!("{:?} @ {}ns\n", c, sim.now().0));
    }
    log
}

/// Multi-cluster fabrics for the hierarchical-fold property: the
/// heterogeneous fleets the planner scores, plus a fabric whose RDMA
/// switches are oversubscribed (so the per-cluster switch counters bite)
/// and which ends in a single-node cluster.
fn fold_topologies() -> Vec<Topology> {
    vec![
        presets::fleet_hetero(5, 2),
        presets::synthetic_fleet(6, 2),
        presets::hybrid_two_cluster(2),
        TopologyBuilder::new()
            .cluster("ib-4x", 3, NicType::InfiniBand)
            .oversubscription(4.0)
            .cluster("roce-2x", 2, NicType::RoCE)
            .oversubscription(2.0)
            .cluster("ib-solo", 1, NicType::InfiniBand)
            .build()
            .expect("valid oversubscribed fabric"),
    ]
}

/// The per-transfer topology fold: every transfer of a round resolves its
/// own link profile and contention counters, and the round costs its
/// slowest transfer; rounds are expanded and summed in order from `0.0`.
/// The production [`algo::estimate_on_topology`] prices node-pair groups
/// instead and must agree bit for bit.
fn estimate_per_transfer(topo: &Topology, schedule: &CollSchedule) -> f64 {
    let gpus_per_node = topo.gpus_per_node().max(1);
    let slot = |r: Rank, rdma: bool| 2 * (r.0 / gpus_per_node) as usize + usize::from(rdma);
    let coord = |r: Rank| {
        topo.coord(r)
            .expect("schedule ranks belong to the topology")
    };
    let mut total = 0.0f64;
    for round in schedule.rounds() {
        let mut src = vec![0u32; 2 * topo.device_count().div_ceil(gpus_per_node) as usize];
        let mut dst = src.clone();
        let mut switch_flows = vec![0u32; topo.cluster_count() as usize];
        for t in round.transfers() {
            let profile = topo.link_between(t.from, t.to).expect("ranks in topology");
            if profile.kind.is_intra_node() {
                continue;
            }
            let rdma = profile.kind.is_rdma();
            src[slot(t.from, rdma)] += 1;
            dst[slot(t.to, rdma)] += 1;
            if rdma {
                switch_flows[coord(t.from).cluster.0 as usize] += 1;
            }
        }
        let mut round_s = 0.0f64;
        for t in round.transfers() {
            let profile = topo.link_between(t.from, t.to).expect("ranks in topology");
            let lat = profile.latency_ns as f64 * 1e-9;
            let mut bw = profile.bandwidth_bytes_per_sec;
            if !profile.kind.is_intra_node() {
                let rdma = profile.kind.is_rdma();
                let (ca, cb) = (coord(t.from), coord(t.to));
                let na = &topo.clusters()[ca.cluster.0 as usize].nodes[ca.node.0 as usize];
                let nb = &topo.clusters()[cb.cluster.0 as usize].nodes[cb.node.0 as usize];
                let (up, down) = if rdma {
                    (
                        na.nic.node_uplink_bytes_per_sec(),
                        nb.nic.node_uplink_bytes_per_sec(),
                    )
                } else {
                    (
                        na.ethernet.node_uplink_bytes_per_sec(),
                        nb.ethernet.node_uplink_bytes_per_sec(),
                    )
                };
                let s = f64::from(src[slot(t.from, rdma)]);
                let d = f64::from(dst[slot(t.to, rdma)]);
                bw = bw.min(up / s).min(down / d);
                if rdma {
                    let cluster = &topo.clusters()[ca.cluster.0 as usize];
                    if cluster.oversubscription > 1.0 {
                        let flows = f64::from(switch_flows[ca.cluster.0 as usize]);
                        bw = bw.min(cluster.switch_bisection_bytes_per_sec() / flows);
                    }
                }
            }
            round_s = round_s.max(lat + t.bytes as f64 / bw);
        }
        total += round_s;
    }
    total
}

/// A small deterministic generator (splitmix64) for shapes drawn from
/// one proptest seed.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the remainder is at most `hi - lo`"
    )]
    fn pick(&mut self, lo: u32, hi: u32) -> u32 {
        lo + (self.next() % u64::from(hi - lo + 1)) as u32
    }

    /// A uniform index into `len > 0` items.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the remainder is below `len`"
    )]
    fn index(&mut self, len: usize) -> usize {
        (self.next() % len as u64) as usize
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.index(i + 1));
        }
    }
}

/// A random fabric: 1-4 clusters of 1-4 nodes, 1-8 GPUs per node, NICs
/// mixed node by node (types, port counts, a slower Ethernet here and
/// there), some clusters switchless, some switches oversubscribed.
fn random_topology(draw: &mut Draw) -> Topology {
    let mut builder = TopologyBuilder::new();
    for c in 0..draw.pick(1, 4) {
        let nodes = (0..draw.pick(1, 4))
            .map(|_| {
                let mut nic = NicProfile::reference(
                    [NicType::InfiniBand, NicType::RoCE, NicType::Ethernet][draw.index(3)],
                );
                nic.ports_per_node = draw.pick(1, 4);
                let mut node = Node::standard(nic);
                if draw.pick(0, 3) == 0 {
                    node.ethernet.bandwidth_gbps = 10.0;
                }
                node
            })
            .collect();
        builder = builder.custom_cluster(Cluster {
            name: format!("c{c}"),
            nodes,
            has_switch: draw.pick(0, 3) != 0,
            oversubscription: [1.0, 1.0, 2.0, 4.0][draw.index(4)],
        });
    }
    builder
        .gpus_per_node(draw.pick(1, 8))
        .build()
        .expect("random fabric is valid")
}

proptest! {
    /// The planner-facing hierarchical estimate, which prices each run of
    /// the schedule once, is bit-identical to folding the expanded
    /// schedule round by round (every round a run of one) — over random
    /// member subsets and orders: unequal per-cluster counts, singleton
    /// clusters, one cluster, and 0 or 1 members.
    #[test]
    fn hierarchical_estimate_is_bit_identical_to_the_schedule_fold(
        topo_ix in 0usize..4,
        one_cluster in 0u32..4,
        picks in prop::collection::vec(0u32..1_000_000, 0..48),
        bytes in 0u64..(1 << 34),
    ) {
        let topo = &fold_topologies()[topo_ix];
        let cluster_of = |r: Rank| topo.coord(r).expect("rank in topology").cluster.0;
        // Candidate ranks: the whole fabric, or (one time in four) a
        // single cluster. Picks index them; first-seen order is kept.
        let pool: Vec<Rank> = if one_cluster == 0 {
            let c = picks.first().map_or(0, |p| p % topo.cluster_count());
            topo.cluster_ranks(ClusterId(c))
        } else {
            (0..topo.device_count()).map(Rank).collect()
        };
        let mut devices: Vec<Rank> = Vec::new();
        for p in &picks {
            let r = pool[*p as usize % pool.len()];
            if !devices.contains(&r) {
                devices.push(r);
            }
        }
        // The degenerate 0- and 1-member prefixes ride along every case.
        let kind = algo::CollKind::HierarchicalAllReduce;
        for len in [0, devices.len().min(1), devices.len()] {
            let members = &devices[..len];
            let direct = algo::estimate_collective(topo, kind, members, bytes);
            let expanded = kind.schedule(members, bytes, cluster_of).rounds().cloned().collect();
            let folded = algo::estimate_on_topology(topo, &CollSchedule::from_rounds(expanded));
            prop_assert_eq!(direct.to_bits(), folded.to_bits());
        }
    }

    /// Pricing a round per (source node, destination node, bytes) group is
    /// bit-equal to pricing every transfer: random fabrics, every
    /// collective kind over member lists that interleave nodes (uneven
    /// hierarchical groups included), and hand-built rounds whose equal
    /// node pairs sit far apart.
    #[test]
    fn node_pair_fold_equals_per_transfer_fold(seed in 0u64..u64::MAX) {
        let mut draw = Draw(seed);
        let topo = random_topology(&mut draw);
        let all: Vec<Rank> = (0..topo.device_count()).map(Rank).collect();
        let cluster_of = |r: Rank| topo.coord(r).expect("rank in topology").cluster.0;
        let bytes_pool = [0, 1, 4096, 1 << 20, 3 << 27, draw.next() % (1 << 34)];
        let mut schedules = Vec::new();
        for kind in [
            CollKind::AllReduce,
            CollKind::TreeAllReduce,
            CollKind::ReduceScatter,
            CollKind::AllGather,
            CollKind::Broadcast,
            CollKind::HierarchicalAllReduce,
            CollKind::PsPush { servers: draw.pick(1, 5) },
            CollKind::PsPull { servers: draw.pick(1, 5) },
        ] {
            let mut members = all.clone();
            draw.shuffle(&mut members);
            members.truncate(draw.pick(0, topo.device_count()) as usize);
            let bytes = bytes_pool[draw.index(bytes_pool.len())];
            schedules.push(kind.schedule(&members, bytes, cluster_of));
        }
        // Explicit rounds: a few node pairs and sizes repeated at random
        // positions, so equal groups are rarely adjacent.
        let rounds = (0..draw.pick(1, 4))
            .map(|_| {
                let pairs: Vec<(Rank, Rank, u64)> = (0..draw.pick(1, 6))
                    .map(|_| {
                        let from = all[draw.index(all.len())];
                        let to = all[draw.index(all.len())];
                        (from, to, bytes_pool[draw.index(bytes_pool.len())])
                    })
                    .collect();
                let gpus = topo.gpus_per_node();
                let transfers = (0..draw.pick(1, 40))
                    .map(|_| {
                        let (from, to, bytes) = pairs[draw.index(pairs.len())];
                        // Another GPU of the same node keeps the node pair.
                        let mut sibling = |r: Rank| Rank(r.0 - r.0 % gpus + draw.pick(0, gpus - 1));
                        Transfer { from: sibling(from), to: sibling(to), bytes }
                    })
                    .collect();
                Round::new(transfers)
            })
            .collect();
        schedules.push(CollSchedule::from_rounds(rounds));
        for schedule in &schedules {
            prop_assert_eq!(
                algo::estimate_on_topology(&topo, schedule).to_bits(),
                estimate_per_transfer(&topo, schedule).to_bits()
            );
        }
    }

    /// Work conservation: N flows on one link drain in exactly
    /// `total_bytes / capacity` (zero latency, no caps) — the fluid model
    /// never wastes capacity while work remains.
    #[test]
    fn shared_link_is_work_conserving(
        sizes in prop::collection::vec(1_000_000u64..1_000_000_000, 1..20),
    ) {
        let capacity = 1e9;
        let mut sim = NetSim::new();
        let link = sim.add_link(LinkCapacity::new(capacity));
        for (token, &bytes) in sizes.iter().enumerate() {
            sim.start_flow(FlowSpec {
                path: vec![link],
                bytes,
                latency: SimDuration::ZERO,
                rate_cap: f64::INFINITY,
                token: token as u64,
                count: 1,
            });
        }
        let total: u64 = sizes.iter().sum();
        let (_, finish) = drain(&mut sim);
        let ideal = total as f64 / capacity;
        prop_assert!(
            (finish - ideal).abs() / ideal < 1e-3,
            "finish {finish} vs ideal {ideal}"
        );
    }

    /// Fairness: equal flows arriving together finish together.
    #[test]
    fn equal_flows_finish_together(n in 2usize..16, bytes in 1_000_000u64..100_000_000) {
        let mut sim = NetSim::new();
        let link = sim.add_link(LinkCapacity::new(2e9));
        for token in 0..n as u64 {
            sim.start_flow(FlowSpec {
                path: vec![link],
                bytes,
                latency: SimDuration::ZERO,
                rate_cap: f64::INFINITY,
                token,
                count: 1,
            });
        }
        let mut finish_times = Vec::new();
        while let Some(c) = sim.next() {
            if matches!(c, Completion::Flow { .. }) {
                finish_times.push(sim.now().as_secs_f64());
            }
        }
        prop_assert_eq!(finish_times.len(), n);
        let first = finish_times[0];
        prop_assert!(finish_times.iter().all(|&t| (t - first).abs() < 1e-6));
    }

    /// Monotonicity: adding background load never makes a probe flow
    /// finish earlier.
    #[test]
    fn extra_load_never_speeds_a_flow(
        probe_bytes in 10_000_000u64..500_000_000,
        bg in prop::collection::vec(1_000_000u64..500_000_000, 0..10),
    ) {
        let run = |with_bg: bool| {
            let mut sim = NetSim::new();
            let link = sim.add_link(LinkCapacity::new(1e9));
            sim.start_flow(FlowSpec {
                path: vec![link],
                bytes: probe_bytes,
                latency: SimDuration::ZERO,
                rate_cap: f64::INFINITY,
                token: 999,
                count: 1,
            });
            if with_bg {
                for (i, &bytes) in bg.iter().enumerate() {
                    sim.start_flow(FlowSpec {
                        path: vec![link],
                        bytes,
                        latency: SimDuration::ZERO,
                        rate_cap: f64::INFINITY,
                        token: i as u64,
                        count: 1,
                    });
                }
            }
            loop {
                match sim.next() {
                    Some(Completion::Flow { token: 999, .. }) => {
                        return sim.now().as_secs_f64()
                    }
                    Some(_) => continue,
                    None => unreachable!("probe must complete"),
                }
            }
        };
        let alone = run(false);
        let contended = run(true);
        prop_assert!(contended >= alone - 1e-9, "{contended} vs {alone}");
    }

    /// Determinism under arbitrary workloads: identical inputs give
    /// identical completion orders and times.
    #[test]
    fn random_workloads_are_deterministic(
        spec in prop::collection::vec(
            (1_000u64..50_000_000, 0u64..1_000, 0usize..4, 0usize..4),
            1..25,
        ),
    ) {
        let run = || {
            let mut sim = NetSim::new();
            let links: Vec<_> = (0..4)
                .map(|i| sim.add_link(LinkCapacity::new(1e9 * (i + 1) as f64)))
                .collect();
            for (token, &(bytes, lat_us, a, b)) in spec.iter().enumerate() {
                let mut path = vec![links[a]];
                if b != a {
                    path.push(links[b]);
                }
                sim.start_flow(FlowSpec {
                    path,
                    bytes,
                    latency: SimDuration::from_micros(lat_us),
                    rate_cap: 25e9,
                    token: token as u64,
                    count: 1,
                });
            }
            let (order, finish) = drain(&mut sim);
            (order, finish)
        };
        prop_assert_eq!(run(), run());
    }

    /// Rate caps bind: a capped flow can never beat `bytes / cap` even on
    /// an idle fabric, and never loses more than the fair share predicts.
    #[test]
    fn rate_cap_bounds_hold(bytes in 1_000_000u64..1_000_000_000, cap_gbps in 1u32..100) {
        let cap = f64::from(cap_gbps) * 1e9 / 8.0;
        let mut sim = NetSim::new();
        let link = sim.add_link(LinkCapacity::new(1e12)); // effectively infinite
        sim.start_flow(FlowSpec {
            path: vec![link],
            bytes,
            latency: SimDuration::ZERO,
            rate_cap: cap,
            token: 0,
            count: 1,
        });
        let (_, finish) = drain(&mut sim);
        let ideal = bytes as f64 / cap;
        prop_assert!((finish - ideal).abs() / ideal < 1e-3, "{finish} vs {ideal}");
    }

    /// Single source of truth: for every algorithm in the IR, the uniform
    /// fold of its round schedule (the only analytic cost any layer uses)
    /// equals a flow-level replay on an uncontended fabric.
    #[test]
    fn fold_equals_simulation(
        n in 2u32..33,
        mb in 1u64..512,
        lat_us in 0u64..100,
    ) {
        let bytes = mb << 20;
        let bw = 1e9;
        let lat_s = lat_us as f64 * 1e-6;
        let devices: Vec<Rank> = (0..n).map(Rank).collect();
        // The hierarchical all-reduce runs over a two-way split.
        let split = (n / 2).max(1) as usize;
        let cases: Vec<CollSchedule> = vec![
            algo::ring_reduce_scatter(&devices, bytes),
            algo::ring_all_gather(&devices, bytes),
            algo::ring_all_reduce(&devices, bytes),
            algo::tree_all_reduce(&devices, bytes),
            algo::ring_broadcast(&devices, bytes),
            algo::hierarchical_all_reduce(
                &[devices[..split].to_vec(), devices[split..].to_vec()],
                bytes,
            ),
        ];
        for schedule in cases {
            let fold = schedule.seconds_uniform(bw, lat_s);
            // Flow-level replay on an uncontended fabric: every transfer
            // rides its own capped pathless flow; rounds are barriers.
            let mut sim = NetSim::new();
            let mut token = 0u64;
            for round in schedule.rounds() {
                for t in round.transfers() {
                    sim.start_flow(FlowSpec {
                        path: vec![],
                        bytes: t.bytes,
                        latency: SimDuration::from_micros(lat_us),
                        rate_cap: bw,
                        token,
                        count: 1,
                    });
                    token += 1;
                }
                while sim.next().is_some() {}
            }
            let simulated = sim.now().as_secs_f64();
            prop_assert!(
                (simulated - fold).abs() < 1e-4 * fold.max(1e-9),
                "simulated {simulated} vs fold {fold}"
            );
        }
    }

    /// Fault determinism: identical outage lists must reproduce the event
    /// log byte-for-byte, including fault arrivals and the exact
    /// integer-nanosecond timestamps of every completion. Each of three
    /// links draws one to 30 outages, as (healthy gap, outage length)
    /// pairs laid back to back and cut at a 5 s horizon: as dense as a
    /// flap process with 0.1-5 s mean up-time and 50 ms mean outages.
    #[test]
    fn identical_fault_schedules_replay_byte_identical_logs(
        outages in prop::collection::vec(
            prop::collection::vec((1u64..300_000_000, 1u64..100_000_000), 1..31),
            3,
        ),
        spec in prop::collection::vec(
            (1_000u64..50_000_000, 0u64..1_000, 0usize..3),
            1..20,
        ),
    ) {
        const HORIZON_NS: u64 = 5_000_000_000;
        // (link, down instant, up instant), link by link.
        let mut schedule = Vec::new();
        for (l, draws) in outages.iter().enumerate() {
            let mut t = 0;
            for &(gap, len) in draws {
                t += gap;
                if t >= HORIZON_NS {
                    break;
                }
                schedule.push((l, t, (t + len).min(HORIZON_NS)));
                t += len;
            }
        }
        let run = || {
            let mut sim = NetSim::new();
            let links: Vec<LinkId> = (0..3)
                .map(|i| sim.add_link(LinkCapacity::new(1e9 * (i + 1) as f64)))
                .collect();
            for &(l, down, up) in &schedule {
                sim.schedule_fault_at(SimTime(down), links[l], LinkHealth::Down);
                sim.schedule_fault_at(SimTime(up), links[l], LinkHealth::Healthy);
            }
            for (token, &(bytes, lat_us, l)) in spec.iter().enumerate() {
                sim.start_flow(FlowSpec {
                    path: vec![links[l]],
                    bytes,
                    latency: SimDuration::from_micros(lat_us),
                    rate_cap: f64::INFINITY,
                    token: token as u64,
                    count: 1,
                });
            }
            drain_log(&mut sim)
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.as_bytes(), b.as_bytes());
    }

    /// A benign fault is a no-op: `Healthy` transitions on already
    /// healthy links exercise the fault arm without changing any
    /// effective capacity, so completion *order* must match the
    /// fault-free run exactly. (Timestamps may drift by ±1 ns because a
    /// fault arrival forces an extra settle point, splitting the float
    /// integration interval.)
    #[test]
    fn empty_fault_schedule_matches_no_fault_path(
        spec in prop::collection::vec(
            (1_000u64..50_000_000, 0u64..1_000, 0usize..3, 0usize..3),
            1..20,
        ),
    ) {
        let run = |restores: &[(u64, usize)]| {
            let mut sim = NetSim::new();
            let links: Vec<LinkId> = (0..3)
                .map(|i| sim.add_link(LinkCapacity::new(1e9 * (i + 1) as f64)))
                .collect();
            for &(at, l) in restores {
                sim.schedule_fault_at(SimTime(at), links[l], LinkHealth::Healthy);
            }
            for (token, &(bytes, lat_us, a, b)) in spec.iter().enumerate() {
                let mut path = vec![links[a]];
                if b != a {
                    path.push(links[b]);
                }
                sim.start_flow(FlowSpec {
                    path,
                    bytes,
                    latency: SimDuration::from_micros(lat_us),
                    rate_cap: 25e9,
                    token: token as u64,
                    count: 1,
                });
            }
            let mut order = Vec::new();
            while let Some(c) = sim.next() {
                if !matches!(c, Completion::Fault { .. }) {
                    order.push(format!("{c:?}")); // arrivals themselves are expected
                }
            }
            order
        };
        prop_assert_eq!(run(&[]), run(&[(1_000, 0), (2_000_000, 2)]));
    }

    /// Ring costs scale linearly in volume at zero latency, up to the
    /// fold's whole-byte chunks: doubling the volume adds at most one byte
    /// per round beyond twice the cost.
    #[test]
    fn collective_costs_scale_linearly(
        n in 2u32..64,
        bytes in 1_000_000u64..1_000_000_000,
    ) {
        let devices: Vec<Rank> = (0..n).map(Rank).collect();
        let bw = 1e9;
        let one = algo::ring_all_reduce(&devices, bytes).seconds_uniform(bw, 0.0);
        let two = algo::ring_all_reduce(&devices, 2 * bytes).seconds_uniform(bw, 0.0);
        let byte_per_round = f64::from(2 * (n - 1)) / bw;
        // Summation rounding on top of the truncation.
        let slack = 1e-12 * two;
        prop_assert!(
            two >= 2.0 * one - slack && two <= 2.0 * one + byte_per_round + slack,
            "one {one} two {two}"
        );
    }
}
