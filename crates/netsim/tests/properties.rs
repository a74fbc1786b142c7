//! Property-based tests of the fluid-flow simulator: fairness, work
//! conservation, monotonicity and determinism under randomized workloads.

#![allow(
    clippy::expect_used,
    reason = "test code: exact comparisons and unwrapped fixtures"
)]

use proptest::prelude::*;

use holmes_netsim::algo::{self, CollSchedule};
use holmes_netsim::{
    Completion, FlowSpec, LinkCapacity, LinkHealth, LinkId, NetSim, SimDuration, SimTime,
};
use holmes_topology::{presets, ClusterId, NicType, Rank, Topology, TopologyBuilder};

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
