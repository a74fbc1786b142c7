//! Differential harness for the symbolic progress checker.
//!
//! Tentpole acceptance: the checker's verdict must agree with the
//! concrete seeded simulation on ≥ 256 random (topology, collective,
//! fault-schedule) scenarios. The abstract domain cannot see wall-clock
//! time, so a concrete event firing at time `t` is compared against the
//! *set* of abstract verdicts obtained by sweeping the same event across
//! round boundaries: the concrete outcome's class must be a member of
//! that set, and a clean abstract sweep must imply a clean concrete run.

use holmes::progress::{plan_events, progress_spec};
use holmes_analysis::progress::{check_scenario, FailKind, ProgressVerdict, ScenarioEvent};
use holmes_engine::{
    execute, execute_with_faults, CollKind, CollectiveSpec, ExecError, ExecutionSpec, FaultPlan,
    FaultTarget, IterationReport, Op, TransportPolicy,
};
use holmes_netsim::{LinkHealth, SimTime};
use holmes_topology::{presets, NicType, Rank, Topology};
use proptest::TestRng;

/// The outcome classes both worlds are projected onto. The abstract
/// side cannot distinguish "completes" from "completes degraded" any
/// more precisely than the concrete report does, so both collapse to
/// [`Outcome::Completes`]; every fail-fast verdict keeps its identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Outcome {
    Completes,
    NodeLost,
    NodeDraining,
    RetryExhausted,
    Stalled,
}

fn abstract_outcome(verdict: &ProgressVerdict) -> Outcome {
    match verdict {
        ProgressVerdict::Completes | ProgressVerdict::CompletesDegraded => Outcome::Completes,
        ProgressVerdict::FailsFast(FailKind::NodeLost(_)) => Outcome::NodeLost,
        ProgressVerdict::FailsFast(FailKind::NodeDraining(_)) => Outcome::NodeDraining,
        ProgressVerdict::FailsFast(FailKind::RetryExhausted { .. }) => Outcome::RetryExhausted,
        ProgressVerdict::FailsFast(FailKind::Stalled | FailKind::Livelock) => Outcome::Stalled,
    }
}

fn concrete_outcome(result: &Result<IterationReport, ExecError>) -> Outcome {
    match result {
        Ok(_) => Outcome::Completes,
        Err(ExecError::NodeLost { .. }) => Outcome::NodeLost,
        Err(ExecError::NodeDraining { .. }) => Outcome::NodeDraining,
        Err(ExecError::Unrecoverable { .. }) => Outcome::RetryExhausted,
        Err(ExecError::Degraded { .. }) => Outcome::Stalled,
        Err(other) => panic!("harness generated a structurally broken spec: {other}"),
    }
}

fn topo_for(rng: &mut TestRng) -> (&'static str, Topology) {
    match rng.range_u64(0, 5) {
        0 => (
            "homogeneous_ib_2",
            presets::homogeneous(NicType::InfiniBand, 2),
        ),
        1 => ("hybrid_two_cluster_2", presets::hybrid_two_cluster(2)),
        2 => ("table4_2r_2ib_2ib", presets::table4_2r_2ib_2ib()),
        3 => ("hybrid_split_2_2", presets::hybrid_split(2, 2)),
        _ => (
            "same_nic_roce_2",
            presets::same_nic_two_clusters(NicType::RoCE, 2),
        ),
    }
}

fn kind_for(rng: &mut TestRng) -> CollKind {
    match rng.range_u64(0, 6) {
        0 => CollKind::AllReduce,
        1 => CollKind::TreeAllReduce,
        2 => CollKind::ReduceScatter,
        3 => CollKind::AllGather,
        4 => CollKind::Broadcast,
        _ => CollKind::HierarchicalAllReduce,
    }
}

/// A bare collective spec: every device arrives immediately and blocks
/// on completion, so the whole run *is* the collective and a mid-run
/// event time is guaranteed to land inside it.
fn spec_for(topo: &Topology, kind: CollKind, bytes: u64) -> ExecutionSpec {
    let devices: Vec<Rank> = (0..topo.device_count()).map(Rank).collect();
    let programs = devices
        .iter()
        .map(|&d| (d, vec![Op::CollStart { id: 0 }, Op::CollWait { id: 0 }]))
        .collect();
    ExecutionSpec {
        programs,
        collectives: vec![CollectiveSpec {
            kind,
            devices,
            bytes,
            channels: 1,
        }],
        transport: TransportPolicy::default(),
    }
}

/// Push one random fault/churn event at a random mid-run time.
fn push_event(rng: &mut TestRng, plan: &mut FaultPlan, topo: &Topology, clean_ns: u64) {
    let frac = 0.05 + 0.55 * rng.unit_f64();
    let at = SimTime((frac * clean_ns as f64) as u64);
    let node = rng.range_u64(0, u64::from(topo.node_count())) as u32;
    let multi_cluster = topo.cluster_count() > 1;
    match rng.range_u64(0, if multi_cluster { 8 } else { 6 }) {
        0 => {
            plan.kill_nic(at, node);
        }
        1 => {
            plan.push(at, FaultTarget::NodeEth(node), LinkHealth::Down);
        }
        2 => {
            plan.push(
                at,
                FaultTarget::NodeRdma(node),
                LinkHealth::Degraded { fraction: 0.25 },
            );
        }
        3 => {
            plan.preempt_node(at, node);
        }
        4 => {
            plan.drain_node(at, node);
        }
        5 => {
            plan.join_node(at, node);
        }
        6 => {
            plan.trunk_bytes_per_sec = Some(12.5e9);
            plan.push(
                at,
                FaultTarget::Trunk,
                LinkHealth::Degraded { fraction: 0.25 },
            );
        }
        _ => {
            plan.trunk_bytes_per_sec = Some(12.5e9);
            plan.push(at, FaultTarget::Trunk, LinkHealth::Down);
        }
    }
}

/// The abstract verdict classes reachable by this plan's events across
/// a sweep of round boundaries (all boundaries for single-event plans,
/// the {first, middle, last} cross-product for pairs). Also asserts
/// the checker reports no progress *violations* on the way: these specs
/// are all well-formed, so a counterexample is a checker bug.
fn abstract_outcomes(topo: &Topology, spec: &ExecutionSpec, plan: &FaultPlan) -> Vec<Outcome> {
    let pspec = progress_spec(topo, spec, Some(plan));
    let rounds = pspec
        .collectives
        .iter()
        .map(|c| c.schedule.round_count())
        .max()
        .unwrap_or(0)
        .max(1);
    let events = plan_events(plan);
    let scenarios: Vec<Vec<ScenarioEvent>> = if events.len() == 1 {
        (0..rounds)
            .map(|boundary| {
                vec![ScenarioEvent {
                    boundary,
                    event: events[0],
                }]
            })
            .collect()
    } else {
        let samples = [0, rounds / 2, rounds - 1];
        let mut combos = Vec::new();
        for &b1 in &samples {
            for &b2 in &samples {
                combos.push(vec![
                    ScenarioEvent {
                        boundary: b1,
                        event: events[0],
                    },
                    ScenarioEvent {
                        boundary: b2,
                        event: events[1],
                    },
                ]);
            }
        }
        combos
    };
    let mut outcomes = Vec::new();
    for scenario in &scenarios {
        let (verdict, counterexamples) = check_scenario(topo, &pspec, scenario);
        assert!(
            counterexamples.is_empty(),
            "checker flagged a violation on a well-formed spec under {scenario:?}: \
             {counterexamples:?}"
        );
        outcomes.push(abstract_outcome(&verdict));
    }
    outcomes.sort_unstable();
    outcomes.dedup();
    outcomes
}

/// ≥ 256 random scenarios: concrete simulation vs symbolic sweep.
#[test]
fn symbolic_verdict_agrees_with_concrete_simulation() {
    const CASES: u64 = 300;
    let mut completes = 0u32;
    let mut fails = 0u32;
    for case in 0..CASES {
        let mut rng = TestRng::seed_from_u64(0xD1FF_0000 + case);
        let (topo_name, topo) = topo_for(&mut rng);
        let kind = kind_for(&mut rng);
        let bytes = 1u64 << rng.range_u64(19, 23);
        let spec = spec_for(&topo, kind, bytes);

        // Clean run fixes the wall-clock scale for mid-run event times.
        let clean = execute(&topo, spec.clone()).expect("clean run completes");
        let clean_ns = (clean.total_seconds * 1e9) as u64;
        assert!(clean_ns > 0, "case {case}: clean run took no time");

        let mut plan = FaultPlan::default();
        let event_count = 1 + rng.range_u64(0, 2);
        for _ in 0..event_count {
            push_event(&mut rng, &mut plan, &topo, clean_ns);
        }

        let allowed = abstract_outcomes(&topo, &spec, &plan);
        let result = execute_with_faults(&topo, spec, &plan);
        let concrete = concrete_outcome(&result);
        assert!(
            allowed.contains(&concrete),
            "case {case} ({topo_name}, {kind:?}, {bytes} B): concrete outcome {concrete:?} \
             not predicted by the symbolic sweep {allowed:?}\nplan: {plan:?}"
        );

        // Checker says "completes" in every phase ⇔ the simulated run
        // completes: when the sweep admits only Completes, the concrete
        // run must too (the converse membership check ran above).
        if allowed == [Outcome::Completes] {
            assert!(
                result.is_ok(),
                "case {case} ({topo_name}, {kind:?}): symbolic sweep proves completion but \
                 the simulation failed: {:?}\nplan: {plan:?}",
                result.err()
            );
        }
        match concrete {
            Outcome::Completes => completes += 1,
            _ => fails += 1,
        }
    }
    const { assert!(CASES >= 256) };
    // Both sides of the agreement must actually be exercised: some runs
    // complete (possibly degraded), some fail fast.
    assert!(completes > 0, "no scenario completed");
    assert!(fails > 0, "no scenario failed fast");
}
