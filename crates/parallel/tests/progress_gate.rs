//! Progress gate over planner outputs: every DP-group collective a plan
//! selects, and every churn re-plan the delta machinery produces, must
//! pass the symbolic progress checker — not just the structural
//! verifier.

#![allow(
    clippy::unwrap_used,
    reason = "test code: exact comparisons and unwrapped fixtures"
)]

use holmes_analysis::progress::{
    check_progress, EventSpace, ProgressCollective, ProgressSpec, RetryModel,
};
use holmes_analysis::{verify_plan, verify_replan_progress};
use holmes_netsim::algo::CollKind;
use holmes_parallel::{
    replan_for_delta, DpCollectiveAlgo, GroupLayout, GuidedPlanner, HolmesScheduler,
    MigrationCosts, ParallelDegrees, ParallelPlan, TopologyDelta,
};
use holmes_topology::{presets, Topology};

const GRAD: u64 = 1 << 30;

fn plan_on(topo: &Topology, t: u32, p: u32) -> ParallelPlan {
    let layout = GroupLayout::new(ParallelDegrees::infer_data(t, p, topo.device_count()).unwrap());
    let assignment = HolmesScheduler::assign(topo);
    let per_stage = vec![4u32; p as usize];
    ParallelPlan::new(layout, assignment, per_stage, true)
}

/// The collective kind a DP group's gradient sync expands to.
fn kind_of(algo: DpCollectiveAlgo) -> CollKind {
    match algo {
        DpCollectiveAlgo::RingRdma | DpCollectiveAlgo::RingEthernet => CollKind::AllReduce,
        DpCollectiveAlgo::HierarchicalTwoLevel => CollKind::HierarchicalAllReduce,
    }
}

/// Build a progress spec covering every DP group of a plan, with the
/// default retry model armed.
fn progress_spec_for(topo: &Topology, plan: &ParallelPlan) -> ProgressSpec {
    let report = plan.nic_report(topo);
    let collectives = report
        .groups
        .iter()
        .filter(|g| g.devices.len() > 1)
        .map(|g| ProgressCollective::from_kind(topo, kind_of(g.algo), g.devices.clone(), GRAD))
        .collect();
    ProgressSpec {
        collectives,
        retry: Some(RetryModel::default()),
        has_trunk: topo.cluster_count() > 1,
        extra_wait_edges: Vec::new(),
    }
}

#[test]
fn planner_outputs_survive_the_event_space() {
    let topologies = [
        presets::hybrid_two_cluster(2),
        presets::table4_2r_2ib_2ib(),
        presets::hybrid_split(2, 2),
    ];
    for topo in &topologies {
        let plan = plan_on(topo, 1, 2);
        assert!(verify_plan(topo, &plan, 8, None).is_empty());
        let spec = progress_spec_for(topo, &plan);
        let report = check_progress(topo, &spec, EventSpace::quick());
        assert!(
            report.is_clean(),
            "planner output fails progress check: {:?}",
            report.counterexamples
        );
        assert!(report.scenarios > 0);
    }
}

#[test]
fn guided_planner_fleet_output_survives_singles() {
    let topo = presets::synthetic_fleet(8, 2);
    let plan = plan_on(&topo, 1, 2);
    let spec = progress_spec_for(&topo, &plan);
    // Singles-only with a cap: the fleet's event alphabet is large and
    // the sampled sweep reports what it skipped.
    let report = check_progress(
        &topo,
        &spec,
        EventSpace {
            pairwise: false,
            max_scenarios: Some(128),
        },
    );
    assert!(
        report.is_clean(),
        "fleet plan fails progress check: {:?}",
        report.counterexamples
    );
}

#[test]
fn churn_replans_are_reachable_on_the_post_churn_fabric() {
    let topologies = [
        presets::hybrid_two_cluster(2),
        presets::table4_2r_2ib_2ib(),
        presets::same_nic_two_clusters(holmes_topology::NicType::InfiniBand, 2),
    ];
    for topo in &topologies {
        let plan = plan_on(topo, 1, 2);
        for event in ["loss", "join", "both"] {
            let mut delta = TopologyDelta::new();
            if event != "join" {
                delta.node_loss(1);
            }
            if event != "loss" {
                delta.node_join(0);
            }
            let costs = MigrationCosts::new(1 << 26, 30.0);
            let outcome = replan_for_delta(topo, &plan, &delta, GRAD, &GuidedPlanner, &costs)
                .expect("replan succeeds");
            let defects = verify_replan_progress(&outcome);
            assert!(
                defects.is_empty(),
                "{event} replan fails progress verification: {defects:?}"
            );
        }
    }
}
