//! Mutation tests for the artifact verifier: corrupt known-good schedules
//! and plans one invariant at a time and assert the verifier rejects each
//! corruption with the *specific* [`VerifyError`] variant — proving the
//! checks are neither vacuous nor cross-wired.

use holmes_analysis::progress::{
    check_progress_with_scenarios, check_scenario, FailKind, ProgressCollective, ProgressEvent,
    ProgressSpec, ProgressVerdict, RetryModel, ScenarioEvent, WaitNode,
};
use holmes_analysis::{
    verify_collective, verify_dp_groups, verify_hetero_partition, verify_migration,
    verify_moves_executable, verify_partition, verify_plan, verify_replan,
    verify_schedule_structure, verify_stage_memory, VerifyError,
};
use holmes_netsim::algo::{CollKind, CollSchedule, Round, Transfer};
use holmes_netsim::FaultTarget;
use holmes_parallel::{
    replan_for_delta, DeltaReplanOutcome, DpCollectiveAlgo, DpGroupNic, GroupLayout, GuidedPlanner,
    HolmesScheduler, MigrationCosts, ParallelDegrees, ParallelPlan, StageProfile, StateMove,
    StragglerAwarePartition, TopologyDelta,
};
use holmes_topology::{presets, NicProfile, NicType, Rank, Topology};

const V: u64 = 1 << 20;

fn topo() -> Topology {
    presets::homogeneous(NicType::InfiniBand, 2)
}

fn devices(n: u32) -> Vec<Rank> {
    (0..n).map(Rank).collect()
}

fn cluster_of(topo: &Topology) -> impl Fn(Rank) -> u32 + '_ {
    |r| topo.coord(r).map(|c| c.cluster.0).unwrap_or(0)
}

/// Rebuild a schedule with one mutation applied to its transfer matrix.
fn mutate(s: &CollSchedule, f: impl FnOnce(&mut Vec<Vec<Transfer>>)) -> CollSchedule {
    let mut rounds: Vec<Vec<Transfer>> = s.rounds().map(|r| r.transfers().to_vec()).collect();
    f(&mut rounds);
    CollSchedule::from_rounds(rounds.into_iter().map(Round::new).collect())
}

fn errors_of(kind: CollKind, schedule: &CollSchedule, devs: &[Rank]) -> Vec<VerifyError> {
    let topo = topo();
    verify_collective(&topo, kind, devs, V, schedule)
}

#[test]
fn pristine_schedules_pass_for_every_kind() {
    let topo = topo();
    let devs = devices(8);
    for kind in [
        CollKind::AllReduce,
        CollKind::TreeAllReduce,
        CollKind::ReduceScatter,
        CollKind::AllGather,
        CollKind::Broadcast,
        CollKind::HierarchicalAllReduce,
    ] {
        let s = kind.schedule(&devs, V, cluster_of(&topo));
        let errs = verify_collective(&topo, kind, &devs, V, &s);
        assert!(errs.is_empty(), "{kind:?}: {errs:?}");
    }
    // Hierarchical over a genuinely two-cluster group.
    let topo = presets::same_nic_two_clusters(NicType::InfiniBand, 2);
    let devs: Vec<Rank> = (0..32).map(Rank).collect();
    let s = CollKind::HierarchicalAllReduce.schedule(&devs, V, cluster_of(&topo));
    let errs = verify_collective(&topo, CollKind::HierarchicalAllReduce, &devs, V, &s);
    assert!(errs.is_empty(), "{errs:?}");
}

#[test]
fn dropped_transfer_detected() {
    let devs = devices(8);
    let good = CollKind::AllReduce.schedule(&devs, V, |_| 0);
    let bad = mutate(&good, |rounds| {
        rounds[0].remove(0);
    });
    let errs = errors_of(CollKind::AllReduce, &bad, &devs);
    let chunk = V / 8;
    let expected = good.total_bytes();
    assert!(
        errs.contains(&VerifyError::ByteCountMismatch {
            expected,
            actual: expected - chunk,
        }),
        "{errs:?}"
    );
    assert!(
        errs.contains(&VerifyError::ShapeMismatch { round: 0 }),
        "{errs:?}"
    );
}

#[test]
fn silenced_member_detected() {
    let devs = devices(8);
    let good = CollKind::AllReduce.schedule(&devs, V, |_| 0);
    // Remove *every* transfer rank 0 sends: its shard never circulates.
    let bad = mutate(&good, |rounds| {
        for r in rounds {
            r.retain(|t| t.from != Rank(0));
        }
    });
    let errs = errors_of(CollKind::AllReduce, &bad, &devs);
    assert!(
        errs.contains(&VerifyError::MemberNeverSends { rank: Rank(0) }),
        "{errs:?}"
    );
}

#[test]
fn fattened_byte_count_detected() {
    let devs = devices(8);
    let good = CollKind::ReduceScatter.schedule(&devs, V, |_| 0);
    let bad = mutate(&good, |rounds| {
        rounds[0][0].bytes += 7;
    });
    let errs = errors_of(CollKind::ReduceScatter, &bad, &devs);
    let expected = good.total_bytes();
    assert!(
        errs.contains(&VerifyError::ByteCountMismatch {
            expected,
            actual: expected + 7,
        }),
        "{errs:?}"
    );
    assert!(
        errs.contains(&VerifyError::ShapeMismatch { round: 0 }),
        "{errs:?}"
    );
}

#[test]
fn reroute_to_rank_outside_topology_detected() {
    let devs = devices(8);
    let good = CollKind::AllReduce.schedule(&devs, V, |_| 0);
    let bad = mutate(&good, |rounds| {
        rounds[0][0].to = Rank(9999);
    });
    let errs = errors_of(CollKind::AllReduce, &bad, &devs);
    assert!(
        errs.contains(&VerifyError::UnknownRank {
            round: 0,
            rank: Rank(9999),
        }),
        "{errs:?}"
    );
}

#[test]
fn reroute_to_non_member_detected() {
    let devs = devices(8);
    let good = CollKind::AllReduce.schedule(&devs, V, |_| 0);
    // Rank 12 exists in the 16-device topology but is not a group member.
    let bad = mutate(&good, |rounds| {
        rounds[0][0].to = Rank(12);
    });
    let errs = errors_of(CollKind::AllReduce, &bad, &devs);
    assert!(
        errs.contains(&VerifyError::ForeignRank {
            round: 0,
            rank: Rank(12),
        }),
        "{errs:?}"
    );
}

#[test]
fn self_transfer_detected() {
    let devs = devices(8);
    let good = CollKind::Broadcast.schedule(&devs, V, |_| 0);
    let bad = mutate(&good, |rounds| {
        let from = rounds[0][0].from;
        rounds[0][0].to = from;
    });
    let errs = errors_of(CollKind::Broadcast, &bad, &devs);
    assert!(
        errs.iter()
            .any(|e| matches!(e, VerifyError::SelfTransfer { round: 0, .. })),
        "{errs:?}"
    );
}

#[test]
fn empty_round_detected() {
    let devs = devices(8);
    let good = CollKind::AllGather.schedule(&devs, V, |_| 0);
    let bad = mutate(&good, |rounds| {
        rounds.insert(2, Vec::new());
    });
    let errs = errors_of(CollKind::AllGather, &bad, &devs);
    assert!(
        errs.contains(&VerifyError::EmptyRound { round: 2 }),
        "{errs:?}"
    );
    assert!(
        errs.iter()
            .any(|e| matches!(e, VerifyError::RoundCountMismatch { .. })),
        "{errs:?}"
    );
}

#[test]
fn dropped_round_detected() {
    let devs = devices(8);
    let good = CollKind::AllReduce.schedule(&devs, V, |_| 0);
    let bad = mutate(&good, |rounds| {
        rounds.pop();
    });
    let errs = errors_of(CollKind::AllReduce, &bad, &devs);
    assert!(
        errs.contains(&VerifyError::RoundCountMismatch {
            expected: 14,
            actual: 13,
        }),
        "{errs:?}"
    );
    assert!(
        errs.iter()
            .any(|e| matches!(e, VerifyError::ByteCountMismatch { .. })),
        "{errs:?}"
    );
}

#[test]
fn duplicate_member_detected() {
    let topo = topo();
    let mut devs = devices(8);
    devs.push(Rank(3));
    let s = CollKind::AllReduce.schedule(&devices(8), V, |_| 0);
    let errs = verify_schedule_structure(&topo, &devs, &s);
    assert!(
        errs.contains(&VerifyError::DuplicateMember { rank: Rank(3) }),
        "{errs:?}"
    );
}

#[test]
fn hierarchical_mutations_detected() {
    let topo = presets::same_nic_two_clusters(NicType::InfiniBand, 2);
    let devs: Vec<Rank> = (0..32).map(Rank).collect();
    let good = CollKind::HierarchicalAllReduce.schedule(&devs, V, cluster_of(&topo));
    // Fatten one inter-cluster exchange transfer: byte conservation and
    // the phase shape both break.
    let inter_round = good
        .rounds()
        .position(|r| {
            r.transfers()
                .iter()
                .any(|t| cluster_of(&topo)(t.from) != cluster_of(&topo)(t.to))
        })
        .expect("hierarchical schedule has an exchange phase");
    let bad = mutate(&good, |rounds| {
        rounds[inter_round][0].bytes *= 2;
    });
    let errs = verify_collective(&topo, CollKind::HierarchicalAllReduce, &devs, V, &bad);
    assert!(
        errs.iter()
            .any(|e| matches!(e, VerifyError::ByteCountMismatch { .. })),
        "{errs:?}"
    );
    assert!(
        errs.contains(&VerifyError::ShapeMismatch { round: inter_round }),
        "{errs:?}"
    );
}

#[test]
fn dp_group_split_across_nic_types_detected() {
    // Cluster 0 is InfiniBand, cluster 1 RoCE; a group claiming
    // end-to-end IB over members of both violates §3.2 twice: not
    // NIC-homogeneous, and spanning clusters without flagging.
    let topo = presets::hybrid_two_cluster(2);
    let roce_member = topo.cluster_ranks(holmes_topology::ClusterId(1))[0];
    let group = DpGroupNic {
        group: 0,
        devices: vec![Rank(0), roce_member],
        rdma_nic: Some(NicType::InfiniBand),
        algo: DpCollectiveAlgo::RingRdma,
        forced_tcp: false,
    };
    let errs = verify_dp_groups(&topo, &[group]);
    assert!(
        errs.contains(&VerifyError::DpGroupNotHomogeneous { group: 0 }),
        "{errs:?}"
    );
    assert!(
        errs.contains(&VerifyError::DpGroupSpansClustersUnflagged { group: 0 }),
        "{errs:?}"
    );
}

#[test]
fn flagged_spanning_and_fallback_groups_pass() {
    let topo = presets::hybrid_two_cluster(2);
    let roce_member = topo.cluster_ranks(holmes_topology::ClusterId(1))[0];
    // Spanning group properly classified as hierarchical: fine.
    let hierarchical = DpGroupNic {
        group: 0,
        devices: vec![Rank(0), roce_member],
        rdma_nic: None,
        algo: DpCollectiveAlgo::HierarchicalTwoLevel,
        forced_tcp: false,
    };
    // Spanning group downgraded to TCP by a replan: also fine.
    let forced = DpGroupNic {
        group: 1,
        devices: vec![Rank(1), roce_member],
        rdma_nic: None,
        algo: DpCollectiveAlgo::RingEthernet,
        forced_tcp: true,
    };
    let errs = verify_dp_groups(&topo, &[hierarchical, forced]);
    assert!(errs.is_empty(), "{errs:?}");
}

#[test]
fn rdma_ring_without_nic_claim_detected() {
    let topo = topo();
    let group = DpGroupNic {
        group: 2,
        devices: devices(4),
        rdma_nic: None,
        algo: DpCollectiveAlgo::RingRdma,
        forced_tcp: false,
    };
    let errs = verify_dp_groups(&topo, &[group]);
    assert_eq!(errs, vec![VerifyError::DpGroupNotHomogeneous { group: 2 }]);
}

#[test]
fn partition_mutations_detected() {
    // Pristine Eq. 2 partition: conserved, non-empty, monotone.
    assert!(verify_partition(30, Some(&[2.0, 1.0]), &[17, 13]).is_empty());
    // Lost a layer.
    assert_eq!(
        verify_partition(30, None, &[17, 12]),
        vec![VerifyError::LayerSumMismatch {
            expected: 30,
            actual: 29,
        }]
    );
    // Starved stage.
    assert_eq!(
        verify_partition(30, None, &[30, 0]),
        vec![VerifyError::EmptyStage { stage: 1 }]
    );
    // Faster stage got fewer layers: Eq. 2 monotonicity broken.
    assert_eq!(
        verify_partition(30, Some(&[2.0, 1.0]), &[10, 20]),
        vec![VerifyError::NonMonotoneStages { fast: 0, slow: 1 }]
    );
}

#[test]
fn hetero_partition_mutations_detected() {
    // Three generations with distinct per-layer rates and DP comm terms —
    // the straggler-aware greedy path, not the Eq. 2 delegation.
    let stages = [
        StageProfile {
            speed_tflops: 989.0,
            sec_per_layer: 2.0e-4,
            comm_seconds: 1e-2,
        },
        StageProfile {
            speed_tflops: 312.0,
            sec_per_layer: 6.5e-4,
            comm_seconds: 3e-2,
        },
        StageProfile {
            speed_tflops: 125.0,
            sec_per_layer: 1.6e-3,
            comm_seconds: 5e-3,
        },
    ];
    // Pristine greedy output: conserved and skew-locally-optimal.
    let good = StragglerAwarePartition::default().partition_stages(36, &stages);
    assert!(verify_hetero_partition(36, &stages, &good).is_empty());

    // Lost a layer under non-uniform rates.
    let mut bad = good.clone();
    bad[0] -= 1;
    let errs = verify_hetero_partition(36, &stages, &bad);
    assert!(
        errs.contains(&VerifyError::HeteroPartitionSumMismatch {
            expected: 36,
            actual: 35,
        }),
        "{errs:?}"
    );

    // Pile the layers onto the slowest stage: a unique bottleneck either
    // faster stage could relieve — skew-monotonicity broken both ways.
    let errs = verify_hetero_partition(36, &stages, &[1, 1, 34]);
    assert!(
        errs.contains(&VerifyError::BottleneckReducible {
            stage: 2,
            better: 0
        }),
        "{errs:?}"
    );
    assert!(
        errs.contains(&VerifyError::BottleneckReducible {
            stage: 2,
            better: 1
        }),
        "{errs:?}"
    );

    // Profile/assignment arity mismatch short-circuits.
    assert_eq!(
        verify_hetero_partition(36, &stages, &[18, 18]),
        vec![VerifyError::StageCountMismatch {
            expected: 3,
            actual: 2,
        }]
    );
}

#[test]
fn stage_memory_mutations_detected() {
    // Fits (equality allowed): no errors.
    assert!(verify_stage_memory(&[(10, 20), (5, 5)]).is_empty());
    // One stage needs more than its smallest member holds.
    assert_eq!(
        verify_stage_memory(&[(10, 20), (6, 5)]),
        vec![VerifyError::StageOverMemberCapacity {
            stage: 1,
            needed_bytes: 6,
            capacity_bytes: 5,
        }]
    );
}

fn valid_plan(topo: &Topology) -> ParallelPlan {
    let degrees = ParallelDegrees::infer_data(1, 2, topo.device_count()).unwrap();
    let layout = GroupLayout::new(degrees);
    let assignment = HolmesScheduler::assign(topo);
    ParallelPlan::new(layout, assignment, vec![17, 13], true)
}

#[test]
fn pristine_plan_passes() {
    let topo = presets::hybrid_two_cluster(2);
    let plan = valid_plan(&topo);
    let errs = verify_plan(&topo, &plan, 30, None);
    assert!(errs.is_empty(), "{errs:?}");
}

#[test]
fn plan_layer_mutations_detected() {
    let topo = presets::hybrid_two_cluster(2);
    let mut plan = valid_plan(&topo);
    plan.stage_layers = vec![17, 14];
    let errs = verify_plan(&topo, &plan, 30, None);
    assert!(
        errs.contains(&VerifyError::LayerSumMismatch {
            expected: 30,
            actual: 31,
        }),
        "{errs:?}"
    );

    let mut plan = valid_plan(&topo);
    plan.stage_layers = vec![10, 10, 10];
    let errs = verify_plan(&topo, &plan, 30, None);
    assert!(
        errs.contains(&VerifyError::StageCountMismatch {
            expected: 2,
            actual: 3,
        }),
        "{errs:?}"
    );
}

/// A real migration-aware re-plan: drop one node of the hybrid fleet, so
/// the data degree shrinks and surviving replicas re-shard over the
/// simulated fabric (non-empty, priced move set).
fn valid_replan(topo: &Topology) -> DeltaReplanOutcome {
    let plan = valid_plan(topo);
    let mut delta = TopologyDelta::new();
    delta.node_loss(1);
    replan_for_delta(
        topo,
        &plan,
        &delta,
        1 << 30,
        &GuidedPlanner,
        &MigrationCosts::new(1 << 30, 30.0),
    )
    .unwrap()
}

#[test]
fn pristine_replan_passes() {
    let topo = presets::hybrid_two_cluster(2);
    let outcome = valid_replan(&topo);
    assert!(!outcome.migration.moves.is_empty());
    let errs = verify_replan(&outcome);
    assert!(errs.is_empty(), "{errs:?}");
}

#[test]
fn migration_move_mutations_detected() {
    let topo = presets::hybrid_two_cluster(2);
    let outcome = valid_replan(&topo);

    // Source rank outside the post-churn topology.
    let mut bad = outcome.migration.clone();
    bad.moves[0].from = Rank(9999);
    let errs = verify_migration(&outcome.new_topology, &bad);
    assert!(
        errs.contains(&VerifyError::MigrationRankUnknown {
            index: 0,
            rank: Rank(9999),
        }),
        "{errs:?}"
    );

    // A move copying a shard onto itself.
    let mut bad = outcome.migration.clone();
    let from = bad.moves[0].from;
    bad.moves[0].to = from;
    let errs = verify_migration(&outcome.new_topology, &bad);
    assert!(
        errs.contains(&VerifyError::MigrationSelfMove {
            index: 0,
            rank: from,
        }),
        "{errs:?}"
    );

    // Two shards landing on the same destination.
    let mut bad = outcome.migration.clone();
    let dup = bad.moves[0].to;
    bad.moves.push(StateMove {
        from: bad.moves[0].from,
        to: dup,
        bytes: 1,
    });
    let errs = verify_migration(&outcome.new_topology, &bad);
    assert!(
        errs.contains(&VerifyError::MigrationDuplicateDestination { rank: dup }),
        "{errs:?}"
    );
}

#[test]
fn migration_pricing_mutations_detected() {
    let topo = presets::hybrid_two_cluster(2);
    let outcome = valid_replan(&topo);

    // Moves claiming to be free: the fabric pricing never ran.
    let mut bad = outcome.migration.clone();
    bad.transfer_seconds = 0.0;
    let errs = verify_migration(&outcome.new_topology, &bad);
    assert!(
        errs.contains(&VerifyError::MigrationUnpriced {
            moves: bad.moves.len(),
        }),
        "{errs:?}"
    );

    // A group flagged for checkpoint restore with no restore billed.
    let mut bad = outcome.migration.clone();
    bad.restored_groups.push(0);
    let errs = verify_migration(&outcome.new_topology, &bad);
    assert!(
        errs.contains(&VerifyError::MigrationRestoreMismatch {
            restored: 1,
            seconds: 0.0,
        }),
        "{errs:?}"
    );

    // Restore time billed with nothing restored.
    let mut bad = outcome.migration.clone();
    bad.restore_seconds = 45.0;
    let errs = verify_migration(&outcome.new_topology, &bad);
    assert!(
        errs.contains(&VerifyError::MigrationRestoreMismatch {
            restored: 0,
            seconds: 45.0,
        }),
        "{errs:?}"
    );
}

#[test]
fn replan_coverage_mutations_detected() {
    // Verify the whole-outcome wrapper catches a placement that no longer
    // covers the post-churn device set: shrink the topology under the
    // outcome so the assignment both overflows and points off the end.
    let topo = presets::hybrid_two_cluster(2);
    let mut outcome = valid_replan(&topo);
    let small = presets::homogeneous(NicType::InfiniBand, 1);
    outcome.new_topology = small;
    let errs = verify_replan(&outcome);
    assert!(
        errs.iter()
            .any(|e| matches!(e, VerifyError::AssignmentSizeMismatch { .. })),
        "{errs:?}"
    );
    assert!(
        errs.iter()
            .any(|e| matches!(e, VerifyError::DeviceOutOfRange { .. })),
        "{errs:?}"
    );
}

#[test]
fn plan_assignment_mutations_detected() {
    // A plan whose layout wants the whole hybrid topology but whose
    // assignment covers a bigger, partly nonexistent device range.
    let topo = presets::hybrid_two_cluster(2);
    let small = presets::homogeneous(NicType::InfiniBand, 2);
    let plan = valid_plan(&topo);
    let errs = verify_plan(&small, &plan, 30, None);
    assert!(
        errs.iter()
            .any(|e| matches!(e, VerifyError::DeviceOutOfRange { .. })),
        "{errs:?}"
    );
}

// ---------------------------------------------------------------------------
// Progress-checker mutations: one deliberate corruption per property the
// symbolic checker proves, each yielding its *specific* typed
// counterexample.
// ---------------------------------------------------------------------------

/// A well-formed single-collective progress spec over the homogeneous
/// 2-node preset, with the default (bounded) retry model armed.
fn progress_spec(kind: CollKind) -> ProgressSpec {
    let topo = topo();
    let devs = devices(topo.device_count());
    ProgressSpec {
        collectives: vec![ProgressCollective::from_kind(&topo, kind, devs, V)],
        retry: Some(RetryModel::default()),
        has_trunk: false,
        extra_wait_edges: Vec::new(),
    }
}

#[test]
fn injected_wait_cycle_detected() {
    let topo = topo();
    let mut spec = progress_spec(CollKind::AllReduce);
    // Round 1 naturally waits on round 0; injecting the reverse edge
    // closes a cycle in the wait-for graph.
    spec.extra_wait_edges.push((
        WaitNode::Round { coll: 0, round: 0 },
        WaitNode::Round { coll: 0, round: 1 },
    ));
    let report = check_progress_with_scenarios(&topo, &spec, &[]);
    assert!(
        report.counterexamples.iter().any(|ce| matches!(
            ce.error,
            VerifyError::ProgressWaitCycle { collective: 0, .. }
        )),
        "{:?}",
        report.counterexamples
    );
}

#[test]
fn unbounded_retry_detected_as_livelock() {
    let topo = topo();
    let mut spec = progress_spec(CollKind::AllReduce);
    // Corruption: fuel bound removed. With both of node 0's NICs dead
    // there is no live route, so the retry loop never terminates.
    spec.retry = Some(RetryModel {
        max_retries: None,
        ..RetryModel::default()
    });
    let scenario = [
        ScenarioEvent {
            boundary: 0,
            event: ProgressEvent::LinkDown {
                link: FaultTarget::NodeRdma(0),
            },
        },
        ScenarioEvent {
            boundary: 0,
            event: ProgressEvent::LinkDown {
                link: FaultTarget::NodeEth(0),
            },
        },
    ];
    let (verdict, counterexamples) = check_scenario(&topo, &spec, &scenario);
    assert_eq!(verdict, ProgressVerdict::FailsFast(FailKind::Livelock));
    assert!(
        counterexamples.iter().any(|ce| matches!(
            ce.error,
            VerifyError::ProgressUnboundedRetry { collective: 0, .. }
        )),
        "{counterexamples:?}"
    );
}

#[test]
fn false_member_loss_claim_detected() {
    let topo = topo();
    let mut spec = progress_spec(CollKind::AllReduce);
    // Corruption: a ring all-reduce claiming to survive member loss. The
    // symbolic contribution-set run refutes the claim: a lost member's
    // shard never reaches the survivors.
    spec.collectives[0].claims_member_loss_tolerance = true;
    let report = check_progress_with_scenarios(&topo, &spec, &[]);
    assert!(
        report.counterexamples.iter().any(|ce| matches!(
            ce.error,
            VerifyError::MemberLossClaimMismatch {
                collective: 0,
                claimed: true,
                derived: false,
            }
        )),
        "{:?}",
        report.counterexamples
    );
}

#[test]
fn unexecutable_state_move_detected() {
    // A two-cluster fabric whose inter-cluster Ethernet has zero
    // bandwidth: any cross-cluster shard copy can never execute.
    let dead_eth = NicProfile {
        nic_type: NicType::Ethernet,
        bandwidth_gbps: 0.0,
        latency_us: 10.0,
        efficiency: 1.0,
        ports_per_node: 1,
        compute_interference: 1.0,
    };
    let topo = holmes_topology::TopologyBuilder::new()
        .cluster("a", 1, NicType::InfiniBand)
        .cluster("b", 1, NicType::InfiniBand)
        .inter_cluster_ethernet(dead_eth)
        .build()
        .expect("two-cluster build");
    let to = topo.cluster_ranks(holmes_topology::ClusterId(1))[0];
    let migration = holmes_parallel::MigrationPlan {
        moves: vec![StateMove {
            from: Rank(0),
            to,
            bytes: 1 << 20,
        }],
        restored_groups: Vec::new(),
        transfer_seconds: 1.0,
        restore_seconds: 0.0,
    };
    let errs = verify_moves_executable(&topo, &migration);
    assert_eq!(
        errs,
        vec![VerifyError::StateMoveUnroutable {
            index: 0,
            from: Rank(0),
            to,
        }]
    );
}

#[test]
fn parked_flows_without_retry_detected_as_stall() {
    let topo = topo();
    let mut spec = progress_spec(CollKind::AllReduce);
    // Corruption: retry machinery disarmed entirely. A dead RDMA link
    // parks its flows forever — the round barrier hangs.
    spec.retry = None;
    let scenario = [ScenarioEvent {
        boundary: 0,
        event: ProgressEvent::LinkDown {
            link: FaultTarget::NodeRdma(0),
        },
    }];
    let (verdict, counterexamples) = check_scenario(&topo, &spec, &scenario);
    assert_eq!(verdict, ProgressVerdict::FailsFast(FailKind::Stalled));
    assert!(
        counterexamples
            .iter()
            .any(|ce| matches!(ce.error, VerifyError::ProgressStall { collective: 0, .. })),
        "{counterexamples:?}"
    );
}
