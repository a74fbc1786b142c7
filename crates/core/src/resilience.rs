//! Resilience experiment family: run a full planned iteration under a
//! deterministic fault preset and report how the stack degrades and
//! recovers.
//!
//! Each preset compares two executions of the *same* plan on the *same*
//! fabric: a clean baseline and a faulted run. The faulted run exercises
//! the whole recovery path — netsim link-health transitions, the engine's
//! timeout/retry/backoff machinery, TCP fallback on NIC loss, and (when a
//! NIC is actually lost) the parallel layer's
//! [`replan`](holmes_parallel::NicSelectionReport::replan) downgrade pass
//! over a NIC-loss-only [`TopologyDelta`]. Everything is deterministic in
//! `(topology, parameter group, preset, seed)`: the same seed reproduces
//! the same fault times and therefore a byte-identical
//! [`ResilienceReport::event_log`].

use holmes_engine::{
    simulate_iteration, DegradedCondition, DpSyncStrategy, EngineConfig, ExecError, FaultPlan,
    FaultWindow, IterationReport, TrainingMetrics,
};
use holmes_model::CommVolumes;
use holmes_netsim::{ChurnKind, LinkHealth, SimDuration, SimTime};
use holmes_obs::{Layer, ObsSession};
use holmes_parallel::{
    replan_for_delta, DeltaReplanOutcome, GuidedPlanner, MigrationCosts, ParallelPlan,
    PlacementWorkload, ReplanOutcome, TopologyDelta,
};
use holmes_topology::{Rank, Topology};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::config::HolmesConfig;
use crate::planner::{plan_for, PlanRequest};
use crate::reliability::{ChurnImpact, ElasticDecision, ElasticPolicy, ReliabilityModel};
use crate::runner::RunError;

/// A named fault scenario, placed relative to the clean iteration length
/// so the fault always lands mid-iteration regardless of workload.
///
/// Marked `#[non_exhaustive]`: the scenario catalogue grows (this PR
/// alone added three churn presets), so downstream matches must carry a
/// wildcard arm; iterate [`FaultPreset::ALL`] and key on
/// [`FaultPreset::name`] instead of matching exhaustively.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultPreset {
    /// No faults: the baseline the other presets are measured against.
    Clean,
    /// The inter-cluster trunk repeatedly degrades to a small fraction
    /// of nominal capacity and recovers (a flapping long-haul link).
    /// The run completes without retries — the timeline just stretches.
    FlakyTrunk,
    /// Node 0 loses its RDMA NIC mid-iteration and never gets it back:
    /// parked flows time out, fall back to TCP over Ethernet, and the
    /// DP groups touching the node are downgraded by the re-planning
    /// pass (paper §3.2 fallback, applied at runtime).
    DyingNic,
    /// Two nodes are preempted mid-iteration (a spot-market reclaim
    /// wave). Ring-based DP sync cannot complete without them — the run
    /// aborts and pays a checkpoint restart; the parameter-server
    /// strategy continues degraded on the survivors. This preset is the
    /// PS-vs-all-reduce crossover probe.
    PreemptStorm,
    /// A fresh node announces itself mid-iteration. The running
    /// iteration is unaffected (the newcomer holds no state); the
    /// membership event triggers the migration-aware re-plan that folds
    /// the node in for the next iteration.
    ScaleUpMidrun,
    /// Every GPU on one node runs 2–3× slow (thermal throttling, a bad
    /// HBM stack). Nothing fails; the collectives simply wait.
    StragglerNode,
}

impl FaultPreset {
    /// All presets, in the order the bench reports them.
    pub const ALL: [FaultPreset; 6] = [
        FaultPreset::Clean,
        FaultPreset::FlakyTrunk,
        FaultPreset::DyingNic,
        FaultPreset::PreemptStorm,
        FaultPreset::ScaleUpMidrun,
        FaultPreset::StragglerNode,
    ];

    /// Stable name used in logs and BENCH JSON.
    pub fn name(self) -> &'static str {
        match self {
            FaultPreset::Clean => "clean",
            FaultPreset::FlakyTrunk => "flaky_trunk",
            FaultPreset::DyingNic => "dying_nic",
            FaultPreset::PreemptStorm => "preempt_storm",
            FaultPreset::ScaleUpMidrun => "scale_up_midrun",
            FaultPreset::StragglerNode => "straggler_node",
        }
    }

    /// Trunk faults need a trunk link to act on; both the clean and the
    /// faulted run of a preset share the fabric shape.
    fn needs_trunk(self) -> bool {
        matches!(self, FaultPreset::FlakyTrunk)
    }

    /// Build the fault plan, with fault times seeded and placed relative
    /// to the measured clean iteration length.
    fn build_plan(
        self,
        seed: u64,
        clean_seconds: f64,
        trunk: Option<f64>,
        topo: &Topology,
    ) -> FaultPlan {
        let mut plan = FaultPlan::none();
        plan.trunk_bytes_per_sec = trunk;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut uniform = |lo: f64, hi: f64| {
            let u: f64 = rng.random();
            lo + (hi - lo) * u
        };
        let at = |secs: f64| SimTime::ZERO + SimDuration::from_secs_f64(secs);
        match self {
            FaultPreset::Clean => {}
            FaultPreset::FlakyTrunk => {
                // Three flaps to 10% capacity, each covering ~15% of the
                // clean iteration, jittered by the seed.
                for flap in 0..3u32 {
                    let base = (0.1 + 0.3 * f64::from(flap)) * clean_seconds;
                    let start = base + uniform(0.0, 0.05) * clean_seconds;
                    let len = uniform(0.10, 0.15) * clean_seconds;
                    plan.degrade_trunk(at(start), at(start + len), 0.1);
                }
            }
            FaultPreset::DyingNic => {
                let start = uniform(0.1, 0.4) * clean_seconds;
                plan.kill_nic(at(start), 0);
            }
            FaultPreset::PreemptStorm => {
                // The reclaim wave takes the last node of each cluster,
                // a beat apart — the job keeps at least one node per
                // cluster, so the survivors still form a valid fleet.
                let mut node = 0u32;
                for (i, cluster) in topo.clusters().iter().enumerate() {
                    node += cluster.nodes.len() as u32;
                    if cluster.nodes.len() < 2 {
                        continue;
                    }
                    let start =
                        (0.2 + 0.2 * i as f64) * clean_seconds + uniform(0.0, 0.1) * clean_seconds;
                    plan.preempt_node(at(start), node - 1);
                }
            }
            FaultPreset::ScaleUpMidrun => {
                // The joiner gets the first out-of-fabric node index: a
                // pure membership signal to the running iteration.
                let start = uniform(0.3, 0.6) * clean_seconds;
                plan.join_node(at(start), topo.node_count());
            }
            FaultPreset::StragglerNode => {
                // Node 1 throttles: every one of its ranks slows by the
                // same seeded factor.
                let slowdown = uniform(2.0, 3.0);
                let g = topo.gpus_per_node();
                for gpu in 0..g {
                    plan.straggler(Rank(g + gpu), slowdown);
                }
            }
        }
        plan
    }
}

/// A run killed by node churn: ring-based collectives could not continue
/// without the lost ranks, so the job pays a checkpoint restart and
/// replays the iteration on the survivors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnRestart {
    /// The node whose loss killed the run.
    pub node: u32,
    /// When the run died, seconds into the faulted iteration.
    pub at_seconds: f64,
    /// True when the node announced a drain (vs a hard preempt).
    pub draining: bool,
    /// Restart bill: detection/rescheduling overhead plus the checkpoint
    /// read-back, before the replay starts.
    pub restart_seconds: f64,
}

/// Outcome of one resilience scenario: a clean baseline, a faulted run,
/// and everything the stack did to survive it.
#[derive(Debug, Clone)]
pub struct ResilienceReport {
    /// The preset that was run.
    pub preset: FaultPreset,
    /// Seed that placed the fault times.
    pub seed: u64,
    /// Data-parallel sync strategy the run used (the PS-vs-all-reduce
    /// crossover compares reports differing only here).
    pub strategy: DpSyncStrategy,
    /// `Some` when churn killed the run: `faulted_seconds` then covers
    /// the partial run, the restart bill, and the replay.
    pub restart: Option<ChurnRestart>,
    /// The migration-aware re-plan (post-churn placement through the
    /// guided planner plus the simulated state migration), when the run
    /// saw membership churn.
    pub delta_replan: Option<DeltaReplanOutcome>,
    /// The Young/Daly wait-vs-reshard-vs-restore decision for the churn
    /// event, when nodes were lost.
    pub elastic: Option<ElasticDecision>,
    /// Clean-iteration wall-clock (same plan, same fabric, no faults).
    pub clean_seconds: f64,
    /// Faulted-iteration wall-clock.
    pub faulted_seconds: f64,
    /// Metrics of the faulted run.
    pub metrics: TrainingMetrics,
    /// Link-level unhealthy windows observed by the executor.
    pub fault_windows: Vec<FaultWindow>,
    /// Conditions the executor reacted to (lost NICs, degraded links,
    /// stragglers).
    pub degraded_conditions: Vec<DegradedCondition>,
    /// Flow timeout firings across the faulted run.
    pub flow_retries: u64,
    /// Flows rerouted over TCP after a NIC loss.
    pub tcp_fallback_flows: u64,
    /// The parallel layer's downgrade pass, when a NIC was actually
    /// declared lost mid-run.
    pub replan: Option<ReplanOutcome>,
    /// Deterministic, line-oriented record of the run — byte-identical
    /// across runs with the same inputs and seed.
    pub event_log: Vec<String>,
}

impl ResilienceReport {
    /// Wall-clock stretch of the faulted run over the clean baseline.
    pub fn slowdown(&self) -> f64 {
        if self.clean_seconds > 0.0 {
            self.faulted_seconds / self.clean_seconds
        } else {
            1.0
        }
    }

    /// The event log as one newline-joined string (for byte comparison).
    pub fn log_text(&self) -> String {
        let mut s = self.event_log.join("\n");
        s.push('\n');
        s
    }
}

/// Plan `request` and run its clean baseline for a preset: the full
/// Holmes plan ([`HolmesConfig::full`]), its engine config with `strategy`
/// overriding the data-parallel sync, one clean iteration on the preset's
/// fabric shape (including the trunk, for presets that fault it), and the
/// preset's seeded fault plan placed against that clean iteration.
fn plan_preset(
    topo: &Topology,
    request: &PlanRequest,
    preset: FaultPreset,
    seed: u64,
    strategy: Option<DpSyncStrategy>,
) -> Result<
    (
        ParallelPlan,
        EngineConfig,
        IterationReport,
        TrainingMetrics,
        FaultPlan,
    ),
    RunError,
> {
    // The full Holmes config prescribes the overlapped optimizer; an
    // explicit strategy (the PS-vs-all-reduce probe) overrides it so the
    // comparison really exercises the requested sync path.
    let (plan, mut engine_cfg) = plan_for(
        topo,
        request,
        &HolmesConfig::full(),
        DpSyncStrategy::DistributedOptimizer,
    )
    .map_err(RunError::Plan)?;
    if let Some(s) = strategy {
        engine_cfg.dp_sync = s;
    }
    let trunk = preset
        .needs_trunk()
        .then(|| topo.inter_cluster_profile().effective_bytes_per_sec());
    let mut clean_plan = FaultPlan::none();
    clean_plan.trunk_bytes_per_sec = trunk;
    let (clean_report, clean_metrics) = simulate_iteration(
        topo,
        &plan,
        &request.job,
        &engine_cfg,
        Some(&clean_plan),
        None,
    )
    .map_err(RunError::Engine)?;
    let fault_plan = preset.build_plan(seed, clean_report.total_seconds, trunk, topo);
    Ok((plan, engine_cfg, clean_report, clean_metrics, fault_plan))
}

/// Run one fault preset for a Table 2 parameter group on a topology.
///
/// The plan is the full Holmes plan ([`HolmesConfig::full`]); the clean
/// baseline and the faulted run share it, along with the fabric shape
/// (including the trunk, for presets that fault it). Fault onsets are
/// placed relative to the measured clean iteration so they always land
/// mid-iteration.
///
/// `strategy` overrides the data-parallel sync strategy. This is the
/// PS-vs-all-reduce probe: running the same churn preset and seed under
/// [`DpSyncStrategy::ParameterServer`] and a ring-based strategy yields
/// the crossover — the PS run continues degraded where the ring run
/// aborts into a checkpoint restart.
///
/// `obs` instruments the *faulted* run into the session. The clean
/// baseline stays unobserved so the trace shows exactly one iteration's
/// worth of spans. On top of the engine/netsim instrumentation the core
/// layer contributes: `core.*` gauges for the clean/faulted wall-clocks
/// and slowdown, a [`Layer::Core`] instant per degraded condition the
/// executor reacted to, and — when a NIC loss triggered the parallel
/// layer's downgrade pass — [`holmes_parallel::obs::record_replan`].
pub fn run_resilient(
    topo: &Topology,
    parameter_group: u8,
    preset: FaultPreset,
    seed: u64,
    strategy: Option<DpSyncStrategy>,
    mut obs: Option<&mut ObsSession>,
) -> Result<ResilienceReport, RunError> {
    let request = PlanRequest::parameter_group(parameter_group);
    let (plan, engine_cfg, clean_report, clean_metrics, fault_plan) =
        plan_preset(topo, &request, preset, seed, strategy)?;
    let strategy = engine_cfg.dp_sync;
    let reliability = ReliabilityModel::default();
    let sim_result = simulate_iteration(
        topo,
        &plan,
        &request.job,
        &engine_cfg,
        Some(&fault_plan),
        obs.as_deref_mut(),
    );
    // Churn that ring-based collectives cannot absorb kills the run: the
    // job pays the restart bill and replays the iteration. Everything
    // else propagates as a real error.
    let restart_bill =
        reliability.restart_overhead_seconds + reliability.checkpoint_seconds(&request.job.config);
    struct FaultedRun {
        total_seconds: f64,
        fault_windows: Vec<FaultWindow>,
        degraded_conditions: Vec<DegradedCondition>,
        flow_retries: u64,
        tcp_fallback_flows: u64,
    }
    let (faulted, metrics, restart) = match sim_result {
        Ok((report, metrics)) => (
            FaultedRun {
                total_seconds: report.total_seconds,
                fault_windows: report.fault_windows,
                degraded_conditions: report.degraded_conditions,
                flow_retries: report.flow_retries,
                tcp_fallback_flows: report.tcp_fallback_flows,
            },
            metrics,
            None,
        ),
        Err(holmes_engine::builder::BuildError::Exec(
            err @ (ExecError::NodeLost { .. } | ExecError::NodeDraining { .. }),
        )) => {
            let (node, at_seconds, draining) = match err {
                ExecError::NodeLost { node, at_seconds } => (node, at_seconds, false),
                ExecError::NodeDraining { node, at_seconds } => (node, at_seconds, true),
                _ => unreachable!(),
            };
            // The run died mid-iteration: the bill is the partial run,
            // the restart, and a full replay on the survivors. Churn
            // events up to the death still happened and are reported.
            let conditions: Vec<DegradedCondition> = fault_plan
                .churn
                .iter()
                .filter(|c| (c.at - SimTime::ZERO).as_secs_f64() <= at_seconds)
                .map(|c| DegradedCondition::NodeChurn {
                    node: c.node,
                    kind: c.kind,
                    at_seconds: (c.at - SimTime::ZERO).as_secs_f64(),
                })
                .collect();
            (
                FaultedRun {
                    total_seconds: at_seconds + restart_bill + clean_report.total_seconds,
                    fault_windows: Vec::new(),
                    degraded_conditions: conditions,
                    flow_retries: 0,
                    tcp_fallback_flows: 0,
                },
                clean_metrics,
                Some(ChurnRestart {
                    node,
                    at_seconds,
                    draining,
                    restart_seconds: restart_bill,
                }),
            )
        }
        Err(e) => return Err(RunError::Engine(e)),
    };

    // NIC actually lost mid-run → run the parallel layer's downgrade
    // pass, pricing the next iteration's DP sync on the shrunken fleet.
    let mut lost_nodes: Vec<u32> = faulted
        .degraded_conditions
        .iter()
        .filter_map(|c| match c {
            DegradedCondition::LostNic { node, .. } => Some(*node),
            _ => None,
        })
        .collect();
    lost_nodes.sort_unstable();
    lost_nodes.dedup();
    let degrees = plan.degrees();
    let stage_params = request.job.config.parameter_count() / u64::from(degrees.pipeline.max(1));
    let grad_bytes = CommVolumes::dp_gradient_bytes(stage_params, degrees.tensor);
    let replan = (!lost_nodes.is_empty()).then(|| {
        plan.nic_report(topo)
            .replan(topo, &TopologyDelta::nic_losses(&lost_nodes), grad_bytes)
    });

    // Membership churn (preempt/drain/join, whether the run survived it
    // or died into a restart) → the migration-aware re-plan: re-run
    // placement on the post-churn topology through the guided planner
    // and price the optimizer-state migration on its fabric, then let
    // the Young/Daly policy judge wait vs re-shard vs restore.
    let mut churn_lost: Vec<u32> = faulted
        .degraded_conditions
        .iter()
        .filter_map(|c| match c {
            DegradedCondition::NodeChurn { node, kind, .. }
                if *kind != ChurnKind::NodeJoin && *node < topo.node_count() =>
            {
                Some(*node)
            }
            _ => None,
        })
        .collect();
    churn_lost.sort_unstable();
    churn_lost.dedup();
    let churn_joins = faulted
        .degraded_conditions
        .iter()
        .filter(|c| {
            matches!(
                c,
                DegradedCondition::NodeChurn {
                    kind: ChurnKind::NodeJoin,
                    ..
                }
            )
        })
        .count();
    let delta_replan = (!churn_lost.is_empty() || churn_joins > 0)
        .then(|| {
            let mut delta = TopologyDelta::new();
            for &n in &churn_lost {
                delta.node_loss(n);
            }
            for _ in 0..churn_joins {
                // Joiners carry no placement hint; they land in cluster 0
                // by convention (the re-plan decides what runs on them).
                delta.node_join(0);
            }
            // Per-rank optimizer shard: the stage's mixed-precision Adam
            // state split across the tensor degree.
            let state_bytes_per_rank = (stage_params / u64::from(degrees.tensor.max(1)))
                * holmes_model::BYTES_PER_PARAM_FULL;
            let costs = MigrationCosts::new(state_bytes_per_rank, restart_bill);
            // The re-plan prices gradient sync plus compute skew, so churn
            // migrations avoid generation-straddling DP groups; on a
            // compute-uniform fleet the skew term is exactly `+0.0`.
            let workload = PlacementWorkload::new(
                grad_bytes,
                crate::planner::placement_stage_flops(&request.job, degrees),
            );
            let outcome =
                replan_for_delta(topo, &plan, &delta, workload, &GuidedPlanner, &costs).ok();
            // Replan reachability gate: the churn re-plan must itself
            // verify, and every state move must be executable on the
            // post-churn fabric, before anything acts on it.
            #[cfg(debug_assertions)]
            if let Some(o) = &outcome {
                let defects = holmes_analysis::verify_replan_progress(o);
                assert!(
                    defects.is_empty(),
                    "churn re-plan fails the progress verifier: {defects:?}"
                );
            }
            outcome
        })
        .flatten();
    let elastic = delta_replan
        .as_ref()
        .filter(|_| !churn_lost.is_empty())
        .map(|outcome| {
            let capacity = f64::from(outcome.new_topology.device_count())
                / f64::from(topo.device_count().max(1));
            let sync_factor = if outcome.cost_after_seconds > 0.0 {
                (outcome.cost_before_seconds / outcome.cost_after_seconds).min(1.0)
            } else {
                1.0
            };
            let impact = ChurnImpact {
                surviving_fraction: capacity * sync_factor,
                reshard_stall_seconds: outcome.migration.total_seconds(),
            };
            ElasticPolicy::default().decide(topo, &request.job.config, &impact, seed)
        });

    let mut log = Vec::new();
    log.push(format!(
        "preset={} seed={} pg={} strategy={}",
        preset.name(),
        seed,
        parameter_group,
        strategy.name()
    ));
    log.push(format!(
        "clean_seconds={:?} faulted_seconds={:?}",
        clean_report.total_seconds, faulted.total_seconds
    ));
    for w in &faulted.fault_windows {
        log.push(format!(
            "window link={} health={} start={:?} end={:?}",
            w.link.0,
            health_label(w.health),
            w.start_seconds,
            w.end_seconds
        ));
    }
    for c in &faulted.degraded_conditions {
        log.push(match c {
            DegradedCondition::DegradedLink {
                link,
                fraction,
                at_seconds,
            } => format!(
                "degraded link={} fraction={:?} at={:?}",
                link.0, fraction, at_seconds
            ),
            DegradedCondition::LostNic { node, at_seconds } => {
                format!("lost_nic node={node} at={at_seconds:?}")
            }
            DegradedCondition::Straggler { rank, slowdown } => {
                format!("straggler rank={} slowdown={:?}", rank.0, slowdown)
            }
            DegradedCondition::NodeChurn {
                node,
                kind,
                at_seconds,
            } => format!("churn node={node} kind={} at={at_seconds:?}", kind.name()),
        });
    }
    log.push(format!(
        "retries={} tcp_fallback={}",
        faulted.flow_retries, faulted.tcp_fallback_flows
    ));
    if let Some(r) = &restart {
        log.push(format!(
            "restart node={} draining={} at={:?} bill={:?}",
            r.node, r.draining, r.at_seconds, r.restart_seconds
        ));
    }
    if let Some(r) = &replan {
        log.push(format!(
            "replan downgraded={:?} rdma_groups={} ethernet_groups={} slowdown={:?}",
            r.downgraded_groups,
            r.report.rdma_groups,
            r.report.ethernet_groups,
            r.slowdown()
        ));
    }
    if let Some(o) = &delta_replan {
        log.push(format!(
            "delta_replan devices={} moves={} restored={:?} transfer={:?} restore={:?} cost_before={:?} cost_after={:?}",
            o.new_topology.device_count(),
            o.migration.moves.len(),
            o.migration.restored_groups,
            o.migration.transfer_seconds,
            o.migration.restore_seconds,
            o.cost_before_seconds,
            o.cost_after_seconds
        ));
    }
    if let Some(e) = &elastic {
        log.push(format!(
            "elastic action={} wait={:?} reshard={:?} restore={:?}",
            e.action.name(),
            e.wait_goodput,
            e.reshard_goodput,
            e.restore_goodput
        ));
    }

    if let Some(session) = obs {
        let reg = &mut session.registry;
        reg.counter_add("core.resilience_runs", 1);
        reg.gauge_set("core.clean_seconds", clean_report.total_seconds);
        reg.gauge_set("core.faulted_seconds", faulted.total_seconds);
        if clean_report.total_seconds > 0.0 {
            reg.gauge_set(
                "core.resilience_slowdown",
                faulted.total_seconds / clean_report.total_seconds,
            );
        }
        if restart.is_some() {
            reg.counter_add("core.churn_restarts", 1);
        }
        if let Some(o) = &delta_replan {
            reg.counter_add("core.churn_replans", 1);
            reg.gauge_set("core.migration_seconds", o.migration.total_seconds());
        }
        for c in &faulted.degraded_conditions {
            // Stragglers are declared during planning, not at a simulated
            // time; they land at t=0 on the trace.
            let (track, name, at) = match c {
                DegradedCondition::DegradedLink {
                    link,
                    fraction,
                    at_seconds,
                } => (
                    u64::from(link.0),
                    format!("degraded-link#{} {:.2}", link.0, fraction),
                    *at_seconds,
                ),
                DegradedCondition::LostNic { node, at_seconds } => (
                    u64::from(*node),
                    format!("lost-nic node{node}"),
                    *at_seconds,
                ),
                DegradedCondition::Straggler { rank, slowdown } => (
                    u64::from(rank.0),
                    format!("straggler rank{} {:.2}", rank.0, slowdown),
                    0.0,
                ),
                DegradedCondition::NodeChurn {
                    node,
                    kind,
                    at_seconds,
                } => (
                    u64::from(*node),
                    format!("churn node{node} {}", kind.name()),
                    *at_seconds,
                ),
            };
            session
                .trace
                .instant(Layer::Core, track, name, "resilience", at);
        }
        if let Some(r) = &replan {
            holmes_parallel::obs::record_replan(session, r);
        }
    }

    Ok(ResilienceReport {
        preset,
        seed,
        strategy,
        restart,
        delta_replan,
        elastic,
        clean_seconds: clean_report.total_seconds,
        faulted_seconds: faulted.total_seconds,
        metrics,
        fault_windows: faulted.fault_windows,
        degraded_conditions: faulted.degraded_conditions,
        flow_retries: faulted.flow_retries,
        tcp_fallback_flows: faulted.tcp_fallback_flows,
        replan,
        event_log: log,
    })
}

fn health_label(h: LinkHealth) -> String {
    match h {
        LinkHealth::Healthy => "healthy".to_string(),
        LinkHealth::Degraded { fraction } => format!("degraded({fraction:?})"),
        LinkHealth::Down => "down".to_string(),
    }
}

/// Symbolically verify a fault preset before (or without) ever running
/// it: plan the workload exactly as [`run_resilient`] would, build the
/// iteration's execution spec, and model-check its collectives twice —
///
/// 1. against exactly the events the preset's seeded [`FaultPlan`] can
///    produce, under the executor's own retry-arming rule; and
/// 2. against the full enumerated event space bounded by `space`, with
///    the default retry model armed (the machinery exists whether or not
///    this particular plan triggers it — the sweep asks whether *any*
///    in-scope fault could stall or livelock the schedule).
///
/// Returns the merged [`holmes_analysis::ProgressReport`]; a clean
/// report is a proof (within the small-scope event bounds) that every
/// collective of the planned iteration makes progress under the preset.
pub fn verify_preset_progress(
    topo: &Topology,
    parameter_group: u8,
    preset: FaultPreset,
    seed: u64,
    space: holmes_analysis::EventSpace,
) -> Result<holmes_analysis::ProgressReport, RunError> {
    let request = PlanRequest::parameter_group(parameter_group);
    let (plan, engine_cfg, _, _, fault_plan) = plan_preset(topo, &request, preset, seed, None)?;
    let spec = holmes_engine::build_iteration(topo, &plan, &request.job, &engine_cfg)
        .map_err(RunError::Engine)?;

    // Pass 1: the preset's own events, executor-faithful retry arming.
    let mut report = holmes_engine::progress::check_execution(topo, &spec, Some(&fault_plan));

    // Pass 2: the generic event space with retry machinery armed.
    let mut pspec = holmes_engine::progress::progress_spec(topo, &spec, Some(&fault_plan));
    pspec.retry = Some(holmes_analysis::RetryModel::default());
    let sweep = holmes_analysis::check_progress(topo, &pspec, space);

    report.scenarios += sweep.scenarios;
    report.skipped += sweep.skipped;
    report.completes += sweep.completes;
    report.completes_degraded += sweep.completes_degraded;
    report.fails_fast += sweep.fails_fast;
    report.counterexamples.extend(sweep.counterexamples);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use holmes_topology::presets;

    #[test]
    fn clean_preset_has_no_fault_activity() {
        let topo = presets::hybrid_two_cluster(2);
        let r = run_resilient(&topo, 1, FaultPreset::Clean, 11, None, None).unwrap();
        assert!(r.fault_windows.is_empty());
        assert!(r.degraded_conditions.is_empty());
        assert_eq!(r.flow_retries, 0);
        assert_eq!(r.tcp_fallback_flows, 0);
        assert!(r.replan.is_none());
        assert!((r.slowdown() - 1.0).abs() < 1e-12, "{}", r.slowdown());
    }

    #[test]
    fn flaky_trunk_stretches_the_run_without_retries() {
        let topo = presets::hybrid_two_cluster(2);
        let r = run_resilient(&topo, 1, FaultPreset::FlakyTrunk, 11, None, None).unwrap();
        assert!(r.slowdown() > 1.0, "{}", r.slowdown());
        assert!(!r.fault_windows.is_empty());
        // Degraded (not dead) links never trigger retries or fallback.
        assert_eq!(r.tcp_fallback_flows, 0);
        assert!(r.replan.is_none());
    }

    #[test]
    fn dying_nic_completes_via_tcp_fallback_and_replans() {
        let topo = presets::hybrid_two_cluster(2);
        let r = run_resilient(&topo, 1, FaultPreset::DyingNic, 7, None, None).unwrap();
        // The run completed (no ExecError) despite the permanent NIC
        // loss, slower than clean, with the loss detected and traffic
        // moved to TCP.
        assert!(r.slowdown() > 1.0, "{}", r.slowdown());
        assert!(r.flow_retries >= 1, "{}", r.flow_retries);
        assert!(r.tcp_fallback_flows >= 1, "{}", r.tcp_fallback_flows);
        assert!(r
            .degraded_conditions
            .iter()
            .any(|c| matches!(c, DegradedCondition::LostNic { node: 0, .. })));
        let replan = r.replan.as_ref().expect("NIC loss triggers a replan");
        assert!(!replan.downgraded_groups.is_empty());
        assert!(replan.slowdown() >= 1.0);
    }

    #[test]
    fn observed_resilience_matches_unobserved_and_records_the_recovery() {
        let topo = presets::hybrid_two_cluster(2);
        let plain = run_resilient(&topo, 1, FaultPreset::DyingNic, 7, None, None).unwrap();
        let mut session = holmes_obs::ObsSession::new();
        let observed =
            run_resilient(&topo, 1, FaultPreset::DyingNic, 7, None, Some(&mut session)).unwrap();
        // Observation does not change the run.
        assert_eq!(plain.log_text(), observed.log_text());
        // Fault counters flow through the unified registry (satellite 5:
        // registry-backed, not ad-hoc struct fields).
        let reg = &session.registry;
        assert_eq!(reg.counter("engine.flow_retries"), observed.flow_retries);
        assert_eq!(
            reg.counter("engine.tcp_fallback_flows"),
            observed.tcp_fallback_flows
        );
        assert_eq!(reg.counter("core.resilience_runs"), 1);
        assert_eq!(reg.counter("parallel.replans"), 1);
        assert!(reg.gauge("core.resilience_slowdown").unwrap() > 1.0);
        // The lost NIC shows up as a core-layer instant on the trace.
        assert!(session.trace.layers_present().contains(&Layer::Core));
    }

    #[test]
    fn same_seed_reproduces_the_event_log_byte_for_byte() {
        let topo = presets::hybrid_two_cluster(2);
        let a = run_resilient(&topo, 1, FaultPreset::FlakyTrunk, 99, None, None).unwrap();
        let b = run_resilient(&topo, 1, FaultPreset::FlakyTrunk, 99, None, None).unwrap();
        assert_eq!(a.log_text(), b.log_text());
        let c = run_resilient(&topo, 1, FaultPreset::FlakyTrunk, 100, None, None).unwrap();
        assert_ne!(a.log_text(), c.log_text());
    }

    #[test]
    fn preempt_storm_aborts_ring_sync_into_a_restart() {
        let topo = presets::hybrid_two_cluster(2);
        let r = run_resilient(&topo, 1, FaultPreset::PreemptStorm, 13, None, None).unwrap();
        // Ring-based DP sync cannot continue without the preempted
        // ranks: the run dies at the first preempt and pays the restart
        // bill plus a replay.
        let restart = r.restart.expect("ring sync aborts on preemption");
        assert!(!restart.draining);
        assert!(restart.restart_seconds > 0.0);
        assert!(
            r.faulted_seconds >= restart.at_seconds + restart.restart_seconds + r.clean_seconds
        );
        assert!(r.slowdown() > 2.0, "{}", r.slowdown());
        // The membership event still drives the migration-aware re-plan
        // and the Young/Daly decision.
        assert!(r.delta_replan.is_some());
        assert!(r.elastic.is_some());
    }

    #[test]
    fn preempt_storm_survives_under_parameter_server() {
        let topo = presets::hybrid_two_cluster(2);
        let r = run_resilient(
            &topo,
            1,
            FaultPreset::PreemptStorm,
            13,
            Some(DpSyncStrategy::ParameterServer { servers: 2 }),
            None,
        )
        .unwrap();
        // Star-shaped PS rounds only stale the lost contributions: the
        // survivors finish the iteration without a restart.
        assert!(r.restart.is_none());
        assert!(r
            .degraded_conditions
            .iter()
            .any(|c| matches!(c, DegradedCondition::NodeChurn { .. })));
        let outcome = r.delta_replan.as_ref().expect("preempts trigger a re-plan");
        assert!(outcome.new_topology.device_count() < topo.device_count());
        // Every group kept surviving replicas (each stage lost only half
        // its cluster), so nothing needs the checkpoint store — and when
        // the new placement keeps survivors in place, the migration may
        // even be zero-move.
        assert!(outcome.migration.restored_groups.is_empty());
        assert_eq!(outcome.migration.restore_seconds, 0.0);
        let elastic = r.elastic.expect("losses get an elastic decision");
        assert!(elastic.reshard_goodput > 0.0);
    }

    #[test]
    fn ps_vs_allreduce_crossover_under_preemption() {
        // Clean, the ring strategy beats the parameter server (the star
        // round pays server incast). Under a preempt storm the ordering
        // flips: the PS run continues degraded while the ring run eats a
        // checkpoint restart. This crossover is the reason to keep both.
        let topo = presets::hybrid_two_cluster(2);
        let ps = DpSyncStrategy::ParameterServer { servers: 2 };
        let ar = DpSyncStrategy::DistributedOptimizer;
        let clean_ar = run_resilient(&topo, 1, FaultPreset::Clean, 13, Some(ar), None).unwrap();
        let clean_ps = run_resilient(&topo, 1, FaultPreset::Clean, 13, Some(ps), None).unwrap();
        let storm_ar =
            run_resilient(&topo, 1, FaultPreset::PreemptStorm, 13, Some(ar), None).unwrap();
        let storm_ps =
            run_resilient(&topo, 1, FaultPreset::PreemptStorm, 13, Some(ps), None).unwrap();
        assert!(
            clean_ar.faulted_seconds <= clean_ps.faulted_seconds,
            "clean: ring {} vs ps {}",
            clean_ar.faulted_seconds,
            clean_ps.faulted_seconds
        );
        assert!(
            storm_ps.faulted_seconds < storm_ar.faulted_seconds,
            "storm: ps {} vs ring {}",
            storm_ps.faulted_seconds,
            storm_ar.faulted_seconds
        );
        assert!(storm_ar.restart.is_some() && storm_ps.restart.is_none());
    }

    #[test]
    fn scale_up_midrun_folds_the_new_node_in() {
        let topo = presets::hybrid_two_cluster(2);
        let r = run_resilient(&topo, 1, FaultPreset::ScaleUpMidrun, 21, None, None).unwrap();
        // The running iteration is unaffected by the announcement…
        assert!(r.restart.is_none());
        assert!((r.slowdown() - 1.0).abs() < 1e-9, "{}", r.slowdown());
        // …but the membership event drives the migration-aware re-plan
        // that seeds the newcomer's optimizer state.
        let outcome = r.delta_replan.as_ref().expect("join triggers a re-plan");
        assert_eq!(
            outcome.new_topology.device_count(),
            topo.device_count() + topo.gpus_per_node()
        );
        assert!(!outcome.migration.moves.is_empty());
        // A join loses nothing: wait-vs-reshard doesn't apply.
        assert!(r.elastic.is_none());
    }

    #[test]
    fn straggler_node_stretches_the_run_without_faults() {
        let topo = presets::hybrid_two_cluster(2);
        let r = run_resilient(&topo, 1, FaultPreset::StragglerNode, 17, None, None).unwrap();
        assert!(r.slowdown() > 1.2, "{}", r.slowdown());
        assert!(r.restart.is_none());
        assert_eq!(r.flow_retries, 0);
        assert!(r
            .degraded_conditions
            .iter()
            .any(|c| matches!(c, DegradedCondition::Straggler { .. })));
    }

    #[test]
    fn churn_presets_replay_byte_identically_per_seed() {
        let topo = presets::hybrid_two_cluster(2);
        let ps = DpSyncStrategy::ParameterServer { servers: 2 };
        for preset in [FaultPreset::PreemptStorm, FaultPreset::ScaleUpMidrun] {
            let a = run_resilient(&topo, 1, preset, 5, Some(ps), None).unwrap();
            let b = run_resilient(&topo, 1, preset, 5, Some(ps), None).unwrap();
            assert_eq!(a.log_text(), b.log_text(), "{}", preset.name());
        }
    }
}
