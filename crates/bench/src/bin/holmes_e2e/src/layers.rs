//! The only file that calls the library.
//!
//! Each query is a chain of calls into the layers' public entry points:
//! `parse_topology_spec`, `plan_for`, `GuidedPlanner::plan_workload_with_stats`,
//! `estimate_iteration`, `build_iteration`, `execute`, `execute_with_faults`,
//! `replan_for_delta`, `autotune`, `validate_spec`, `verify_plan` and
//! `verify_replan`. Every such call goes through [`Recorder::span`], so a
//! traced run splits the query by layer from outside the library; the
//! verifiers run only when [`Recorder::TRACED`] is set. Everything else
//! used here is input construction (presets, parameter groups, fault
//! plans) or arithmetic on results.

use holmes::engine::{
    build_iteration, execute, execute_with_faults, validate_spec, DpSyncStrategy, EngineConfig,
    ExecError, ExecutionSpec, FaultPlan, IterationReport, SpecError, TrainingMetrics,
};
use holmes::model::{TrainJob, BYTES_PER_PARAM_FULL};
use holmes::netsim::{SimDuration, SimTime};
use holmes::parallel::{
    replan_for_delta, GroupLayout, GuidedPlanner, MigrationCosts, ParallelDegrees, ParallelPlan,
    PlacementWorkload, TopologyDelta,
};
use holmes::topology::{parse_topology_spec, presets, Rank, Topology};
use holmes::{
    autotune, estimate_iteration, placement_gradient_bytes, placement_stage_flops, plan_for,
    AutotuneRequest, FrameworkKind, HolmesConfig, PlanRequest,
};
use holmes_analysis::{verify_plan, verify_replan};

use crate::check::{Fnv, Outcome};
use crate::trace::{Recorder, Trace};
use crate::workloads::{Case, DpSync, Fault, Framework, Kind, TopoSource};

pub const PARSE: &str = "topology.parse";
pub const PLAN_FOR: &str = "core.plan_for";
pub const SYNTH: &str = "parallel.synth";
pub const ESTIMATE: &str = "core.estimate";
pub const AUTOTUNE: &str = "core.autotune";
pub const BUILD: &str = "engine.build";
pub const EXECUTE: &str = "engine.execute";
pub const FAULT_EXECUTE: &str = "engine.fault_execute";
pub const REPLAN: &str = "parallel.replan";
const VALIDATE_SPEC: &str = "analysis.validate_spec";
const VERIFY_PLAN: &str = "analysis.verify_plan";
const VERIFY_REPLAN: &str = "analysis.verify_replan";

pub const EVENTS: &str = "netsim.events";
pub const FLOWS: &str = "netsim.flows";
pub const OPS: &str = "engine.ops";
pub const SYNTH_EXPANDED: &str = "parallel.synth_expanded";
pub const SYNTH_PRUNED: &str = "parallel.synth_pruned";
pub const CANDIDATES: &str = "core.autotune_candidates";
pub const SIMULATED: &str = "core.autotune_simulated";
pub const FLOW_RETRIES: &str = "engine.flow_retries";
pub const TCP_FALLBACK: &str = "engine.tcp_fallback_flows";
pub const FAIL_FAST: &str = "engine.fail_fast";
pub const MIGRATION_MOVES: &str = "parallel.migration_moves";
pub const DEFECTS: &str = "analysis.defects";

/// Checkpoint-restore bill handed to the re-planner for shards with no
/// surviving replica. It only decides whether restores are billed, not
/// what the benchmark times.
const RESTORE_SECONDS: f64 = 60.0;

/// A case with its topology built, when the topology is set-up work.
pub struct Prepared {
    pub case: Case,
    /// `None` for paper cells: parsing their spec is part of the query.
    topo: Option<Topology>,
}

fn build_topology(source: &TopoSource) -> Result<Topology, String> {
    Ok(match source {
        TopoSource::Spec(spec) => parse_topology_spec(spec)?,
        TopoSource::SyntheticFleet(c) => presets::synthetic_fleet(*c, 2),
        TopoSource::FleetHetero(c) => presets::fleet_hetero(*c, 2),
        TopoSource::GenMix3c => presets::gen_mix_3c(),
        TopoSource::GenSplit2c => presets::gen_split_2c(),
        TopoSource::HybridSplit(ib, roce) => presets::hybrid_split(*ib, *roce),
        TopoSource::Table4RoceIbIb => presets::table4_2r_2ib_2ib(),
    })
}

/// Topology construction: the set-up share of a case.
pub fn prepare(case: &Case) -> Result<Prepared, String> {
    let topo = match case.kind {
        Kind::Grid(_) => None,
        _ => Some(build_topology(&case.topo)?),
    };
    Ok(Prepared {
        case: case.clone(),
        topo,
    })
}

/// Whether the case's parameter group fits its topology: `t·p` divides
/// the device count and the global batch splits into whole micro-batches
/// across the data-parallel replicas.
#[cfg(test)]
pub fn feasible(case: &Case) -> Result<bool, String> {
    let topo = build_topology(&case.topo)?;
    let req = PlanRequest::parameter_group(case.pg);
    let tp = req.tensor_parallel * req.pipeline_parallel;
    let n = topo.device_count();
    Ok(n % tp == 0 && req.job.microbatches_per_replica(n / tp).is_some())
}

/// Run one query.
pub fn run<R: Recorder>(p: &Prepared, rec: &mut R) -> Result<Outcome, String> {
    let req = PlanRequest::parameter_group(p.case.pg);
    match (p.case.kind, &p.topo) {
        (Kind::Grid(fw), _) => grid(&p.case.topo, fw, &req, rec),
        (Kind::Plan, Some(topo)) => plan_only(topo, &req, rec),
        (Kind::Autotune, Some(topo)) => tune(topo, &req, rec),
        (
            Kind::Churn {
                fault,
                onset,
                victim,
                dp,
            },
            Some(topo),
        ) => churn(topo, &req, fault, onset, victim, dp, rec),
        _ => Err("case was not prepared".to_owned()),
    }
}

/// The strategy set and gradient-sync fallback of each framework, as
/// `run_framework` and `run_holmes_with` choose them.
fn framework(fw: Framework) -> (HolmesConfig, DpSyncStrategy) {
    let baseline = |kind: FrameworkKind| kind.as_holmes_flags();
    match fw {
        Framework::Holmes => (HolmesConfig::full(), DpSyncStrategy::DistributedOptimizer),
        Framework::MegatronLm => (
            baseline(FrameworkKind::MegatronLm),
            DpSyncStrategy::AllReduce,
        ),
        Framework::MegatronDeepSpeed => (
            baseline(FrameworkKind::MegatronDeepSpeed),
            DpSyncStrategy::DistributedOptimizer,
        ),
        Framework::MegatronLlama => (
            baseline(FrameworkKind::MegatronLlama),
            DpSyncStrategy::AllReduce,
        ),
        Framework::WithoutSelfAdapting => (
            HolmesConfig::without_self_adapting(),
            DpSyncStrategy::DistributedOptimizer,
        ),
        Framework::WithoutOverlap => (
            HolmesConfig::without_overlapped_optimizer(),
            DpSyncStrategy::DistributedOptimizer,
        ),
        Framework::WithoutBoth => (
            HolmesConfig::without_both(),
            DpSyncStrategy::DistributedOptimizer,
        ),
    }
}

fn plan<R: Recorder>(
    topo: &Topology,
    req: &PlanRequest,
    cfg: &HolmesConfig,
    fallback: DpSyncStrategy,
    rec: &mut R,
) -> Result<(ParallelPlan, EngineConfig), String> {
    let (plan, engine_cfg) = rec
        .span(PLAN_FOR, || plan_for(topo, req, cfg, fallback))
        .map_err(|e| format!("plan_for: {e}"))?;
    if R::TRACED {
        let defects = rec.span(VERIFY_PLAN, || {
            verify_plan(topo, &plan, req.job.config.num_layers, None)
        });
        report_defects(rec, "verify_plan", &defects);
    }
    Ok((plan, engine_cfg))
}

fn report_defects<R: Recorder, D: std::fmt::Debug>(rec: &mut R, check: &str, defects: &[D]) {
    if !defects.is_empty() {
        eprintln!("{check} found defects: {defects:?}");
    }
    rec.count(DEFECTS, defects.len() as u64);
}

fn build<R: Recorder>(
    topo: &Topology,
    plan: &ParallelPlan,
    job: &TrainJob,
    engine_cfg: &EngineConfig,
    rec: &mut R,
) -> Result<ExecutionSpec, String> {
    let spec = rec
        .span(BUILD, || build_iteration(topo, plan, job, engine_cfg))
        .map_err(|e| format!("build_iteration: {e}"))?;
    rec.count(
        OPS,
        spec.programs.iter().map(|(_, ops)| ops.len() as u64).sum(),
    );
    Ok(spec)
}

/// build → (validate) → execute.
fn clean_run<R: Recorder>(
    topo: &Topology,
    plan: &ParallelPlan,
    job: &TrainJob,
    engine_cfg: &EngineConfig,
    rec: &mut R,
) -> Result<IterationReport, String> {
    let spec = build(topo, plan, job, engine_cfg, rec)?;
    if R::TRACED {
        // Unmatched sends/receives surface at run time as deadlocks; only
        // the hard structural defects count, as in the executor's own
        // debug gate.
        let defects: Vec<SpecError> = rec.span(VALIDATE_SPEC, || {
            validate_spec(&spec)
                .into_iter()
                .filter(|d| !matches!(d, SpecError::UnmatchedRecv(_) | SpecError::UnmatchedSend(_)))
                .collect()
        });
        report_defects(rec, "validate_spec", &defects);
    }
    let report = rec
        .span(EXECUTE, || execute(topo, spec))
        .map_err(|e| format!("execute: {e}"))?;
    rec.count(EVENTS, report.events);
    rec.count(FLOWS, report.flows);
    Ok(report)
}

fn hash_plan(h: &mut Fnv, plan: &ParallelPlan) {
    for logical in 0..plan.assignment.len() {
        h.u64(u64::from(plan.assignment.device_of(logical).0));
    }
    for &layers in &plan.stage_layers {
        h.u64(u64::from(layers));
    }
}

fn metrics_of(
    job: &TrainJob,
    plan: &ParallelPlan,
    seconds: f64,
) -> Result<TrainingMetrics, String> {
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!(
            "iteration time {seconds} s is not finite and positive"
        ));
    }
    Ok(TrainingMetrics::from_seconds(
        job,
        plan.degrees().devices(),
        seconds,
    ))
}

/// parse → plan → build → execute → metrics.
fn grid<R: Recorder>(
    source: &TopoSource,
    fw: Framework,
    req: &PlanRequest,
    rec: &mut R,
) -> Result<Outcome, String> {
    let TopoSource::Spec(spec) = source else {
        return Err("paper cells are spec strings".to_owned());
    };
    let topo = rec.span(PARSE, || parse_topology_spec(spec))?;
    let (cfg, fallback) = framework(fw);
    let (plan, engine_cfg) = plan(&topo, req, &cfg, fallback, rec)?;
    let report = clean_run(&topo, &plan, &req.job, &engine_cfg, rec)?;
    let m = metrics_of(&req.job, &plan, report.total_seconds)?;
    let mut h = Fnv::new();
    hash_plan(&mut h, &plan);
    h.f64(report.total_seconds).f64(m.tflops_per_gpu);
    for &t in &report.device_finish_seconds {
        h.f64(t);
    }
    Ok(Outcome {
        tflops: m.tflops_per_gpu,
        seconds: vec![report.total_seconds],
        stage_layers: plan.stage_layers.clone(),
        model_layers: req.job.config.num_layers,
        digest: h.finish(),
    })
}

/// plan → estimate; never simulates.
fn plan_only<R: Recorder>(
    topo: &Topology,
    req: &PlanRequest,
    rec: &mut R,
) -> Result<Outcome, String> {
    let (plan, engine_cfg) = plan(
        topo,
        req,
        &HolmesConfig::full(),
        DpSyncStrategy::DistributedOptimizer,
        rec,
    )?;
    let est = rec
        .span(ESTIMATE, || {
            estimate_iteration(topo, &plan, &req.job, &engine_cfg)
        })
        .ok_or("estimate_iteration: batch does not divide across replicas")?;
    let m = metrics_of(&req.job, &plan, est.seconds)?;
    let mut h = Fnv::new();
    hash_plan(&mut h, &plan);
    for term in [
        est.seconds,
        est.compute_seconds,
        est.bubble_seconds,
        est.dp_sync_seconds,
        est.p2p_seconds,
        est.optimizer_seconds,
    ] {
        h.f64(term);
    }
    Ok(Outcome {
        tflops: m.tflops_per_gpu,
        seconds: vec![est.seconds],
        stage_layers: plan.stage_layers.clone(),
        model_layers: req.job.config.num_layers,
        digest: h.finish(),
    })
}

/// autotune, then (traced) verify every candidate plan it scored.
fn tune<R: Recorder>(topo: &Topology, req: &PlanRequest, rec: &mut R) -> Result<Outcome, String> {
    let ranked = rec.span(AUTOTUNE, || {
        autotune(topo, &AutotuneRequest::new(req.job), &HolmesConfig::full())
    });
    rec.count(CANDIDATES, ranked.len() as u64);
    rec.count(
        SIMULATED,
        ranked.iter().filter(|c| c.simulated.is_some()).count() as u64,
    );
    if R::TRACED {
        for plan in ranked.iter().filter_map(|c| c.plan()) {
            let defects = rec.span(VERIFY_PLAN, || {
                verify_plan(topo, plan, req.job.config.num_layers, None)
            });
            report_defects(rec, "verify_plan", &defects);
        }
    }
    let best = ranked.first().ok_or("autotune returned no candidate")?;
    let winner = best.simulated.ok_or("autotune winner was not simulated")?;
    let plan = best.plan().ok_or("autotune winner carries no plan")?;
    let mut h = Fnv::new();
    let mut seconds = Vec::with_capacity(ranked.len() + 1);
    for c in &ranked {
        h.u64(u64::from(c.tensor))
            .u64(u64::from(c.pipeline))
            .u64(u64::from(c.data))
            .u64(u64::from(c.fits_memory))
            .f64(c.estimated_seconds);
        seconds.push(c.estimated_seconds);
        if let Some(m) = c.simulated {
            h.f64(m.iteration_seconds);
            seconds.push(m.iteration_seconds);
        }
    }
    hash_plan(&mut h, plan);
    Ok(Outcome {
        tflops: winner.tflops_per_gpu,
        seconds,
        stage_layers: plan.stage_layers.clone(),
        model_layers: req.job.config.num_layers,
        digest: h.finish(),
    })
}

/// plan → clean run → faulted run → re-plan on node loss or join.
fn churn<R: Recorder>(
    topo: &Topology,
    req: &PlanRequest,
    fault: Fault,
    onset: f64,
    victim: u64,
    dp: DpSync,
    rec: &mut R,
) -> Result<Outcome, String> {
    let (plan, mut engine_cfg) = plan(
        topo,
        req,
        &HolmesConfig::full(),
        DpSyncStrategy::DistributedOptimizer,
        rec,
    )?;
    engine_cfg.dp_sync = match dp {
        DpSync::DistributedOptimizer => DpSyncStrategy::DistributedOptimizer,
        DpSync::ParameterServer => DpSyncStrategy::parameter_server(),
    };
    let clean = clean_run(topo, &plan, &req.job, &engine_cfg, rec)?;
    let clean_s = clean.total_seconds;
    let m = metrics_of(&req.job, &plan, clean_s)?;

    let nodes = topo.node_count();
    let node = (victim % u64::from(nodes)) as u32;
    let at = |fraction: f64| SimTime::ZERO + SimDuration::from_secs_f64(fraction * clean_s);
    let mut faults = FaultPlan::none();
    let mut delta = TopologyDelta::new();
    match fault {
        Fault::NicKill => {
            faults.kill_nic(at(onset), node);
        }
        Fault::TrunkDegrade => {
            faults.trunk_bytes_per_sec =
                Some(topo.inter_cluster_profile().effective_bytes_per_sec());
            faults.degrade_trunk(at(onset), at(onset + 0.2), 0.1);
        }
        Fault::Preempt => {
            faults.preempt_node(at(onset), node);
            delta.node_loss(node);
        }
        Fault::Drain => {
            faults.drain_node(at(onset), node);
            delta.node_loss(node);
        }
        Fault::Join => {
            faults.join_node(at(onset), nodes);
            delta.node_join((victim % u64::from(topo.cluster_count())) as u32);
        }
        Fault::Straggler => {
            let g = topo.gpus_per_node();
            for gpu in 0..g {
                faults.straggler(Rank(node * g + gpu), 1.0 + 2.0 * onset);
            }
        }
    }

    let mut h = Fnv::new();
    hash_plan(&mut h, &plan);
    h.f64(clean_s);
    let mut seconds = vec![clean_s];
    let spec = build(topo, &plan, &req.job, &engine_cfg, rec)?;
    match rec.span(FAULT_EXECUTE, || execute_with_faults(topo, spec, &faults)) {
        Ok(report) => {
            rec.count(EVENTS, report.events);
            rec.count(FLOWS, report.flows);
            rec.count(FLOW_RETRIES, report.flow_retries);
            rec.count(TCP_FALLBACK, report.tcp_fallback_flows);
            h.f64(report.total_seconds)
                .u64(report.flow_retries)
                .u64(report.tcp_fallback_flows);
            seconds.push(report.total_seconds);
        }
        // Typed fail-fast on member loss is a valid outcome: ring and tree
        // collectives cannot finish without the lost ranks.
        Err(ExecError::NodeLost { node, at_seconds })
        | Err(ExecError::NodeDraining { node, at_seconds }) => {
            rec.count(FAIL_FAST, 1);
            h.u64(u64::from(node)).f64(at_seconds);
            seconds.push(at_seconds);
        }
        Err(e) => return Err(format!("execute_with_faults: {e}")),
    }

    if !delta.is_empty() {
        let degrees = plan.degrees();
        let gradient_bytes = placement_gradient_bytes(&req.job, degrees);
        let stage_params = req.job.config.parameter_count() / u64::from(degrees.pipeline);
        let costs = MigrationCosts::new(
            stage_params / u64::from(degrees.tensor) * BYTES_PER_PARAM_FULL,
            RESTORE_SECONDS,
        );
        let outcome = rec
            .span(REPLAN, || {
                replan_for_delta(topo, &plan, &delta, gradient_bytes, &GuidedPlanner, &costs)
            })
            .map_err(|e| format!("replan_for_delta: {e}"))?;
        rec.count(MIGRATION_MOVES, outcome.migration.moves.len() as u64);
        if R::TRACED {
            let defects = rec.span(VERIFY_REPLAN, || verify_replan(&outcome));
            report_defects(rec, "verify_replan", &defects);
        }
        for logical in 0..outcome.placement.assignment.len() {
            h.u64(u64::from(outcome.placement.assignment.device_of(logical).0));
        }
        for mv in &outcome.migration.moves {
            h.u64(u64::from(mv.from.0))
                .u64(u64::from(mv.to.0))
                .u64(mv.bytes);
        }
        h.f64(outcome.migration.transfer_seconds)
            .f64(outcome.migration.restore_seconds)
            .f64(outcome.cost_after_seconds);
    }
    Ok(Outcome {
        tflops: m.tflops_per_gpu,
        seconds,
        stage_layers: plan.stage_layers.clone(),
        model_layers: req.job.config.num_layers,
        digest: h.finish(),
    })
}

/// Replay, outside the query's own time, the placement search `plan_for`
/// runs inside it, to read its search statistics and time the `parallel`
/// layer's share of planning. The workload mirrors `plan_for`'s: gradient
/// volume only on compute-uniform fleets, plus the stage FLOPs otherwise.
/// Queries that skip the search (NIC-oblivious baselines, autotune's
/// opaque inner loop) have nothing to replay.
pub fn probe_synth(p: &Prepared, trace: &mut Trace) -> Result<(), String> {
    let cross_cluster_pp = match p.case.kind {
        Kind::Grid(fw) => framework(fw).0.cross_cluster_pp,
        Kind::Plan | Kind::Churn { .. } => true,
        Kind::Autotune => false,
    };
    if !cross_cluster_pp {
        return Ok(());
    }
    let parsed;
    let topo = match &p.topo {
        Some(topo) => topo,
        None => {
            parsed = build_topology(&p.case.topo)?;
            &parsed
        }
    };
    let req = PlanRequest::parameter_group(p.case.pg);
    let degrees = ParallelDegrees::infer_data(
        req.tensor_parallel,
        req.pipeline_parallel,
        topo.device_count(),
    )
    .map_err(|e| format!("degrees: {e:?}"))?;
    let layout = GroupLayout::new(degrees);
    let gradient_bytes = placement_gradient_bytes(&req.job, degrees);
    let workload = if topo.uniform_compute() {
        PlacementWorkload::gradient_only(gradient_bytes)
    } else {
        PlacementWorkload::new(gradient_bytes, placement_stage_flops(&req.job, degrees))
    };
    trace.begin_probe();
    let (_, stats) = trace.span(SYNTH, || {
        GuidedPlanner.plan_workload_with_stats(topo, &layout, workload)
    });
    trace.close_all();
    trace.count(SYNTH_EXPANDED, stats.expanded);
    trace.count(SYNTH_PRUNED, stats.pruned_total());
    Ok(())
}
