//! Parallelism auto-tuning: search `(t, p, α)` for a job on a fleet.
//!
//! The paper fixes Table 2's degrees by hand; a production framework needs
//! to *find* them. The tuner enumerates feasible degree combinations,
//! prunes with memory checks and the analytic
//! [`crate::estimate::estimate_iteration`], and keeps the `top_k` best
//! estimates as finalists — the classic estimate-then-measure search
//! loop. Finalists are simulated in lower-bound order: each carries a
//! compute floor ([`holmes_engine::compute_floor_seconds`]) that no
//! simulation can beat, so the finalist with the lowest floor simulates
//! first, and any finalist whose floor already exceeds that simulated time
//! is skipped, since it cannot win (HAP's lower-bounded search, arxiv
//! 2401.05965). The winner is the one simulating every finalist would
//! pick. Every candidate's placement routes through
//! [`crate::planner::plan_for`] and therefore through guided
//! branch-and-bound synthesis ([`holmes_parallel::synthesize_placement`]),
//! so each `(t, p)` cell is scored on its *optimal* cluster order, not
//! just the fastest-first heuristic.

use holmes_engine::{
    compute_floor_seconds, price_stages, simulate_iteration, DpSyncStrategy, EngineConfig,
    IterationReport, StagePrice, TrainingMetrics,
};
use holmes_model::TrainJob;
use holmes_parallel::ParallelPlan;
use holmes_topology::Topology;
use rayon::prelude::*;

use crate::config::HolmesConfig;
use crate::estimate::estimate_iteration;
use crate::planner::{plan_for, PlanRequest};

/// Search space bounds.
#[derive(Debug, Clone, Copy)]
pub struct AutotuneRequest {
    /// The workload.
    pub job: TrainJob,
    /// Largest tensor-parallel degree to try (bounded by GPUs per node).
    pub max_tensor: u32,
    /// Largest pipeline depth to try.
    pub max_pipeline: u32,
    /// Finalists considered: the best this many estimates. At most this
    /// many are simulated; a finalist whose compute floor exceeds the
    /// best simulated time is skipped.
    pub top_k: usize,
}

impl AutotuneRequest {
    /// Sensible defaults: `t ≤ 8`, `p ≤ 8`, the best 5 estimates as
    /// finalists.
    pub fn new(job: TrainJob) -> Self {
        AutotuneRequest {
            job,
            max_tensor: 8,
            max_pipeline: 8,
            top_k: 5,
        }
    }
}

/// One evaluated candidate.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Tensor parallel degree.
    pub tensor: u32,
    /// Pipeline parallel degree.
    pub pipeline: u32,
    /// Data parallel degree (derived).
    pub data: u32,
    /// Closed-form estimated iteration seconds.
    pub estimated_seconds: f64,
    /// Lower bound on the simulated iteration seconds: the slowest
    /// stage's compute and optimizer step
    /// ([`holmes_engine::compute_floor_seconds`]).
    pub floor_seconds: f64,
    /// Simulated metrics (only for finalists that were simulated).
    pub simulated: Option<TrainingMetrics>,
    /// A finalist left unsimulated because its floor is above the first
    /// simulated finalist's time, so it cannot win.
    pub pruned: bool,
    /// The finalist simulation's work: its [`IterationReport::events`],
    /// [`IterationReport::flows`] and
    /// [`IterationReport::launch_entries`] (zero when not simulated).
    pub simulated_work: SimulatedWork,
    /// Whether every stage fits its smallest member's memory, by the
    /// same [`price_stages`] verdict the builder enforces.
    pub fits_memory: bool,
    /// Plan and engine config built during enumeration, cached so the
    /// finalist simulation pass does not re-run `plan_for`.
    plan: Option<Box<(ParallelPlan, EngineConfig)>>,
}

/// Work counters of one finalist simulation, copied from its report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimulatedWork {
    /// Simulator events processed.
    pub events: u64,
    /// Engine flows completed.
    pub flows: u64,
    /// Netsim entries the executor started.
    pub launch_entries: u64,
}

impl SimulatedWork {
    fn of(report: &IterationReport) -> Self {
        SimulatedWork {
            events: report.events,
            flows: report.flows,
            launch_entries: report.launch_entries,
        }
    }
}

impl Candidate {
    /// The cached parallel plan behind this candidate, when enumeration
    /// built one (memory-infeasible degree combinations carry none).
    /// Exposed so external checkers — `holmes-analysis`' plan verifier in
    /// particular — can audit exactly what the autotuner scored.
    pub fn plan(&self) -> Option<&ParallelPlan> {
        self.plan.as_deref().map(|(plan, _)| plan)
    }

    /// The engine configuration the cached plan was scored under.
    pub fn engine_config(&self) -> Option<&EngineConfig> {
        self.plan.as_deref().map(|(_, cfg)| cfg)
    }

    /// `seconds` with the memory penalty: memory-infeasible candidates
    /// sort last.
    fn penalized(&self, seconds: f64) -> f64 {
        if self.fits_memory {
            seconds
        } else {
            seconds + 1e9
        }
    }

    /// Ranking key: simulated time when available, else the estimate.
    fn score(&self) -> f64 {
        self.penalized(
            self.simulated
                .map(|m| m.iteration_seconds)
                .unwrap_or(self.estimated_seconds),
        )
    }

    /// Lower bound on the score a simulation would give this candidate.
    fn bound(&self) -> f64 {
        self.penalized(self.floor_seconds)
    }

    /// Simulate the cached plan and keep its metrics and work; a plan
    /// that fails to simulate keeps its estimate.
    fn simulate(&mut self, topo: &Topology, job: &TrainJob) {
        let Some((plan, engine_cfg)) = self.plan.as_deref() else {
            return;
        };
        if let Ok((report, metrics)) = simulate_iteration(topo, plan, job, engine_cfg, None, None) {
            self.simulated = Some(metrics);
            self.simulated_work = SimulatedWork::of(&report);
        }
    }
}

/// Search for the fastest feasible plan of a job on a topology under a
/// Holmes configuration. Returns all evaluated candidates, simulated ones
/// first, each tier best first.
///
/// The finalist with the lowest floor simulates first; the finalists
/// whose floor is at most its simulated score then simulate in parallel.
/// Neither the set simulated nor the ranking depends on the thread count
/// (`RAYON_NUM_THREADS=1` simulates them one by one).
pub fn autotune(topo: &Topology, req: &AutotuneRequest, cfg: &HolmesConfig) -> Vec<Candidate> {
    let mut candidates = enumerate(topo, req, cfg);
    let k = req.top_k.min(candidates.len());
    simulate_finalists(topo, &req.job, &mut candidates[..k]);
    rank(&mut candidates);
    candidates
}

/// Every feasible degree combination, planned, estimated and priced,
/// best estimate first.
fn enumerate(topo: &Topology, req: &AutotuneRequest, cfg: &HolmesConfig) -> Vec<Candidate> {
    let n = topo.device_count();
    let g = topo.gpus_per_node();
    let mut candidates = Vec::new();

    for t in 1..=req.max_tensor.min(g) {
        if !t.is_power_of_two() {
            continue; // Megatron requires power-of-two head splits.
        }
        for p in 1..=req.max_pipeline.min(req.job.config.num_layers) {
            if !n.is_multiple_of(t * p) {
                continue;
            }
            let d = n / (t * p);
            if req.job.microbatches_per_replica(d).is_none() {
                continue;
            }
            let plan_req = PlanRequest {
                tensor_parallel: t,
                pipeline_parallel: p,
                job: req.job,
            };
            let Ok((plan, engine_cfg)) =
                plan_for(topo, &plan_req, cfg, DpSyncStrategy::DistributedOptimizer)
            else {
                continue;
            };
            let Some(est) = estimate_iteration(topo, &plan, &req.job, &engine_cfg) else {
                continue;
            };
            // Memory feasibility and the compute floor: the builder's own
            // stage prices.
            let Ok(stages) = price_stages(topo, &plan, &req.job, &engine_cfg) else {
                continue;
            };
            candidates.push(Candidate {
                tensor: t,
                pipeline: p,
                data: d,
                estimated_seconds: est.seconds,
                floor_seconds: compute_floor_seconds(&stages, &engine_cfg),
                simulated: None,
                pruned: false,
                simulated_work: SimulatedWork::default(),
                fits_memory: stages.iter().all(StagePrice::fits_memory),
                plan: Some(Box::new((plan, engine_cfg))),
            });
        }
    }
    candidates.sort_by(|a, b| a.score().total_cmp(&b.score()));
    candidates
}

/// Simulate the finalists that can still win. The one with the lowest
/// bound (the best estimate on ties) goes first. Every other finalist
/// whose bound is at most that simulated score follows; the rest are
/// marked pruned, since their simulated score would be strictly greater.
/// Each simulation is independent (private `NetSim` per call), so the
/// followers fan out across threads, each writing only its own candidate.
fn simulate_finalists(topo: &Topology, job: &TrainJob, finalists: &mut [Candidate]) {
    let Some(lead) =
        (0..finalists.len()).min_by(|&a, &b| finalists[a].bound().total_cmp(&finalists[b].bound()))
    else {
        return;
    };
    finalists[lead].simulate(topo, job);
    // A lead that failed to simulate proves nothing: every finalist runs.
    let best = match finalists[lead].simulated {
        Some(_) => finalists[lead].score(),
        None => f64::INFINITY,
    };
    let mut followers = Vec::with_capacity(finalists.len());
    for (i, candidate) in finalists.iter_mut().enumerate() {
        if i == lead {
            continue;
        }
        if candidate.bound() <= best {
            followers.push(candidate);
        } else {
            candidate.pruned = true;
        }
    }
    let _: Vec<()> = followers
        .into_par_iter()
        .map(|candidate| candidate.simulate(topo, job))
        .collect();
}

/// Final ranking: simulated finalists first (measured beats estimated —
/// an optimistic estimate must not leapfrog a measured candidate), each
/// tier ordered by its score.
fn rank(candidates: &mut [Candidate]) {
    candidates.sort_by(|a, b| {
        let tier = a.simulated.is_none().cmp(&b.simulated.is_none());
        tier.then(a.score().total_cmp(&b.score()))
    });
}

/// Record a finished autotune search into an observability session: one
/// `candidate-scored` planning event per ranked candidate (best first,
/// matching the returned order, each with its floor) plus summary
/// counters (candidates, simulated and pruned finalists), the finalist
/// simulations' summed `netsim.events`, `netsim.flows` and
/// `engine.launch_entries`, and the winner's iteration time.
///
/// Recording is post-hoc over the ranked list for the same reason the
/// parallel layer's is ([`holmes_parallel::obs`]): finalist simulation
/// fans out across threads, so threading a sink through it would make
/// event order racy.
pub fn record_autotune(session: &mut holmes_obs::ObsSession, ranked: &[Candidate]) {
    use holmes_obs::Layer;
    let reg = &mut session.registry;
    reg.counter_add("core.autotune_candidates", ranked.len() as u64);
    reg.counter_add(
        "core.autotune_simulated",
        ranked.iter().filter(|c| c.simulated.is_some()).count() as u64,
    );
    reg.counter_add(
        "core.autotune_pruned",
        ranked.iter().filter(|c| c.pruned).count() as u64,
    );
    // The finalist simulations' work, as observed executions record it.
    let work = ranked.iter().map(|c| c.simulated_work);
    reg.counter_add("netsim.events", work.clone().map(|w| w.events).sum());
    reg.counter_add("netsim.flows", work.clone().map(|w| w.flows).sum());
    reg.counter_add(
        "engine.launch_entries",
        work.map(|w| w.launch_entries).sum(),
    );
    if let Some(best) = ranked.first() {
        reg.gauge_set(
            "core.autotune_best_seconds",
            best.simulated
                .map(|m| m.iteration_seconds)
                .unwrap_or(best.estimated_seconds),
        );
    }
    for (i, c) in ranked.iter().enumerate() {
        let mut args = vec![
            ("rank".to_owned(), format!("{i}")),
            (
                "estimated_seconds".to_owned(),
                format!("{:?}", c.estimated_seconds),
            ),
            ("floor_seconds".to_owned(), format!("{:?}", c.floor_seconds)),
            ("fits_memory".to_owned(), format!("{}", c.fits_memory)),
        ];
        if let Some(m) = &c.simulated {
            args.push((
                "simulated_seconds".to_owned(),
                format!("{:?}", m.iteration_seconds),
            ));
        }
        session.trace.planning_event(
            Layer::Core,
            i as u64,
            format!("candidate-scored t{} p{} d{}", c.tensor, c.pipeline, c.data),
            "autotune",
            args,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holmes_model::ParameterGroup;
    use holmes_topology::presets;

    #[test]
    fn autotuner_winner_is_near_the_exhaustive_optimum() {
        // The paper runs PG3 with t=1, p=2 on 8 nodes. Several plans tie
        // within ~1% there (the engine confirms (2,2) ≈ (1,2)), so assert
        // near-optimality against an exhaustive simulated sweep rather
        // than an exact configuration.
        use crate::planner::plan_for;
        use holmes_engine::simulate_iteration;
        let topo = presets::hybrid_split(4, 4);
        let job = ParameterGroup::table2(3).job();
        let req = AutotuneRequest::new(job);
        let ranked = autotune(&topo, &req, &HolmesConfig::full());
        assert!(!ranked.is_empty());
        let best = &ranked[0];
        let winner = best.simulated.expect("winner must be simulated");

        // Exhaustive ground truth over the same search space.
        let mut best_exhaustive = f64::INFINITY;
        for c in &ranked {
            let plan_req = PlanRequest {
                tensor_parallel: c.tensor,
                pipeline_parallel: c.pipeline,
                job,
            };
            let (plan, engine_cfg) = plan_for(
                &topo,
                &plan_req,
                &HolmesConfig::full(),
                DpSyncStrategy::DistributedOptimizer,
            )
            .unwrap();
            let (_, m) = simulate_iteration(&topo, &plan, &job, &engine_cfg, None, None).unwrap();
            best_exhaustive = best_exhaustive.min(m.iteration_seconds);
        }
        assert!(
            winner.iteration_seconds <= best_exhaustive * 1.02,
            "winner {} vs exhaustive best {}",
            winner.iteration_seconds,
            best_exhaustive
        );
        // And the paper's own configuration must be in the search space.
        assert!(ranked.iter().any(|c| (c.tensor, c.pipeline) == (1, 2)));
    }

    #[test]
    fn candidates_are_sorted_best_first() {
        // Simulated candidates first, each tier by score. A pruned
        // finalist's estimate may undercut a simulated time, so one global
        // score order is not promised.
        let topo = presets::homogeneous(holmes_topology::NicType::InfiniBand, 4);
        let req = AutotuneRequest::new(ParameterGroup::table2(1).job());
        let ranked = autotune(&topo, &req, &HolmesConfig::full());
        let key = |c: &Candidate| (c.simulated.is_none(), c.score());
        for w in ranked.windows(2) {
            assert!(
                key(&w[0]) <= key(&w[1]),
                "{:?} before {:?}",
                key(&w[0]),
                key(&w[1])
            );
        }
    }

    /// The test-only reference: simulate every finalist, rank as
    /// `autotune` does.
    fn simulate_every_finalist(topo: &Topology, req: &AutotuneRequest) -> Vec<Candidate> {
        let mut candidates = enumerate(topo, req, &HolmesConfig::full());
        let k = req.top_k.min(candidates.len());
        for candidate in &mut candidates[..k] {
            candidate.simulate(topo, &req.job);
        }
        rank(&mut candidates);
        candidates
    }

    #[test]
    fn pruned_winner_matches_simulating_every_finalist() {
        let cases = [
            ("gen_mix_3c", presets::gen_mix_3c(), [1, 3].as_slice()),
            ("gen_split_2c", presets::gen_split_2c(), &[1, 3]),
            ("hybrid_split(4,4)", presets::hybrid_split(4, 4), &[1, 3]),
            (
                "table4_2r_2ib_2ib",
                presets::table4_2r_2ib_2ib(),
                &[1, 3, 5],
            ),
            ("fleet_hetero(4,2)", presets::fleet_hetero(4, 2), &[1, 3]),
            (
                "hybrid_two_cluster(2)",
                presets::hybrid_two_cluster(2),
                &[1],
            ),
        ];
        let mut pruned = 0;
        for (name, topo, groups) in cases {
            for &pg in groups {
                let req = AutotuneRequest::new(ParameterGroup::table2(pg).job());
                let ranked = autotune(&topo, &req, &HolmesConfig::full());
                let reference = simulate_every_finalist(&topo, &req);
                let (got, want) = (&ranked[0], &reference[0]);
                let bits = |c: &Candidate| c.simulated.map(|m| m.iteration_seconds.to_bits());
                assert_eq!(
                    (got.tensor, got.pipeline, got.data, bits(got)),
                    (want.tensor, want.pipeline, want.data, bits(want)),
                    "{name} PG{pg}"
                );
                assert!(bits(got).is_some(), "{name} PG{pg}: winner not simulated");
                let (plan, want_plan) = (got.plan().unwrap(), want.plan().unwrap());
                assert_eq!(plan.assignment, want_plan.assignment, "{name} PG{pg}");
                assert_eq!(plan.stage_layers, want_plan.stage_layers, "{name} PG{pg}");
                for c in ranked.iter().filter(|c| c.pruned) {
                    pruned += 1;
                    assert!(c.simulated.is_none());
                    assert!(
                        c.bound() > got.score(),
                        "{name} PG{pg}: pruned t={} p={} floor {} vs winner {}",
                        c.tensor,
                        c.pipeline,
                        c.floor_seconds,
                        got.score()
                    );
                }
            }
        }
        // The rule skips some finalists on these fleets.
        assert!(pruned > 0);
    }

    #[test]
    fn autotune_recording_covers_every_candidate() {
        let topo = presets::homogeneous(holmes_topology::NicType::InfiniBand, 4);
        let req = AutotuneRequest::new(ParameterGroup::table2(1).job());
        let ranked = autotune(&topo, &req, &HolmesConfig::full());
        let mut session = holmes_obs::ObsSession::new();
        record_autotune(&mut session, &ranked);
        assert_eq!(
            session.registry.counter("core.autotune_candidates"),
            ranked.len() as u64
        );
        assert_eq!(
            session.registry.counter("core.autotune_pruned"),
            ranked.iter().filter(|c| c.pruned).count() as u64
        );
        assert_eq!(session.trace.instant_count(), ranked.len() as u64);
        for (event, c) in session.trace.instants.iter().zip(&ranked) {
            let floor = event.args.iter().find(|(key, _)| key == "floor_seconds");
            assert_eq!(
                floor.map(|(_, value)| value.as_str()),
                Some(format!("{:?}", c.floor_seconds).as_str())
            );
        }
        assert!(session
            .registry
            .gauge("core.autotune_best_seconds")
            .is_some());
    }

    #[test]
    fn recorded_finalist_work_matches_resimulation() {
        let topo = presets::hybrid_two_cluster(2);
        let job = ParameterGroup::table2(1).job();
        let ranked = autotune(&topo, &AutotuneRequest::new(job), &HolmesConfig::full());
        let mut want = SimulatedWork::default();
        for c in ranked.iter().filter(|c| c.simulated.is_some()) {
            let (plan, engine_cfg) = c.plan.as_deref().expect("finalists carry their plan");
            let (report, _) = simulate_iteration(&topo, plan, &job, engine_cfg, None, None)
                .expect("a finalist simulates again");
            assert_eq!(c.simulated_work, SimulatedWork::of(&report));
            want.events += report.events;
            want.flows += report.flows;
            want.launch_entries += report.launch_entries;
        }
        assert!(want.events > 0);
        let mut session = holmes_obs::ObsSession::new();
        record_autotune(&mut session, &ranked);
        let reg = &session.registry;
        assert_eq!(reg.counter("netsim.events"), want.events);
        assert_eq!(reg.counter("netsim.flows"), want.flows);
        assert_eq!(reg.counter("engine.launch_entries"), want.launch_entries);
    }

    #[test]
    fn infeasible_degrees_are_skipped() {
        // 24 GPUs: t=8, p=5 never appears (not a divisor).
        let topo = presets::homogeneous(holmes_topology::NicType::RoCE, 3);
        let req = AutotuneRequest::new(ParameterGroup::table2(1).job());
        let ranked = autotune(&topo, &req, &HolmesConfig::full());
        assert!(ranked
            .iter()
            .all(|c| (c.tensor * c.pipeline * c.data) == topo.device_count()));
        assert!(ranked.iter().all(|c| c.tensor.is_power_of_two()));
    }

    #[test]
    fn memory_infeasible_candidates_rank_last() {
        // PG7 (39.1 B) on 4 nodes: t=1 plans cannot fit; the winner must
        // use large t.
        let topo = presets::homogeneous(holmes_topology::NicType::InfiniBand, 4);
        let req = AutotuneRequest::new(ParameterGroup::table2(7).job());
        let ranked = autotune(&topo, &req, &HolmesConfig::full());
        let best = &ranked[0];
        assert!(best.fits_memory, "winner must fit: {best:?}");
        assert!(best.tensor >= 4, "39B needs tensor parallelism: {best:?}");
        // And at least one t=1 candidate was evaluated and marked OOM.
        assert!(ranked.iter().any(|c| c.tensor == 1 && !c.fits_memory));
    }

    #[test]
    fn memory_verdict_matches_the_builder() {
        use holmes_engine::{build_iteration, BuildError};
        for topo in [
            presets::homogeneous(holmes_topology::NicType::InfiniBand, 4),
            presets::hybrid_two_cluster(4),
        ] {
            for pg in [3, 7] {
                let job = ParameterGroup::table2(pg).job();
                // No finalists: only the enumeration's verdicts matter.
                let req = AutotuneRequest {
                    top_k: 0,
                    ..AutotuneRequest::new(job)
                };
                for c in autotune(&topo, &req, &HolmesConfig::full()) {
                    let (plan, engine_cfg) =
                        c.plan.as_deref().expect("enumeration caches the plan");
                    let built = build_iteration(
                        &topo,
                        plan,
                        &job,
                        &EngineConfig {
                            enforce_memory: true,
                            ..*engine_cfg
                        },
                    );
                    let builder_fits = !matches!(built, Err(BuildError::OutOfMemory { .. }));
                    assert_eq!(
                        c.fits_memory,
                        builder_fits,
                        "PG{pg} t={} p={} on {} devices",
                        c.tensor,
                        c.pipeline,
                        topo.device_count()
                    );
                }
            }
        }
    }
}
