//! Parallelism auto-tuning: search `(t, p, α)` for a job on a fleet.
//!
//! The paper fixes Table 2's degrees by hand; a production framework needs
//! to *find* them. The tuner enumerates feasible degree combinations,
//! prunes with memory checks and the closed-form
//! [`crate::estimate::estimate_iteration`], then simulates the `top_k`
//! survivors for an accurate ranking — the classic estimate-then-measure
//! search loop. Every candidate's placement routes through
//! [`crate::planner::plan_for`] and therefore through the
//! [`holmes_parallel::Planner`] trait's guided branch-and-bound synthesis,
//! so each `(t, p)` cell is scored on its *optimal* cluster order, not
//! just the fastest-first heuristic.

use holmes_engine::{
    price_stages, simulate_iteration, DpSyncStrategy, EngineConfig, StagePrice, TrainingMetrics,
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
    /// Candidates to simulate after estimation pruning.
    pub top_k: usize,
}

impl AutotuneRequest {
    /// Sensible defaults: `t ≤ 8`, `p ≤ 8`, simulate the best 5 estimates.
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
    /// Simulated metrics (only for the `top_k` finalists).
    pub simulated: Option<TrainingMetrics>,
    /// Whether every stage fits its smallest member's memory, by the
    /// same [`price_stages`] verdict the builder enforces.
    pub fits_memory: bool,
    /// Plan and engine config built during enumeration, cached so the
    /// finalist simulation pass does not re-run `plan_for`.
    plan: Option<Box<(ParallelPlan, EngineConfig)>>,
}

impl Candidate {
    /// The cached parallel plan behind this candidate, when enumeration
    /// built one (memory-infeasible degree combinations carry none).
    /// Exposed so external checkers — `holmes-analysis`' plan verifier in
    /// particular — can audit exactly what the autotuner scored.
    pub fn plan(&self) -> Option<&ParallelPlan> {
        self.plan.as_deref().map(|(plan, _)| plan)
    }

    /// Ranking key: simulated time when available, else the estimate;
    /// memory-infeasible candidates sort last.
    fn score(&self) -> f64 {
        let base = self
            .simulated
            .map(|m| m.iteration_seconds)
            .unwrap_or(self.estimated_seconds);
        if self.fits_memory {
            base
        } else {
            base + 1e9
        }
    }
}

/// Search for the fastest feasible plan of a job on a topology under a
/// Holmes configuration. Returns all evaluated candidates, best first.
///
/// Finalists are simulated in parallel; the ranking does not depend on
/// the thread count (`RAYON_NUM_THREADS=1` simulates them one by one).
pub fn autotune(topo: &Topology, req: &AutotuneRequest, cfg: &HolmesConfig) -> Vec<Candidate> {
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
            // Memory feasibility: the builder's own per-stage verdict.
            let Ok(stages) = price_stages(topo, &plan, &req.job, &engine_cfg) else {
                continue;
            };
            candidates.push(Candidate {
                tensor: t,
                pipeline: p,
                data: d,
                estimated_seconds: est.seconds,
                simulated: None,
                fits_memory: stages.iter().all(StagePrice::fits_memory),
                plan: Some(Box::new((plan, engine_cfg))),
            });
        }
    }

    // Simulate the top_k feasible estimates. Each finalist simulation is
    // independent (private `NetSim` per call), so they fan out across
    // threads; results merge back in candidate order, so the final ranking
    // does not depend on the thread count.
    candidates.sort_by(|a, b| a.score().partial_cmp(&b.score()).expect("finite scores"));
    let k = req.top_k.min(candidates.len());
    let job = req.job;
    let simulate = |candidate: &Candidate| -> Option<TrainingMetrics> {
        let (plan, engine_cfg) = candidate.plan.as_deref()?;
        simulate_iteration(topo, plan, &job, engine_cfg, None, None)
            .ok()
            .map(|(_, metrics)| metrics)
    };
    let finalist_metrics: Vec<Option<TrainingMetrics>> =
        candidates[..k].par_iter().map(simulate).collect();
    for (candidate, metrics) in candidates.iter_mut().zip(finalist_metrics) {
        candidate.simulated = metrics;
    }
    // Final ranking: simulated finalists first (measured beats estimated —
    // an optimistic estimate must not leapfrog a measured candidate), each
    // tier ordered by its score.
    candidates.sort_by(|a, b| {
        (a.simulated.is_none(), a.score())
            .partial_cmp(&(b.simulated.is_none(), b.score()))
            .expect("finite scores")
    });
    candidates
}

/// Record a finished autotune search into an observability session: one
/// `candidate-scored` planning event per ranked candidate (best first,
/// matching the returned order) plus summary counters and the winner's
/// iteration time.
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
        let topo = presets::homogeneous(holmes_topology::NicType::InfiniBand, 4);
        let req = AutotuneRequest::new(ParameterGroup::table2(1).job());
        let ranked = autotune(&topo, &req, &HolmesConfig::full());
        for w in ranked.windows(2) {
            assert!(w[0].score() <= w[1].score());
        }
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
        assert_eq!(session.trace.instant_count(), ranked.len() as u64);
        assert!(session
            .registry
            .gauge("core.autotune_best_seconds")
            .is_some());
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
