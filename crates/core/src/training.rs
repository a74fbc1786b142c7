//! Multi-iteration training-run simulation.
//!
//! The paper reports steady-state per-iteration numbers; a real run also
//! has warm-up iterations (communicator construction, allocator churn) and
//! per-iteration jitter (stragglers, OS noise). This module layers both on
//! the deterministic single-iteration simulation so that users can ask the
//! questions that matter for a multi-week job: expected tokens/second,
//! tail-iteration behaviour, and wall-clock to a token budget.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::config::HolmesConfig;
use crate::runner::{run_scenario, RunError, Scenario};
use holmes_engine::DpSyncStrategy;

/// Configuration of a simulated multi-iteration run.
#[derive(Debug, Clone, Copy)]
pub struct TrainingRunConfig {
    /// Iterations to simulate (excluding warm-up).
    pub iterations: u32,
    /// Warm-up iterations, slower by `warmup_penalty`.
    pub warmup_iterations: u32,
    /// Multiplicative slowdown of warm-up iterations (e.g. 1.5).
    pub warmup_penalty: f64,
    /// Relative per-iteration jitter σ (0.0 = deterministic). Applied as a
    /// one-sided straggler tail: `time × (1 + |σ·z|)`.
    pub jitter: f64,
    /// RNG seed (runs are reproducible).
    pub seed: u64,
}

impl Default for TrainingRunConfig {
    fn default() -> Self {
        TrainingRunConfig {
            iterations: 50,
            warmup_iterations: 3,
            warmup_penalty: 1.5,
            jitter: 0.03,
            seed: 0x11071107,
        }
    }
}

/// Aggregate statistics of a simulated run.
#[derive(Debug, Clone)]
pub struct TrainingRunReport {
    /// Per-iteration wall-clock seconds (steady-state only).
    pub iteration_seconds: Vec<f64>,
    /// Mean steady-state iteration seconds.
    pub mean_seconds: f64,
    /// Median (p50).
    pub p50_seconds: f64,
    /// 95th percentile.
    pub p95_seconds: f64,
    /// Mean training throughput in samples/second.
    pub samples_per_sec: f64,
    /// Mean token throughput (`samples/sec × seq_len`).
    pub tokens_per_sec: f64,
    /// Total simulated wall-clock including warm-up.
    pub total_seconds: f64,
}

impl TrainingRunReport {
    /// Wall-clock days to consume `tokens` at the mean rate (the paper's
    /// motivating arithmetic: OPT-175B took 33 days on 1024 GPUs).
    pub fn days_for_tokens(&self, tokens: f64) -> f64 {
        tokens / self.tokens_per_sec / 86_400.0
    }
}

/// Simulate a multi-iteration training run of a scenario under a Holmes
/// configuration; `fallback_dp` selects the gradient-sync strategy when
/// `cfg.overlapped_optimizer` is off, as in [`run_scenario`] (a
/// framework's pair is [`crate::FrameworkKind::as_holmes_flags`] and
/// [`crate::FrameworkKind::dp_fallback`]).
///
/// Bad run settings are typed errors, checked before anything simulates:
/// no iterations, or a jitter or warm-up penalty that is negative, NaN or
/// infinite.
pub fn simulate_training_run(
    scenario: &Scenario,
    cfg: &HolmesConfig,
    fallback_dp: DpSyncStrategy,
    run_cfg: &TrainingRunConfig,
) -> Result<TrainingRunReport, RunError> {
    if run_cfg.iterations == 0 {
        return Err(RunError::NoIterations);
    }
    let valid = |x: f64| x.is_finite() && x >= 0.0;
    if !valid(run_cfg.jitter) {
        return Err(RunError::BadJitter {
            jitter: run_cfg.jitter,
        });
    }
    if !valid(run_cfg.warmup_penalty) {
        return Err(RunError::BadWarmupPenalty {
            penalty: run_cfg.warmup_penalty,
        });
    }
    let base = run_scenario(scenario, cfg, fallback_dp, None)?;
    let base_seconds = base.metrics.iteration_seconds;
    let mut rng = StdRng::seed_from_u64(run_cfg.seed);

    let mut total = 0.0;
    for _ in 0..run_cfg.warmup_iterations {
        total += base_seconds * run_cfg.warmup_penalty;
    }
    let mut iteration_seconds = Vec::with_capacity(run_cfg.iterations as usize);
    for _ in 0..run_cfg.iterations {
        // One-sided straggler tail from a folded normal approximation
        // (sum of 12 uniforms − 6 ≈ N(0, 1)).
        let z: f64 = (0..12).map(|_| rng.random::<f64>()).sum::<f64>() - 6.0;
        let t = base_seconds * (1.0 + (run_cfg.jitter * z).abs());
        iteration_seconds.push(t);
        total += t;
    }

    let mut sorted = iteration_seconds.clone();
    sorted.sort_by(f64::total_cmp);
    let mean = iteration_seconds.iter().sum::<f64>() / iteration_seconds.len() as f64;
    let pct = |q: f64| {
        let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
        sorted[idx]
    };
    let samples_per_sec = f64::from(scenario.request.job.global_batch) / mean;
    let tokens_per_sec = samples_per_sec * f64::from(scenario.request.job.config.seq_len);

    Ok(TrainingRunReport {
        iteration_seconds,
        mean_seconds: mean,
        p50_seconds: pct(0.5),
        p95_seconds: pct(0.95),
        samples_per_sec,
        tokens_per_sec,
        total_seconds: total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use holmes_topology::presets;

    fn scenario() -> Scenario {
        Scenario::new(presets::hybrid_two_cluster(2), 1)
    }

    #[test]
    fn run_statistics_are_coherent() {
        let report = simulate_training_run(
            &scenario(),
            &HolmesConfig::full(),
            DpSyncStrategy::DistributedOptimizer,
            &TrainingRunConfig::default(),
        )
        .unwrap();
        assert_eq!(report.iteration_seconds.len(), 50);
        assert!(report.p50_seconds <= report.p95_seconds);
        assert!(report.mean_seconds >= report.p50_seconds * 0.9);
        assert!(report.tokens_per_sec > report.samples_per_sec);
        let steady: f64 = report.iteration_seconds.iter().sum();
        assert!(report.total_seconds > steady, "warm-up adds time");
    }

    #[test]
    fn zero_jitter_is_deterministically_flat() {
        let cfg = TrainingRunConfig {
            jitter: 0.0,
            ..TrainingRunConfig::default()
        };
        let report = simulate_training_run(
            &scenario(),
            &HolmesConfig::full(),
            DpSyncStrategy::DistributedOptimizer,
            &cfg,
        )
        .unwrap();
        let first = report.iteration_seconds[0];
        assert!(report
            .iteration_seconds
            .iter()
            .all(|&t| (t - first).abs() < 1e-12));
        assert!((report.p95_seconds - first).abs() < 1e-12);
    }

    #[test]
    fn same_seed_reproduces_same_run() {
        let cfg = TrainingRunConfig::default();
        let a = simulate_training_run(
            &scenario(),
            &HolmesConfig::full(),
            DpSyncStrategy::DistributedOptimizer,
            &cfg,
        )
        .unwrap();
        let b = simulate_training_run(
            &scenario(),
            &HolmesConfig::full(),
            DpSyncStrategy::DistributedOptimizer,
            &cfg,
        )
        .unwrap();
        assert_eq!(a.iteration_seconds, b.iteration_seconds);
        let different_seed = TrainingRunConfig { seed: 7, ..cfg };
        let c = simulate_training_run(
            &scenario(),
            &HolmesConfig::full(),
            DpSyncStrategy::DistributedOptimizer,
            &different_seed,
        )
        .unwrap();
        assert_ne!(a.iteration_seconds, c.iteration_seconds);
    }

    #[test]
    fn jitter_only_slows_never_speeds() {
        let base = simulate_training_run(
            &scenario(),
            &HolmesConfig::full(),
            DpSyncStrategy::DistributedOptimizer,
            &TrainingRunConfig {
                jitter: 0.0,
                ..TrainingRunConfig::default()
            },
        )
        .unwrap()
        .mean_seconds;
        let jittered = simulate_training_run(
            &scenario(),
            &HolmesConfig::full(),
            DpSyncStrategy::DistributedOptimizer,
            &TrainingRunConfig::default(),
        )
        .unwrap();
        assert!(jittered
            .iteration_seconds
            .iter()
            .all(|&t| t >= base - 1e-12));
    }

    #[test]
    fn token_budget_arithmetic() {
        let report = simulate_training_run(
            &scenario(),
            &HolmesConfig::full(),
            DpSyncStrategy::DistributedOptimizer,
            &TrainingRunConfig::default(),
        )
        .unwrap();
        let days = report.days_for_tokens(report.tokens_per_sec * 86_400.0);
        assert!((days - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bad_run_settings_are_typed_errors() {
        let run = |cfg: TrainingRunConfig| {
            simulate_training_run(
                &scenario(),
                &HolmesConfig::full(),
                DpSyncStrategy::DistributedOptimizer,
                &cfg,
            )
        };
        let base = TrainingRunConfig::default();
        assert!(matches!(
            run(TrainingRunConfig {
                iterations: 0,
                ..base
            }),
            Err(RunError::NoIterations)
        ));
        for jitter in [-0.1, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = run(TrainingRunConfig { jitter, ..base }).unwrap_err();
            assert!(
                matches!(err, RunError::BadJitter { jitter: j } if j.to_bits() == jitter.to_bits()),
                "jitter {jitter}: {err}"
            );
        }
        for penalty in [-1.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = run(TrainingRunConfig {
                warmup_penalty: penalty,
                ..base
            })
            .unwrap_err();
            assert!(
                matches!(err, RunError::BadWarmupPenalty { penalty: p } if p.to_bits() == penalty.to_bits()),
                "penalty {penalty}: {err}"
            );
        }
        // The boundary values themselves are valid.
        let edge = TrainingRunConfig {
            iterations: 1,
            warmup_penalty: 0.0,
            jitter: 0.0,
            ..base
        };
        assert_eq!(run(edge).unwrap().iteration_seconds.len(), 1);
    }
}
