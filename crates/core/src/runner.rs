//! End-to-end simulation entry points.

use holmes_engine::{simulate_iteration, DpSyncStrategy, IterationReport, TrainingMetrics};
use holmes_obs::ObsSession;
use holmes_parallel::NicSelectionReport;
use holmes_topology::Topology;

use crate::config::HolmesConfig;
use crate::framework::FrameworkKind;
use crate::planner::{plan_for, PlanError, PlanRequest};

/// A complete experimental scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Hardware environment.
    pub topo: Topology,
    /// Workload + model-parallel degrees.
    pub request: PlanRequest,
}

impl Scenario {
    /// Scenario for a Table 2 parameter group on a topology.
    pub fn new(topo: Topology, parameter_group: u8) -> Self {
        Scenario {
            topo,
            request: PlanRequest::parameter_group(parameter_group),
        }
    }
}

/// Result of simulating one training iteration.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// TFLOPS / throughput, exactly as the paper reports them.
    pub metrics: TrainingMetrics,
    /// Detailed timing breakdown.
    pub report: IterationReport,
    /// Automatic-NIC-Selection analysis of the executed plan.
    pub nic: NicSelectionReport,
    /// Layers per pipeline stage actually used.
    pub stage_layers: Vec<u32>,
}

impl RunResult {
    /// A compact human-readable summary of the run.
    pub fn summary(&self) -> String {
        format!(
            "{:.2} s/iter | {:.1} TFLOPS/GPU | {:.2} samples/s | stages {:?} | \
             DP groups on RDMA {}/{}",
            self.metrics.iteration_seconds,
            self.metrics.tflops_per_gpu,
            self.metrics.throughput_samples_per_sec,
            self.stage_layers,
            self.nic.rdma_groups,
            self.nic.groups.len(),
        )
    }
}

/// Errors running a scenario.
#[derive(Debug)]
pub enum RunError {
    /// Planning failed.
    Plan(PlanError),
    /// Building or executing the iteration failed.
    Engine(holmes_engine::builder::BuildError),
    /// A multi-iteration run asked for no iterations.
    NoIterations,
    /// A multi-iteration run's jitter is negative or not finite.
    BadJitter {
        /// The rejected jitter σ.
        jitter: f64,
    },
    /// A multi-iteration run's warm-up penalty is negative or not finite.
    BadWarmupPenalty {
        /// The rejected penalty factor.
        penalty: f64,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Plan(e) => write!(f, "planning failed: {e}"),
            RunError::Engine(e) => write!(f, "engine failed: {e}"),
            RunError::NoIterations => write!(f, "a training run needs at least one iteration"),
            RunError::BadJitter { jitter } => {
                write!(f, "jitter {jitter} must be finite and non-negative")
            }
            RunError::BadWarmupPenalty { penalty } => {
                write!(
                    f,
                    "warm-up penalty {penalty} must be finite and non-negative"
                )
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Simulate one iteration of a scenario under a Holmes configuration.
///
/// `fallback_dp` selects the gradient-sync strategy when
/// `cfg.overlapped_optimizer` is off.
///
/// With `obs` set the whole stack is instrumented into the session. It
/// records, in order: the plan's Automatic-NIC-Selection outcome
/// (planning-clock events under the parallel layer), then the executed
/// iteration — engine timeline spans, netsim flow/link records and the
/// unified metrics registry — and finally the `core.runs` counter. The
/// returned [`RunResult`] is identical either way: observation never
/// changes what the simulator does, only what it remembers.
pub fn run_scenario(
    scenario: &Scenario,
    cfg: &HolmesConfig,
    fallback_dp: DpSyncStrategy,
    mut obs: Option<&mut ObsSession>,
) -> Result<RunResult, RunError> {
    let (plan, engine_cfg) =
        plan_for(&scenario.topo, &scenario.request, cfg, fallback_dp).map_err(RunError::Plan)?;
    let nic = plan.nic_report(&scenario.topo);
    if let Some(session) = obs.as_deref_mut() {
        holmes_parallel::obs::record_nic_selection(session, &nic);
    }
    let (report, metrics) = simulate_iteration(
        &scenario.topo,
        &plan,
        &scenario.request.job,
        &engine_cfg,
        None,
        obs.as_deref_mut(),
    )
    .map_err(RunError::Engine)?;
    if let Some(session) = obs {
        session.registry.counter_add("core.runs", 1);
    }
    Ok(RunResult {
        metrics,
        report,
        nic,
        stage_layers: plan.stage_layers.clone(),
    })
}

/// Simulate Holmes with an explicit feature configuration (ablations).
pub fn run_holmes_with(
    cfg: &HolmesConfig,
    topo: &Topology,
    parameter_group: u8,
) -> Result<RunResult, RunError> {
    run_scenario(
        &Scenario::new(topo.clone(), parameter_group),
        cfg,
        // Holmes without the overlapped optimizer still shards the
        // optimizer (it is built on Megatron's distributed optimizer).
        DpSyncStrategy::DistributedOptimizer,
        None,
    )
}

/// Simulate one of the compared frameworks on a topology (Figures 6/7),
/// optionally instrumented into `obs` (see [`run_scenario`]).
pub fn run_framework(
    kind: FrameworkKind,
    topo: &Topology,
    parameter_group: u8,
    obs: Option<&mut ObsSession>,
) -> Result<RunResult, RunError> {
    run_scenario(
        &Scenario::new(topo.clone(), parameter_group),
        &kind.as_holmes_flags(),
        kind.dp_fallback(),
        obs,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use holmes_topology::{presets, NicType};

    #[test]
    fn holmes_beats_every_baseline_on_hybrid() {
        let topo = presets::hybrid_split(4, 4); // Figure 6's environment
        let tflops = |kind| {
            run_framework(kind, &topo, 3, None)
                .unwrap()
                .metrics
                .tflops_per_gpu
        };
        let holmes = tflops(FrameworkKind::Holmes);
        let mlm = tflops(FrameworkKind::MegatronLm);
        let mds = tflops(FrameworkKind::MegatronDeepSpeed);
        let mll = tflops(FrameworkKind::MegatronLlama);
        assert!(holmes > mlm, "Holmes {holmes} vs Megatron-LM {mlm}");
        assert!(holmes > mds, "Holmes {holmes} vs Megatron-DeepSpeed {mds}");
        assert!(holmes > mll, "Holmes {holmes} vs Megatron-LLaMA {mll}");
        // Figure 6's secondary observation: Megatron-LLaMA beats the others.
        assert!(mll > mlm, "LLaMA {mll} vs LM {mlm}");
    }

    #[test]
    fn ablation_ordering_matches_table5() {
        let topo = presets::hybrid_split(4, 4); // Table 5's setting (PG3)
        let t = |cfg: &HolmesConfig| {
            run_holmes_with(cfg, &topo, 3)
                .unwrap()
                .metrics
                .tflops_per_gpu
        };
        let full = t(&HolmesConfig::full());
        let no_sa = t(&HolmesConfig::without_self_adapting());
        let no_ov = t(&HolmesConfig::without_overlapped_optimizer());
        let no_both = t(&HolmesConfig::without_both());
        assert!(full >= no_sa, "full {full} vs w/o self-adapting {no_sa}");
        assert!(full >= no_ov, "full {full} vs w/o overlap {no_ov}");
        assert!(no_sa >= no_both, "{no_sa} vs {no_both}");
        assert!(no_ov >= no_both, "{no_ov} vs {no_both}");
        // Table 5: the overlapped optimizer contributes more than the
        // self-adapting partition.
        assert!(no_sa >= no_ov, "overlap matters more: {no_sa} vs {no_ov}");
        // Even "w/o both" (NIC selection only) beats full Megatron-LM.
        let mlm = run_framework(FrameworkKind::MegatronLm, &topo, 3, None)
            .unwrap()
            .metrics
            .tflops_per_gpu;
        assert!(
            no_both > mlm,
            "NIC selection alone {no_both} vs Megatron-LM {mlm}"
        );
    }

    #[test]
    fn summary_mentions_the_key_numbers() {
        let topo = presets::hybrid_two_cluster(2);
        let r = run_framework(FrameworkKind::Holmes, &topo, 1, None).unwrap();
        let s = r.summary();
        assert!(s.contains("TFLOPS/GPU"));
        assert!(s.contains("RDMA 2/2"));
    }

    #[test]
    fn run_result_exposes_nic_analysis() {
        let topo = presets::hybrid_two_cluster(2);
        let r = run_framework(FrameworkKind::Holmes, &topo, 1, None).unwrap();
        assert_eq!(r.nic.ethernet_groups, 0);
        assert_eq!(r.stage_layers.iter().sum::<u32>(), 30);
        let r = run_framework(FrameworkKind::MegatronLm, &topo, 1, None).unwrap();
        assert!(r.metrics.tflops_per_gpu > 0.0);
    }

    #[test]
    fn observed_run_matches_unobserved_and_spans_three_layers() {
        use holmes_obs::{Layer, ObsSession};
        let topo = presets::hybrid_two_cluster(2);
        let plain = run_framework(FrameworkKind::Holmes, &topo, 1, None).unwrap();
        let mut session = ObsSession::new();
        let observed = run_framework(FrameworkKind::Holmes, &topo, 1, Some(&mut session)).unwrap();
        // Observation must not perturb the simulated physics.
        assert_eq!(
            plain.metrics.iteration_seconds.to_bits(),
            observed.metrics.iteration_seconds.to_bits()
        );
        assert!(plain.report.events > 0);
        assert_eq!(plain.report.events, observed.report.events);
        // One run populates engine + netsim spans and parallel planning
        // instants — three layers in a single merged trace.
        let layers = session.trace.layers_present();
        assert!(layers.contains(&Layer::Engine), "{layers:?}");
        assert!(layers.contains(&Layer::Netsim), "{layers:?}");
        assert!(layers.contains(&Layer::Parallel), "{layers:?}");
        assert_eq!(session.registry.counter("core.runs"), 1);
        assert!(session.registry.counter("netsim.flows_finished") > 0);
    }

    #[test]
    fn homogeneous_baselines_only_differ_by_optimizer() {
        // In a homogeneous IB cluster the NIC-awareness features are moot;
        // Megatron-LLaMA ≈ Holmes, and both beat plain Megatron-LM.
        let topo = presets::homogeneous(NicType::InfiniBand, 4);
        let holmes = run_framework(FrameworkKind::Holmes, &topo, 1, None).unwrap();
        let llama = run_framework(FrameworkKind::MegatronLlama, &topo, 1, None).unwrap();
        let lm = run_framework(FrameworkKind::MegatronLm, &topo, 1, None).unwrap();
        let rel = (holmes.metrics.tflops_per_gpu - llama.metrics.tflops_per_gpu).abs()
            / holmes.metrics.tflops_per_gpu;
        assert!(rel < 0.05, "Holmes vs LLaMA rel diff {rel}");
        assert!(holmes.metrics.tflops_per_gpu > lm.metrics.tflops_per_gpu);
    }
}
