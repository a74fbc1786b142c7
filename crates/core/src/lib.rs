//! # holmes
//!
//! The Holmes framework (ICPP 2024 reproduction): heterogeneous-NIC-aware
//! scheduling of distributed LLM training, plus emulations of the
//! mainstream frameworks the paper compares against, all running on the
//! `holmes-netsim` simulated substrate.
//!
//! ## Quick start
//!
//! ```
//! use holmes::{run_framework, FrameworkKind};
//! use holmes_topology::presets;
//!
//! // PG1 (3.6 B GPT) on two 2-node clusters: InfiniBand + RoCE, joined
//! // only by Ethernet — the paper's "Hybird" environment.
//! let topo = presets::hybrid_two_cluster(2);
//! let result = run_framework(FrameworkKind::Holmes, &topo, 1, None).unwrap();
//! println!(
//!     "Holmes: {:.0} TFLOPS/GPU, {:.2} samples/s",
//!     result.metrics.tflops_per_gpu, result.metrics.throughput_samples_per_sec
//! );
//! ```
//!
//! ## Components (paper §3)
//!
//! * **Cross-Cluster Pipeline Parallelism** — pipeline groups span cluster
//!   boundaries so only activation traffic crosses slow Ethernet;
//! * **Automatic NIC Selection** — data-parallel groups confined to
//!   NIC-homogeneous device sets, restoring RDMA;
//! * **Self-Adapting Pipeline Partition** — Eq. 2 layer allocation
//!   proportional to per-stage effective speed (α = 1.05);
//! * **Overlapped Distributed Optimizer** — bucketed reduce-scatter hidden
//!   under the final backward.
//!
//! Each component is a flag in [`HolmesConfig`], enabling the paper's
//! Table 5 ablation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::float_cmp, reason = "tests compare exact bits"))]

pub mod autotune;
pub mod calibration;
mod config;
pub mod estimate;
mod framework;
mod planner;
pub mod progress;
pub mod reliability;
mod report;
pub mod resilience;
mod runner;
pub mod training;

pub use autotune::{autotune, record_autotune, AutotuneRequest, Candidate, SimulatedWork};
pub use config::HolmesConfig;
pub use estimate::{estimate_iteration, IterationEstimate};
pub use framework::FrameworkKind;
pub use planner::{
    placement_gradient_bytes, placement_layer_flops, placement_stage_flops, plan_for, PlanError,
    PlanRequest,
};
pub use reliability::{
    CheckpointPlan, ChurnImpact, ElasticAction, ElasticDecision, ElasticPolicy, GoodputTrace,
    ReliabilityModel,
};
pub use report::TableBuilder;
pub use resilience::{
    run_resilient, verify_preset_progress, ChurnRestart, FaultPreset, ResilienceReport,
};
pub use runner::{run_framework, run_holmes_with, run_scenario, RunError, RunResult, Scenario};
pub use training::{simulate_training_run, TrainingRunConfig, TrainingRunReport};

// Re-export the substrate crates so downstream users need one dependency.
pub use holmes_engine as engine;
pub use holmes_model as model;
pub use holmes_netsim as netsim;
pub use holmes_obs as obs;
pub use holmes_parallel as parallel;
pub use holmes_topology as topology;
