//! # holmes-engine
//!
//! The training-iteration execution engine of the Holmes reproduction.
//!
//! Given a hardware [`holmes_topology::Topology`], a
//! [`holmes_parallel::ParallelPlan`] and a [`holmes_model::TrainJob`], the
//! engine builds per-device *op programs* (forward/backward compute,
//! stage-to-stage sends/receives, data-parallel collectives, optimizer
//! step) and executes them on the `holmes-netsim` discrete-event simulator.
//! The iteration wall-clock time — and with it every TFLOPS / throughput
//! number in the paper's tables — *emerges* from the event timeline:
//! pipeline bubbles, NIC contention, and communication/computation overlap
//! are simulated, not computed from closed forms.
//!
//! Modules:
//!
//! * [`ops`] — the op vocabulary ([`Op`], [`MsgKey`], [`ComputeLabel`]).
//! * [`compute`] — analytic per-stage compute durations (GEMM efficiency
//!   curve + intra-node tensor-parallel all-reduce overhead).
//! * [`schedule`] — pipeline schedules: GPipe, 1F1B / PipeDream-Flush
//!   (the paper's schedule) and Megatron's interleaved virtual pipeline,
//!   each a generator of one [`schedule::Unit`] stream per stage.
//! * [`dp_sync`] — gradient-synchronization strategies: plain ring
//!   all-reduce, non-overlapped distributed optimizer (ZeRO-1-style
//!   reduce-scatter + all-gather), and the *Overlapped Distributed
//!   Optimizer* that interleaves bucketed reduce-scatter with the final
//!   backward (§3.2, adopted from Megatron-LLaMA).
//! * [`executor`] — the event-driven interpreter + [`IterationReport`].
//!   Collectives are not hand-rolled here: every [`CollKind`] (rings,
//!   binary tree, and the two-level hierarchical cross-cluster
//!   all-reduce) expands through the shared IR in
//!   [`holmes_netsim::algo`] and is replayed flow-by-flow — the same
//!   schedules the planner's folds price, so measurement and scoring
//!   cannot drift.
//! * [`builder`] — prices every stage once ([`price_stages`]: the
//!   slowest member's compute, chunk costs, units, optimizer step, memory
//!   need; [`compute_floor_seconds`] folds them into a lower bound on the
//!   simulated iteration time) and
//!   assembles the above into a runnable [`ExecutionSpec`],
//!   expanding every schedule's units into ops in one loop; upgrades
//!   flat all-reduces to [`CollKind::HierarchicalAllReduce`] for
//!   data-parallel groups that straddle clusters (see
//!   [`EngineConfig::hierarchical_cross_cluster`]).
//! * [`metrics`] — TFLOPS (Eq. 6) and samples/second from a report.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    test,
    allow(
        clippy::cast_possible_truncation,
        clippy::float_cmp,
        reason = "tests compare exact bits and cast fixture sizes"
    )
)]

pub mod builder;
#[cfg(test)]
mod class_oracle;
pub mod compute;
pub mod dp_sync;
pub mod executor;
pub mod fault;
#[cfg(test)]
mod fault_pin;
pub mod metrics;
mod obs;
pub mod ops;
#[cfg(test)]
mod relabel_oracle;
pub mod schedule;
pub mod timeline;
pub mod validate;

pub use builder::{
    build_iteration, compute_floor_seconds, price_stages, simulate_iteration, BuildError,
    EngineConfig, ScheduleKind, StagePrice,
};
pub use compute::{ComputeModel, StageCost};
pub use dp_sync::DpSyncStrategy;
pub use executor::{
    execute, execute_with_faults, ClassCensus, CollKind, CollectiveSpec, ExecError, ExecutionSpec,
    IterationReport, NodeLinkUsage, TransportPolicy,
};
pub use fault::{
    DegradedCondition, FaultPlan, FaultTarget, FaultWindow, LinkFault, RetryPolicy, Straggler,
};
pub use metrics::TrainingMetrics;
pub use ops::{Channel, ComputeLabel, MsgKey, Op};
pub use timeline::{Span, SpanKind, Timeline};
pub use validate::{validate_spec, SpecError};
