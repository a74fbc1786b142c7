//! # holmes-parallel
//!
//! The parallel-group algebra and scheduling machinery of the Holmes paper.
//!
//! The paper formalizes distributed training as a scheduling problem
//! (§2.4): `N = t·p·d` devices are organized into tensor-, pipeline- and
//! data-parallel groups given by the matrices of Eqs. 1, 3 and 4. This
//! crate implements:
//!
//! * [`ParallelDegrees`] — validated `(t, p, d)` degree triples;
//! * [`GroupLayout`] — the exact `[TP]`, `[PP]`, `[DP]` matrices over
//!   *logical* ranks, with O(1) membership queries;
//! * [`DeviceAssignment`] — mapping logical ranks onto physical devices:
//!   the Megatron-style sequential order ([`DeviceAssignment::identity`]),
//!   an adversarial interleaved hostfile ([`InterleavedScheduler`]), and
//!   the NIC-aware Holmes order that aligns pipeline stages with cluster
//!   boundaries ([`HolmesScheduler`]);
//! * [`NicSelectionReport`] — the paper's *Automatic NIC Selection*
//!   analysis: which data-parallel groups are NIC-homogeneous (and may use
//!   RDMA) and which are forced down to Ethernet;
//! * [`UniformPartition`] vs [`SelfAdaptingPartition`] (Eq. 2) pipeline
//!   layer partitioning, plus the [`StragglerAwarePartition`] that
//!   generalizes Eq. 2 to per-stage heterogeneous device speeds;
//! * [`PlacementWorkload`] — the two-axis pricing signal (gradient bytes +
//!   per-device stage FLOPs) that lets every planner charge DP groups a
//!   compute-straggler tax on mixed-generation fleets (see [`skew`]); it is
//!   the only thing a placement is priced against, and a bare `u64`
//!   gradient volume converts into its zero-FLOPs form;
//! * [`ParallelPlan`] — the assembled plan consumed by the engine;
//! * [`synthesize_placement`] — guided branch-and-bound plan synthesis,
//!   the production placement: it returns the exact winner of
//!   [`search_cluster_orders`] (all `M!` cluster orders, the reference
//!   oracle for tests) and scales to many-cluster fleets;
//! * [`TopologyDelta`] + [`replan_for_delta`] — typed membership churn
//!   (NIC loss, node loss, node join) and the migration-aware re-plan:
//!   the post-churn placement is re-synthesized and the optimizer-state
//!   migration is priced by simulating the shard copies on the post-churn
//!   fabric.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    test,
    allow(
        clippy::cast_possible_truncation,
        clippy::float_cmp,
        clippy::iter_over_hash_type,
        reason = "tests compare exact bits, cast fixture sizes and walk hash sets"
    )
)]

mod degrees;
pub mod delta;
mod groups;
mod nic_selection;
pub mod obs;
mod partition;
mod plan;
mod scheduler;
mod search;
pub mod skew;
mod straggler;
mod synth;

pub use degrees::{DegreeError, ParallelDegrees};
pub use delta::{
    replan_for_delta, DeltaError, DeltaEvent, DeltaReplanOutcome, MigrationCosts, MigrationPlan,
    StateMove, TopologyDelta,
};
pub use groups::GroupLayout;
pub use nic_selection::{DpCollectiveAlgo, DpGroupNic, NicSelectionReport, ReplanOutcome};
pub use partition::{SelfAdaptingPartition, UniformPartition};
pub use plan::ParallelPlan;
pub use scheduler::{DeviceAssignment, HolmesScheduler, InterleavedScheduler};
pub use search::{assignment_for_order, search_cluster_orders, PlacementSearchResult};
pub use skew::PlacementWorkload;
pub use straggler::{StageProfile, StragglerAwarePartition};
pub use synth::{speed_rank_of, synthesize_placement, GuidedPlanner, SynthStats};
