//! Static verification for the Holmes reproduction.
//!
//! Two layers, both pure and dependency-free:
//!
//! * [`verify`] — the **artifact verifier**: structural checks over the
//!   things the stack *generates* (collective-IR schedules, parallel
//!   plans, pipeline partitions, NIC-selection reports) against the
//!   topology they target. The workspace property suite uses them as an
//!   oracle; the mutation tests prove every error variant is reachable.
//! * [`progress`] — the **symbolic progress checker**: a small-scope
//!   model checker that abstractly executes every schedule against an
//!   enumerated fault/churn event space and proves deadlock-freedom,
//!   bounded-retry termination, member-loss soundness, and replan
//!   reachability, with typed counterexample traces on violation.
//!   `holmes::progress` maps the engine's specs and fault plans into its
//!   domain.
//!
//! Nothing here runs on the execution path: `holmes-engine` does not
//! depend on this crate, and this crate does not depend on the engine.

#![warn(missing_docs)]

pub mod progress;
pub mod verify;

pub use progress::{
    check_progress, check_progress_with_scenarios, check_scenario, derive_member_loss_tolerance,
    enumerate_events, enumerate_scenarios, verify_moves_executable, verify_replan_progress,
    Counterexample, EventSpace, FailKind, ProgressCollective, ProgressEvent, ProgressReport,
    ProgressSpec, ProgressVerdict, RetryModel, ScenarioEvent, WaitNode,
};
pub use verify::{
    expected_totals, verify_collective, verify_dp_groups, verify_hetero_partition,
    verify_migration, verify_partition, verify_plan, verify_replan, verify_schedule_structure,
    verify_stage_memory, VerifyError,
};
