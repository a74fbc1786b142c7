//! # holmes-netsim
//!
//! Deterministic discrete-event, flow-level network simulator used as the
//! communication substrate of the Holmes reproduction.
//!
//! The Holmes paper measures wall-clock training time on real clusters whose
//! NICs (InfiniBand / RoCE / Ethernet) differ in bandwidth, latency and
//! protocol efficiency. We reproduce those measurements with a *fluid-flow*
//! model: every in-flight transfer is a flow across a path of shared links;
//! link capacity is divided among concurrent flows by **max-min fairness**,
//! recomputed whenever a flow starts or finishes. This captures exactly the
//! effects the paper's scheduling method exploits — which traffic class sits
//! on which NIC, and how contention on a shared uplink slows a collective.
//!
//! Components:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-nanosecond simulated clock.
//! * [`NetSim`] — the event queue plus the active-flow set. Pull-based API:
//!   callers start flows / set timers, then repeatedly call
//!   [`NetSim::next`] to advance to the next completion.
//! * [`Fabric`] — maps a [`holmes_topology::Topology`] onto simulator links
//!   (per-node RDMA and Ethernet uplinks/downlinks, optional inter-cluster
//!   trunk) and routes rank-to-rank transfers; [`RouteTable`] memoises
//!   those routes per node pair and transport for one execution.
//! * The fault vocabulary every layer shares: a [`FaultTarget`] names the
//!   links one fault acts on ([`Fabric::links_of`] expands it), a
//!   [`LinkHealth`] is the state they enter, scheduled with
//!   [`NetSim::schedule_fault_at`]; a [`ChurnEvent`] is one node leaving
//!   or joining, scheduled with [`NetSim::schedule_churn_at`]. The
//!   engine's fault plans and the symbolic progress checker speak these
//!   same types.
//! * [`algo`] — the collective algorithm IR: every algorithm (ring
//!   reduce-scatter / all-gather / all-reduce, tree all-reduce, pipelined
//!   broadcast, hierarchical cross-cluster all-reduce) is defined **once**
//!   as a run-length round schedule of `(sender, receiver, bytes)`
//!   transfers. The engine replays schedules flow-by-flow; the analytic
//!   layers fold the same schedules over per-link cost models, and no
//!   collective has a second, closed-form cost.
//! * [`collective`] — [`collective::ring_link`], the uniform link a ring
//!   of ranks runs at (its slowest hop and largest latency), over which
//!   the planner and the estimator fold ring schedules.
//! * [`WordHash`] — the deterministic word hasher for maps probed on
//!   every event, here and in the executor.

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

pub mod algo;
mod arena;
pub mod churn;
pub mod collective;
mod fabric;
mod flow;
mod hash;
mod link;
pub mod obs;
pub mod refsim;
mod sched;
mod sim;
mod sim_fast;
mod time;

pub use churn::{ChurnEvent, ChurnKind};
pub use fabric::{Fabric, FaultTarget, Route, RouteTable};
pub use flow::{FlowId, FlowSpec};
pub use hash::{WordHash, WordHasher};
pub use link::{LinkCapacity, LinkHealth, LinkId, LinkStats};
pub use obs::{FlowOutcome, FlowRecord, LinkWindow, NetObsReport, ParkEvent};
pub use sim::{Completion, NetSim};
pub use time::{SimDuration, SimTime};
