//! # holmes-topology
//!
//! Hardware-topology substrate for the Holmes reproduction.
//!
//! The Holmes paper (ICPP 2024) schedules LLM-training tasklets onto GPU
//! devices according to the *network interface cards* those devices sit
//! behind. This crate models everything the scheduler needs to know about
//! the physical world:
//!
//! * [`NicType`] / [`NicProfile`] — InfiniBand, RoCE and Ethernet NICs with
//!   bandwidth, latency and protocol-efficiency characteristics, plus the
//!   RDMA compatibility rules (IB↔IB and RoCE↔RoCE can use RDMA; any other
//!   pairing falls back to TCP over Ethernet).
//! * [`GpuProfile`] — an accelerator's peak throughput and memory.
//! * [`LinkProfile`] — the effective transport between two devices
//!   (NVLink, PCI-E, RDMA, or TCP) with an effective-bandwidth model.
//! * [`Node`], [`Cluster`], [`Topology`] — the paper's `C = {c_1 … c_M}`
//!   hierarchy with the exact global rank numbering of §2.4.
//! * [`TopologyBuilder`] and [`presets`] — fluent construction plus the
//!   concrete machine environments used by every experiment in the paper.
//!
//! The topology is immutable once built; all queries are cheap, so
//! schedulers and the event-driven engine can call them in hot paths.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::float_cmp, reason = "tests compare exact bits"))]

mod builder;
mod cluster;
mod error;
mod gpu;
mod link;
mod nic;
pub mod presets;
mod spec;
mod topology;

pub use builder::TopologyBuilder;
pub use cluster::{Cluster, ClusterId, Node, NodeId};
pub use error::TopologyError;
pub use gpu::GpuProfile;
pub use link::{LinkKind, LinkProfile};
pub use nic::{NicProfile, NicType};
pub use spec::parse_topology_spec;
pub use topology::{Device, DeviceCoord, Rank, Topology, MAX_DEVICES};
