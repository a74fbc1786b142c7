//! Error type for topology construction and queries.

use std::fmt;

/// Errors produced while building or querying a [`crate::Topology`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A topology must contain at least one cluster with at least one node.
    Empty,
    /// Every node in a topology must have the same GPU count `G` (§2.4
    /// assumes a uniform per-node device count).
    UnevenGpuCounts {
        /// GPU count of the first node.
        expected: u32,
        /// Offending node's GPU count.
        found: u32,
    },
    /// A node declared zero GPUs.
    NodeWithoutGpus,
    /// A rank index was out of range.
    RankOutOfRange {
        /// The offending rank.
        rank: u32,
        /// Total number of devices.
        total: u32,
    },
    /// The topology would hold more than [`crate::MAX_DEVICES`] devices.
    TooManyDevices {
        /// Requested device count (saturated at `u64::MAX`).
        total: u64,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::Empty => write!(f, "topology has no clusters or nodes"),
            TopologyError::UnevenGpuCounts { expected, found } => write!(
                f,
                "all nodes must have the same GPU count (expected {expected}, found {found})"
            ),
            TopologyError::NodeWithoutGpus => write!(f, "node declared zero GPUs"),
            TopologyError::RankOutOfRange { rank, total } => {
                write!(f, "rank {rank} out of range for {total} devices")
            }
            TopologyError::TooManyDevices { total } => write!(
                f,
                "topology would hold {total} devices, more than the {} supported",
                crate::MAX_DEVICES
            ),
        }
    }
}

impl std::error::Error for TopologyError {}
