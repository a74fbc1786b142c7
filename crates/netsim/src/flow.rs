//! Flow descriptions.

use crate::link::LinkId;
use crate::time::SimDuration;

/// Identifier of a flow started on a [`crate::NetSim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u64);

/// Specification of a transfer.
///
/// A flow first waits out `latency` (propagation plus protocol setup), then
/// streams `bytes` through every link on `path` simultaneously, at a rate
/// bounded by the max-min fair share on each link and by `rate_cap`
/// (a single TCP/RDMA connection cannot exceed one NIC port's rate even on
/// an idle fabric).
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// Links traversed. May be empty (e.g. intra-node NVLink transfers,
    /// which we model as uncontended), in which case `rate_cap` alone
    /// bounds the rate.
    pub path: Vec<LinkId>,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Fixed head latency before any byte moves.
    pub latency: SimDuration,
    /// Per-flow rate ceiling in bytes/second (one NIC port / one NVLink
    /// lane). Use `f64::INFINITY` for no cap.
    pub rate_cap: f64,
    /// Opaque caller token, echoed in the completion event.
    pub token: u64,
    /// Number of identical logical flows this entry stands for (at least
    /// one). A counted entry is simulated, completed and cancelled as one
    /// unit, exactly like `count` verbatim starts at the same instant,
    /// which netsim would merge into one twin group anyway; it costs one
    /// event and one completion instead of `count`.
    pub count: u32,
}

impl FlowSpec {
    /// Convenience constructor for an uncontended point-to-point transfer.
    pub fn direct(bytes: u64, latency: SimDuration, rate_cap: f64, token: u64) -> Self {
        FlowSpec {
            path: Vec::new(),
            bytes,
            latency,
            rate_cap,
            token,
            count: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_flow_has_empty_path() {
        let f = FlowSpec::direct(100, SimDuration::from_nanos(5), 1e9, 7);
        assert!(f.path.is_empty());
        assert_eq!(f.bytes, 100);
        assert_eq!(f.token, 7);
    }
}
