//! Compute-skew pricing for hyper-heterogeneous fleets.
//!
//! At zero stage FLOPs the Holmes planner scores a placement by the
//! max-fold of per-DP-group gradient-sync costs
//! ([`crate::NicSelectionReport::dp_sync_cost_seconds`]). That prices
//! *NIC* heterogeneity but assumes every device computes at the same
//! rate. When a fleet mixes accelerator generations (H2-style
//! hyper-heterogeneity), a DP group whose replicas straddle generations
//! pays a *straggler tax*: every collective waits for the slowest member
//! to finish its backward, so the group's effective step time stretches by
//! the compute-time gap between its fastest and slowest members.
//!
//! [`PlacementWorkload`] carries the second signal needed to price that
//! gap — the per-device FLOPs of one pipeline stage's work — alongside the
//! per-rank gradient volume the sync fold already used. A group's priced
//! cost becomes `sync_seconds + skew_seconds`, where the skew term is
//! `max − min` of the members' [`holmes_topology::GpuProfile::compute_seconds`]
//! at the workload's stage FLOPs:
//!
//! * **compute-uniform fleets are bit-identical** — identical profiles give
//!   `max == min`, so the skew term is exactly `+0.0` and `sync + 0.0`
//!   preserves every historical cost, pruning decision, and snapshot
//!   bit-for-bit (and [`PlacementWorkload::gradient_only`] — also spelled
//!   `PlacementWorkload::from(gradient_bytes)`, so every pricing entry
//!   accepts a bare `u64` — forces the same degeneration on any fleet by
//!   pricing zero stage FLOPs);
//! * **the guided bound stays admissible** — the skew term is non-negative
//!   and a function of the group's device set alone, so the max-fold over
//!   *determined* groups is still a lower bound on any completion, and
//!   still the exact cost at a complete state;
//! * **DP-group formation weighs compute skew alongside NIC homogeneity** —
//!   orders that confine each DP group to one generation eliminate their
//!   skew terms exactly as orders confining groups to one NIC class
//!   eliminate their TCP downgrades.

/// What a candidate placement is priced against: the per-rank gradient
/// volume (NIC axis) and the per-device FLOPs of one stage's work
/// (compute axis).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementWorkload {
    /// Data-parallel gradient bytes per rank (the historical signal).
    pub gradient_bytes: u64,
    /// Per-device FLOPs of one pipeline stage's per-iteration work; the
    /// straggler-skew term prices each DP group's fastest-vs-slowest
    /// compute gap at this kernel size. Zero disables skew pricing.
    pub stage_flops: f64,
}

impl PlacementWorkload {
    /// A workload pricing both axes.
    pub fn new(gradient_bytes: u64, stage_flops: f64) -> Self {
        debug_assert!(stage_flops >= 0.0, "stage FLOPs must be non-negative");
        PlacementWorkload {
            gradient_bytes,
            stage_flops,
        }
    }

    /// The historical gradient-only workload: skew pricing disabled, so
    /// every cost this workload produces is bit-identical to the pre-skew
    /// scoring path.
    pub fn gradient_only(gradient_bytes: u64) -> Self {
        PlacementWorkload {
            gradient_bytes,
            stage_flops: 0.0,
        }
    }
}

/// A bare gradient volume is the zero-FLOPs workload
/// ([`PlacementWorkload::gradient_only`]), so every pricing entry point
/// accepts `gradient_bytes` directly.
impl From<u64> for PlacementWorkload {
    fn from(gradient_bytes: u64) -> Self {
        PlacementWorkload::gradient_only(gradient_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gradient_only_disables_skew() {
        let w = PlacementWorkload::gradient_only(1 << 32);
        assert_eq!(w.gradient_bytes, 1 << 32);
        assert_eq!(w.stage_flops, 0.0);
        assert_eq!(PlacementWorkload::from(1u64 << 32), w);
    }

    #[test]
    fn new_carries_both_axes() {
        let w = PlacementWorkload::new(4096, 1.5e12);
        assert_eq!(w.gradient_bytes, 4096);
        assert_eq!(w.stage_flops, 1.5e12);
    }
}
