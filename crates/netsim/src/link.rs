//! Shared-capacity links: the contended resources of the fluid-flow model.

/// Identifier of a link registered with a [`crate::NetSim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct LinkId(pub u32);

/// A link's capacity in bytes per second.
///
/// Capacities already include protocol efficiency (the
/// `holmes-topology` NIC profiles fold PFC/TCP overheads into their
/// effective rates), so the simulator itself is protocol-agnostic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkCapacity {
    /// Aggregate capacity shared by all flows on the link, bytes/second.
    pub bytes_per_sec: f64,
}

impl LinkCapacity {
    /// Capacity below which a link counts as dead: flows crossing it are
    /// *parked* (rate zero, no completion scheduled) instead of being
    /// assigned an absurd-but-finite finish time. One millibyte per
    /// second is far below any physically meaningful rate.
    pub const DEAD_FLOOR: f64 = 1e-3;

    /// Construct. Negative inputs clamp to zero; zero and near-zero
    /// capacities are legal and mean the link is dead (see
    /// [`LinkCapacity::is_dead`]) — flows crossing it stall until the
    /// capacity is restored rather than finishing at a bogus time.
    pub fn new(bytes_per_sec: f64) -> Self {
        LinkCapacity {
            bytes_per_sec: bytes_per_sec.max(0.0),
        }
    }

    /// A fully failed link (zero capacity).
    pub fn down() -> Self {
        LinkCapacity { bytes_per_sec: 0.0 }
    }

    /// True when the link cannot move traffic at any meaningful rate.
    pub fn is_dead(self) -> bool {
        self.bytes_per_sec < Self::DEAD_FLOOR
    }
}

/// Operational health of a link — the per-link fault state machine.
///
/// Transitions are driven by [`crate::NetSim::set_link_health`], either
/// directly or at a scheduled instant by
/// [`crate::NetSim::schedule_fault_at`]. Health scales the link's
/// *nominal* capacity (set at registration or by
/// [`crate::NetSim::set_link_capacity`]) into its effective capacity:
///
/// ```text
///            degrade(f)                down
///  Healthy ───────────▶ Degraded{f} ─────────▶ Down
///     ▲                      │                   │
///     └──────── restore ─────┴───── restore ─────┘
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum LinkHealth {
    /// Full nominal capacity.
    #[default]
    Healthy,
    /// Operating at a fraction of nominal capacity (congestion collapse,
    /// port flaps eating goodput, partial lane failure).
    Degraded {
        /// Fraction of nominal capacity still available, clamped to
        /// `[0, 1]` when applied.
        fraction: f64,
    },
    /// No capacity at all: flows crossing the link park until restored.
    Down,
}

impl LinkHealth {
    /// Multiplier applied to nominal capacity.
    pub fn capacity_factor(self) -> f64 {
        match self {
            LinkHealth::Healthy => 1.0,
            LinkHealth::Degraded { fraction } => fraction.clamp(0.0, 1.0),
            LinkHealth::Down => 0.0,
        }
    }

    /// True for [`LinkHealth::Down`].
    pub fn is_down(self) -> bool {
        matches!(self, LinkHealth::Down)
    }

    /// True for [`LinkHealth::Healthy`].
    pub fn is_healthy(self) -> bool {
        matches!(self, LinkHealth::Healthy)
    }
}

/// Accumulated per-link traffic statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LinkStats {
    /// Total bytes moved through the link.
    pub bytes: f64,
    /// Seconds during which at least one flow was using the link.
    pub busy_seconds: f64,
}

impl LinkStats {
    /// Mean utilization of a link with `capacity` over a `horizon` of
    /// seconds: moved bytes over the bytes the link *could* have moved.
    pub fn utilization(&self, capacity: LinkCapacity, horizon_seconds: f64) -> f64 {
        if horizon_seconds <= 0.0 {
            return 0.0;
        }
        (self.bytes / (capacity.bytes_per_sec * horizon_seconds)).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_capacity_is_dead_not_negative() {
        assert_eq!(LinkCapacity::new(0.0).bytes_per_sec, 0.0);
        assert_eq!(LinkCapacity::new(-5.0).bytes_per_sec, 0.0);
        assert!(LinkCapacity::new(0.0).is_dead());
        assert!(LinkCapacity::down().is_dead());
        assert!(!LinkCapacity::new(1e9).is_dead());
    }

    #[test]
    fn health_capacity_factors() {
        assert_eq!(LinkHealth::Healthy.capacity_factor(), 1.0);
        assert_eq!(LinkHealth::Down.capacity_factor(), 0.0);
        assert_eq!(
            LinkHealth::Degraded { fraction: 0.25 }.capacity_factor(),
            0.25
        );
        // Out-of-range fractions clamp instead of inverting the fault.
        assert_eq!(
            LinkHealth::Degraded { fraction: 7.0 }.capacity_factor(),
            1.0
        );
        assert_eq!(
            LinkHealth::Degraded { fraction: -1.0 }.capacity_factor(),
            0.0
        );
        assert!(LinkHealth::Down.is_down());
        assert!(LinkHealth::Healthy.is_healthy());
    }

    #[test]
    fn positive_capacity_preserved() {
        assert_eq!(LinkCapacity::new(1e9).bytes_per_sec, 1e9);
    }

    #[test]
    fn utilization_math() {
        let stats = LinkStats {
            bytes: 5e8,
            busy_seconds: 0.5,
        };
        let cap = LinkCapacity::new(1e9);
        assert!((stats.utilization(cap, 1.0) - 0.5).abs() < 1e-12);
        assert_eq!(stats.utilization(cap, 0.0), 0.0);
        // Can never exceed 1.
        assert_eq!(
            LinkStats {
                bytes: 1e12,
                busy_seconds: 1.0
            }
            .utilization(cap, 1.0),
            1.0
        );
    }
}
