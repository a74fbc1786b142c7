//! Simulated clock: integer nanoseconds for exact, deterministic arithmetic.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant on the simulated clock (nanoseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// Simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Seconds since simulation start as `f64` (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-9
    }

    /// Duration since an earlier instant. Saturates at zero.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// From floating-point seconds, rounding to the nearest nanosecond.
    /// Negative inputs clamp to zero (durations are non-negative).
    #[inline]
    #[expect(clippy::cast_possible_truncation, reason = "rounded, saturating")]
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration((secs.max(0.0) * 1e9).round() as u64)
    }

    /// From integer microseconds.
    #[inline]
    pub fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// From integer nanoseconds.
    #[inline]
    pub fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// As floating-point seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-9
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrip() {
        let t = SimTime::ZERO + SimDuration::from_micros(1_500);
        assert_eq!(t.0, 1_500_000);
        assert_eq!(t.since(SimTime::ZERO), SimDuration::from_nanos(1_500_000));
        assert_eq!((t - SimTime(500_000)).0, 1_000_000);
    }

    #[test]
    fn since_saturates() {
        assert_eq!(SimTime(5).since(SimTime(10)), SimDuration::ZERO);
    }

    #[test]
    fn secs_conversion() {
        let d = SimDuration::from_secs_f64(0.25);
        assert_eq!(d.0, 250_000_000);
        assert!((d.as_secs_f64() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn negative_seconds_clamp_to_zero() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn ordering() {
        assert!(SimTime(1) < SimTime(2));
        assert!(SimDuration(3) > SimDuration(2));
    }
}
