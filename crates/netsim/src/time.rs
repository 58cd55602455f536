//! Virtual time.
//!
//! The simulator's clock is a `u64` count of nanoseconds since the start
//! of the run. Nanosecond resolution leaves headroom for sub-millisecond
//! crypto costs while still representing multi-week experiments (Fig. 18
//! simulates two months ≈ 5.2 × 10¹⁵ ns, far below `u64::MAX`).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A span of virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    pub fn from_nanos(ns: u64) -> SimDuration {
        SimDuration(ns)
    }

    /// Saturating, like the one below: a count read from a flag or a
    /// document can be anything, and a span too long to represent is
    /// "forever", not a wrap into a short one.
    pub const fn from_secs(s: u64) -> SimDuration {
        SimDuration(s.saturating_mul(1_000_000_000))
    }

    pub const fn from_hours(h: u64) -> SimDuration {
        SimDuration::from_secs(h.saturating_mul(3600))
    }

    /// Converts a (possibly fractional) millisecond count, rounding to
    /// the nearest nanosecond. Negative values clamp to zero — delay
    /// models can mathematically produce tiny negative values after
    /// subtractions, and a delay below zero is meaningless.
    pub fn from_millis_f64(ms: f64) -> SimDuration {
        SimDuration((ms.max(0.0) * 1_000_000.0).round() as u64)
    }

    pub fn as_nanos(self) -> u64 {
        self.0
    }

    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }
}

/// An instant of virtual time (nanoseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);

    pub fn as_nanos(self) -> u64 {
        self.0
    }

    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    pub(crate) fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Hours since simulation start, fractional. The diurnal load model
    /// keys off this.
    pub(crate) fn as_hours_f64(self) -> f64 {
        self.as_secs_f64() / 3600.0
    }

    /// Saturating difference.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

/// Saturating, like [`SimTime::since`]: durations read back from a
/// checkpoint can be anything, and an instant past the end of time is
/// "never", not a wrap into the past.
impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip() {
        assert_eq!(SimDuration::from_secs(2).as_millis_f64(), 2000.0);
        assert_eq!(SimDuration::from_hours(1).as_secs_f64(), 3600.0);
    }

    #[test]
    fn fractional_millis() {
        let d = SimDuration::from_millis_f64(1.5);
        assert_eq!(d.as_nanos(), 1_500_000);
        // Negative clamps to zero.
        assert_eq!(SimDuration::from_millis_f64(-3.0), SimDuration::ZERO);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_nanos(10_000_000);
        assert_eq!(t.as_millis_f64(), 10.0);
        let later = t + SimDuration::from_nanos(5_000_000);
        assert_eq!((later - t).as_millis_f64(), 5.0);
        // Saturating: earlier - later = 0.
        assert_eq!(t - later, SimDuration::ZERO);
        // And at the other end: past the end of time is the end of time.
        let never = SimTime(u64::MAX);
        assert_eq!(t + SimDuration(u64::MAX), never);
        assert_eq!(
            SimDuration(u64::MAX) + SimDuration(1),
            SimDuration(u64::MAX)
        );
        let mut clock = never;
        clock += SimDuration(1);
        assert_eq!(clock, never);
        // So do the unit constructors, at the first count past the end
        // and at the largest; one below the boundary is still exact.
        let forever = SimDuration(u64::MAX);
        let saturates = |from: fn(u64) -> SimDuration, ns: u64| {
            let last = u64::MAX / ns;
            assert_eq!(from(last), SimDuration(last * ns));
            assert_eq!(from(last + 1), forever);
            assert_eq!(from(u64::MAX), forever);
        };
        saturates(SimDuration::from_secs, 1_000_000_000);
        saturates(SimDuration::from_hours, 3_600_000_000_000);
        // Hours that fit as seconds but not as nanoseconds.
        assert_eq!(SimDuration::from_hours(u64::MAX / 1000), forever);
    }

    #[test]
    fn ordering() {
        let a = SimTime(5);
        let b = SimTime(9);
        assert!(a < b);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn hours_view() {
        let t = SimTime::ZERO + SimDuration::from_hours(36);
        assert_eq!(t.as_hours_f64(), 36.0);
    }

    #[test]
    fn two_month_experiment_fits() {
        let t = SimTime::ZERO + SimDuration::from_hours(60 * 24);
        assert!(t.as_nanos() < u64::MAX / 1000);
    }
}
