//! Virtual time. The simulator advances a nanosecond-resolution clock;
//! all latencies and measurements are expressed in it.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Nanoseconds since simulation start.
    pub fn nanos(self) -> u64 {
        self.0
    }

    /// This time expressed in (fractional) microseconds.
    pub fn as_micros(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The span from `earlier` to `self`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        assert!(earlier <= self, "time went backwards");
        SimDuration(self.0 - earlier.0)
    }
}

impl SimDuration {
    /// The zero duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// A duration of `n` nanoseconds.
    pub const fn nanos(n: u64) -> SimDuration {
        SimDuration(n)
    }

    /// A duration of `n` microseconds.
    pub const fn micros(n: u64) -> SimDuration {
        SimDuration(n * 1_000)
    }

    /// A duration of `n` milliseconds.
    pub const fn millis(n: u64) -> SimDuration {
        SimDuration(n * 1_000_000)
    }

    /// The duration in nanoseconds.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// The duration in (fractional) microseconds.
    pub fn as_micros(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Scale by a factor (used for jitter), saturating at zero.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        SimDuration((self.0 as f64 * factor).max(0.0) as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + SimDuration::micros(2);
        assert_eq!(t.nanos(), 2_000);
        let t2 = t + SimDuration::nanos(500);
        assert_eq!(t2.since(t), SimDuration::nanos(500));
        assert_eq!(t2 - t, SimDuration::nanos(500));
        assert_eq!(SimDuration::millis(1), SimDuration::micros(1_000));
    }

    #[test]
    fn conversions_and_display() {
        assert_eq!(SimTime(1_500).as_micros(), 1.5);
        assert_eq!(SimDuration::micros(3).as_nanos(), 3_000);
        assert_eq!(SimTime(1_500).to_string(), "1.500us");
        assert_eq!(SimDuration::nanos(250).to_string(), "0.250us");
    }

    #[test]
    fn mul_f64_scales_and_saturates() {
        assert_eq!(SimDuration::nanos(100).mul_f64(1.5), SimDuration::nanos(150));
        assert_eq!(SimDuration::nanos(100).mul_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn negative_span_panics() {
        let _ = SimTime(1).since(SimTime(2));
    }
}
