//! Virtual time for the discrete-event simulator.
//!
//! Time is measured in integer **nanoseconds** since the start of a
//! simulation run. Using integers (rather than `f64` seconds) keeps event
//! ordering exact and runs bit-reproducible across platforms.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in virtual time (nanoseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of virtual time (nanoseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; used as an "infinite" deadline.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Nanoseconds since simulation start.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration elapsed since `earlier`. Saturates at zero if `earlier`
    /// is in the future.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from whole nanoseconds.
    #[inline]
    pub const fn from_nanos(n: u64) -> SimDuration {
        SimDuration(n)
    }

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> SimDuration {
        SimDuration(us * 1_000)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> SimDuration {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> SimDuration {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from fractional seconds (rounded to nanoseconds).
    ///
    /// Negative or non-finite inputs clamp to zero.
    #[inline]
    pub fn from_secs_f64(s: f64) -> SimDuration {
        if !s.is_finite() || s <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((s * 1e9).round() as u64)
    }

    /// Nanoseconds in this duration.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds in this duration, as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiply by an integer factor.
    #[inline]
    pub fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
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

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
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

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
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
    fn time_arithmetic_roundtrips() {
        let t = SimTime::ZERO + SimDuration::from_millis(5);
        assert_eq!(t.as_nanos(), 5_000_000);
        let t2 = t + SimDuration::from_micros(1);
        assert_eq!((t2 - t).as_nanos(), 1_000);
        assert_eq!(t2 - SimDuration::from_micros(1), t);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(2), SimDuration::from_millis(2_000));
        assert_eq!(SimDuration::from_millis(3), SimDuration::from_micros(3_000));
        assert_eq!(SimDuration::from_micros(7), SimDuration::from_nanos(7_000));
    }

    #[test]
    fn from_secs_f64_rounds_and_clamps() {
        assert_eq!(SimDuration::from_secs_f64(1.5).as_nanos(), 1_500_000_000);
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::ZERO);
    }

    #[test]
    fn since_saturates() {
        let a = SimTime(100);
        let b = SimTime(40);
        assert_eq!(a.since(b).as_nanos(), 60);
        assert_eq!(b.since(a), SimDuration::ZERO);
    }

    #[test]
    fn scalar_ops() {
        let d = SimDuration::from_millis(10);
        assert_eq!(d * 3, SimDuration::from_millis(30));
        assert_eq!(d / 2, SimDuration::from_millis(5));
        assert_eq!(d.saturating_mul(u64::MAX).0, u64::MAX);
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(SimTime(1) < SimTime(2));
        assert!(SimDuration(5) > SimDuration(4));
        assert_eq!(SimTime::MAX.as_nanos(), u64::MAX);
    }
}
