//! Virtual time for the deterministic simulator.
//!
//! The simulator measures time in integer nanoseconds since the start of the
//! run. Using integers (not floats) keeps event ordering exact and runs
//! reproducible. [`Duration`] is a thin wrapper with the usual arithmetic;
//! conversions to and from [`std::time::Duration`] are provided for the real
//! network runtimes.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A span of (virtual) time, in nanoseconds.
///
/// # Example
///
/// ```
/// use iabc_types::Duration;
/// let d = Duration::from_micros(150) + Duration::from_micros(50);
/// assert_eq!(d, Duration::from_micros(200));
/// ```
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Duration(u64);

impl Duration {
    /// The zero duration.
    pub const ZERO: Duration = Duration(0);

    /// Creates a duration from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Duration(ns)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Duration(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000_000)
    }

    /// Creates a duration from seconds.
    pub const fn from_secs(s: u64) -> Self {
        Duration(s * 1_000_000_000)
    }

    /// Creates a duration from a floating-point number of seconds,
    /// rounding to the nearest nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN, or too large to represent.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid duration: {secs}");
        let ns = secs * 1e9;
        assert!(ns <= u64::MAX as f64, "duration too large: {secs}s");
        Duration(ns.round() as u64)
    }

    /// Duration in whole nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Duration in microseconds (float).
    fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Duration in milliseconds (float).
    fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration in seconds (float).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Whether this duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub const fn saturating_sub(self, other: Duration) -> Duration {
        Duration(self.0.saturating_sub(other.0))
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, Add::add)
    }
}

impl From<std::time::Duration> for Duration {
    fn from(d: std::time::Duration) -> Self {
        Duration(d.as_nanos().min(u64::MAX as u128) as u64)
    }
}

impl From<Duration> for std::time::Duration {
    fn from(d: Duration) -> Self {
        std::time::Duration::from_nanos(d.0)
    }
}

/// An instant on the virtual time line (nanoseconds since run start).
///
/// # Example
///
/// ```
/// use iabc_types::{Duration, Time};
/// let t = Time::ZERO + Duration::from_millis(5);
/// assert_eq!(t.elapsed_since(Time::ZERO), Duration::from_millis(5));
/// ```
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Time(u64);

impl Time {
    /// The start of the run.
    pub const ZERO: Time = Time(0);

    /// Creates a time from nanoseconds since run start.
    pub const fn from_nanos(ns: u64) -> Self {
        Time(ns)
    }

    /// Nanoseconds since run start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since run start (float).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time elapsed since an earlier instant.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `earlier` is later than `self`.
    pub fn elapsed_since(self, earlier: Time) -> Duration {
        debug_assert!(earlier.0 <= self.0, "elapsed_since: earlier ({earlier:?}) > self ({self:?})");
        Duration(self.0 - earlier.0)
    }

    /// The later of two instants.
    pub fn max(self, other: Time) -> Time {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    fn add(self, rhs: Duration) -> Time {
        Time(self.0 + rhs.as_nanos())
    }
}

impl AddAssign<Duration> for Time {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.as_nanos();
    }
}

impl Sub<Duration> for Time {
    type Output = Time;
    fn sub(self, rhs: Duration) -> Time {
        Time(self.0 - rhs.as_nanos())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(Duration::from_secs(1), Duration::from_millis(1000));
        assert_eq!(Duration::from_millis(1), Duration::from_micros(1000));
        assert_eq!(Duration::from_micros(1), Duration::from_nanos(1000));
    }

    #[test]
    fn duration_arithmetic() {
        let a = Duration::from_micros(10);
        let b = Duration::from_micros(4);
        assert_eq!(a + b, Duration::from_micros(14));
        assert_eq!(a - b, Duration::from_micros(6));
        assert_eq!(a * 3, Duration::from_micros(30));
        assert_eq!(a / 2, Duration::from_micros(5));
        assert_eq!(b.saturating_sub(a), Duration::ZERO);
    }

    #[test]
    fn duration_float_conversions() {
        let d = Duration::from_secs_f64(0.0015);
        assert_eq!(d, Duration::from_micros(1500));
        assert!((d.as_millis_f64() - 1.5).abs() < 1e-12);
        assert!((d.as_micros_f64() - 1500.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn negative_duration_panics() {
        let _ = Duration::from_secs_f64(-1.0);
    }

    #[test]
    fn time_ordering_and_arithmetic() {
        let t0 = Time::ZERO;
        let t1 = t0 + Duration::from_millis(3);
        assert!(t1 > t0);
        assert_eq!(t1.elapsed_since(t0), Duration::from_millis(3));
        assert_eq!(t1 - Duration::from_millis(3), t0);
        assert_eq!(t0.max(t1), t1);
    }

    #[test]
    fn std_duration_roundtrip() {
        let d = Duration::from_micros(1234);
        let std: std::time::Duration = d.into();
        let back: Duration = std.into();
        assert_eq!(d, back);
    }

    #[test]
    fn duration_sum() {
        let total: Duration = (1..=4).map(Duration::from_micros).sum();
        assert_eq!(total, Duration::from_micros(10));
    }

    #[test]
    fn debug_formats() {
        assert_eq!(format!("{:?}", Duration::from_nanos(12)), "12ns");
        assert_eq!(format!("{:?}", Duration::from_micros(12)), "12.000us");
        assert_eq!(format!("{:?}", Duration::from_millis(12)), "12.000ms");
        assert_eq!(format!("{:?}", Time::ZERO), "t=0.000000s");
    }
}
