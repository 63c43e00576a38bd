//! Virtual time used by the discrete-event simulator and the protocol timers.
//!
//! All protocol state machines reason about time exclusively through these types, so
//! they can run under the simulator (virtual clock) or, in principle, against a real
//! clock without modification.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, measured in microseconds since the start of the run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Time(pub u64);

/// A span of virtual time, measured in microseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Duration(pub u64);

impl Time {
    /// Time zero (start of the run).
    pub const ZERO: Time = Time(0);

    /// Construct from whole milliseconds.
    pub fn from_millis(ms: u64) -> Time {
        Time(ms * 1_000)
    }

    /// Construct from whole seconds.
    pub fn from_secs(s: u64) -> Time {
        Time(s * 1_000_000)
    }

    /// The value in microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// The value in (possibly fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The value in (possibly fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Duration elapsed since `earlier`, saturating at zero.
    pub fn since(self, earlier: Time) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    /// Zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Construct from whole microseconds.
    pub const fn from_micros(us: u64) -> Duration {
        Duration(us)
    }

    /// Construct from whole milliseconds.
    pub fn from_millis(ms: u64) -> Duration {
        Duration(ms * 1_000)
    }

    /// Construct from whole seconds.
    pub fn from_secs(s: u64) -> Duration {
        Duration(s * 1_000_000)
    }

    /// Construct from fractional milliseconds (rounded down to microseconds).
    pub fn from_millis_f64(ms: f64) -> Duration {
        Duration((ms * 1_000.0).max(0.0) as u64)
    }

    /// The value in microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// The value in (possibly fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The value in (possibly fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Multiply the duration by an integer factor.
    pub fn saturating_mul(self, k: u64) -> Duration {
        Duration(self.0.saturating_mul(k))
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    fn add(self, d: Duration) -> Time {
        Time(self.0 + d.0)
    }
}

impl AddAssign<Duration> for Time {
    fn add_assign(&mut self, d: Duration) {
        self.0 += d.0;
    }
}

impl Sub<Time> for Time {
    type Output = Duration;
    fn sub(self, other: Time) -> Duration {
        Duration(self.0.saturating_sub(other.0))
    }
}

impl Add<Duration> for Duration {
    type Output = Duration;
    fn add(self, d: Duration) -> Duration {
        Duration(self.0 + d.0)
    }
}

impl AddAssign<Duration> for Duration {
    fn add_assign(&mut self, d: Duration) {
        self.0 += d.0;
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrips() {
        let t = Time::from_millis(10) + Duration::from_millis(5);
        assert_eq!(t, Time(15_000));
        assert_eq!(t - Time::from_millis(10), Duration::from_millis(5));
        assert_eq!(Time::from_secs(2).as_secs_f64(), 2.0);
    }

    #[test]
    fn subtraction_saturates() {
        assert_eq!(Time(5).since(Time(10)), Duration::ZERO);
        assert_eq!(Time(5) - Time(10), Duration::ZERO);
    }

    #[test]
    fn fractional_millis() {
        assert_eq!(Duration::from_millis_f64(1.5), Duration(1500));
        assert_eq!(Duration::from_millis_f64(-3.0), Duration::ZERO);
    }

    #[test]
    fn display_is_human_readable() {
        assert_eq!(Duration::from_millis(250).to_string(), "250.000ms");
        assert_eq!(Time::from_secs(3).to_string(), "3.000s");
    }
}
