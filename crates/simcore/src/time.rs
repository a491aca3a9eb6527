//! Virtual time for the discrete-event simulation.
//!
//! All simulated components share a single virtual clock owned by the
//! [`crate::Sim`] executor. Time is represented as nanoseconds since the
//! start of the simulation in a [`SimTime`], and intervals use
//! [`std::time::Duration`].

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// A point in virtual time, in nanoseconds since simulation start.
///
/// `SimTime` is a plain 64-bit nanosecond counter: it is `Copy`, totally
/// ordered, and saturates on overflow (a simulation running for 584 years of
/// virtual time is considered a bug elsewhere).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; used as an "infinite" deadline.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Raw nanoseconds since simulation start.
    #[inline]
    pub const fn nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start as a float (for rate computations).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0.saturating_add(duration_nanos(rhs)))
    }
}

impl AddAssign<Duration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    /// Panics in debug builds if `rhs` is later than `self`.
    #[inline]
    fn sub(self, rhs: SimTime) -> Duration {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction underflow");
        Duration::from_nanos(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.6}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{}ns", ns)
        }
    }
}

/// Convert a [`Duration`] to saturating nanoseconds.
#[inline]
pub fn duration_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Duration corresponding to transferring `bytes` at `bytes_per_sec`.
///
/// Used by rate-limited resources (NICs, memory controllers). Rounds up to a
/// whole nanosecond so repeated small transfers still consume time.
#[inline]
pub fn transfer_time(bytes: u64, bytes_per_sec: f64) -> Duration {
    if bytes == 0 || bytes_per_sec <= 0.0 {
        return Duration::ZERO;
    }
    let ns = (bytes as f64) * 1e9 / bytes_per_sec;
    Duration::from_nanos(ns.ceil() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        assert_eq!(SimTime::from_secs(2).nanos(), 2_000_000_000);
        assert_eq!(SimTime::from_millis(3).nanos(), 3_000_000);
        assert_eq!(SimTime::from_micros(4).nanos(), 4_000);
        assert_eq!(SimTime::from_nanos(5).nanos(), 5);
        assert_eq!(SimTime::ZERO.nanos(), 0);
    }

    #[test]
    fn add_duration() {
        let t = SimTime::from_micros(1) + Duration::from_nanos(500);
        assert_eq!(t.nanos(), 1_500);
    }

    #[test]
    fn add_saturates() {
        let t = SimTime::MAX + Duration::from_secs(1);
        assert_eq!(t, SimTime::MAX);
    }

    #[test]
    fn subtraction_gives_duration() {
        let a = SimTime::from_micros(10);
        let b = SimTime::from_micros(4);
        assert_eq!(a - b, Duration::from_micros(6));
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_nanos(1) < SimTime::from_nanos(2));
        assert_eq!(
            SimTime::from_nanos(7).max(SimTime::from_nanos(3)),
            SimTime::from_nanos(7)
        );
    }

    #[test]
    fn transfer_time_rounds_up() {
        // 1 byte at 1 GB/s = 1ns exactly.
        assert_eq!(transfer_time(1, 1e9), Duration::from_nanos(1));
        // 100 Gbit/s = 12.5 GB/s; 4096 bytes -> 327.68ns -> 328ns.
        assert_eq!(transfer_time(4096, 12.5e9), Duration::from_nanos(328));
        assert_eq!(transfer_time(0, 12.5e9), Duration::ZERO);
        assert_eq!(transfer_time(10, 0.0), Duration::ZERO);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimTime::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", SimTime::from_micros(12)), "12.000us");
        assert_eq!(format!("{}", SimTime::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", SimTime::from_secs(12)), "12.000000s");
    }

    #[test]
    fn as_secs_f64() {
        assert!((SimTime::from_millis(1500).as_secs_f64() - 1.5).abs() < 1e-12);
    }
}
