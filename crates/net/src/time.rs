//! Virtual time for the discrete-event simulator.
//!
//! The paper's testbed runs with Δ = 10·n *seconds* because the BLE boards
//! cannot scan and transmit simultaneously; the simulator keeps the same
//! timer structure but in virtual microseconds, so experiments that take
//! hours of wall-clock time on hardware finish in milliseconds.

use core::fmt;
use core::ops::{Add, AddAssign, Mul, Sub};

/// A point in virtual time (microseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time (microseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch, t = 0.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Raw microseconds since the epoch.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Time elapsed since `earlier` (saturating at zero).
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Raw microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
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

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}us", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_behaves() {
        let t = SimTime::from_micros(100);
        let d = SimDuration::from_micros(50);
        assert_eq!(t + d, SimTime::from_micros(150));
        assert_eq!((t + d).since(t), d);
        assert_eq!(d * 4, SimDuration::from_micros(200));
        assert_eq!(d - SimDuration::from_micros(80), SimDuration::ZERO, "saturating");
    }

    #[test]
    fn since_saturates() {
        let a = SimTime::from_micros(10);
        let b = SimTime::from_micros(30);
        assert_eq!(a.since(b), SimDuration::ZERO);
        assert_eq!(b.since(a), SimDuration::from_micros(20));
    }

    #[test]
    fn conversions() {
        assert_eq!(SimDuration::from_millis(3).as_micros(), 3000);
        assert_eq!(SimTime::ZERO.as_micros(), 0);
    }

    #[test]
    fn ordering_is_chronological() {
        assert!(SimTime::from_micros(1) < SimTime::from_micros(2));
        assert!(SimDuration::from_micros(1) < SimDuration::from_millis(1));
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_micros(7).to_string(), "t+7us");
        assert_eq!(SimDuration::from_micros(7).to_string(), "7us");
    }
}
