//! Simulated time: [`Tick`] (one picosecond, like gem5) and [`Window`].

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or span of) simulated time, in picoseconds.
///
/// `Tick` is an integer newtype so that component latencies compose without
/// floating-point drift; conversions to nanoseconds/microseconds are
/// provided for reporting.
///
/// ```
/// use sim_core::Tick;
/// let t = Tick::from_ns(2) + Tick::from_ps(500);
/// assert_eq!(t.as_ps(), 2_500);
/// assert!((t.as_ns_f64() - 2.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Tick(u64);

impl Tick {
    /// Time zero.
    pub const ZERO: Tick = Tick(0);
    /// The largest representable time; used as "never".
    pub const MAX: Tick = Tick(u64::MAX);

    /// Creates a tick count from picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        Tick(ps)
    }

    /// Creates a tick count from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        Tick(ns * 1_000)
    }

    /// Creates a tick count from microseconds.
    pub const fn from_us(us: u64) -> Self {
        Tick(us * 1_000_000)
    }

    /// Creates a tick count from a (non-negative, finite) nanosecond value.
    ///
    /// # Panics
    ///
    /// Panics if `ns` is negative, NaN, or too large for a `u64` of
    /// picoseconds.
    pub fn from_ns_f64(ns: f64) -> Self {
        assert!(ns.is_finite() && ns >= 0.0, "invalid nanosecond value {ns}");
        let ps = ns * 1_000.0;
        assert!(ps <= u64::MAX as f64, "tick overflow: {ns} ns");
        Tick(ps.round() as u64)
    }

    /// Raw picosecond count.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Time in nanoseconds as a float (for reporting).
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Time in microseconds as a float (for reporting).
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Time in seconds as a float (for bandwidth math).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Tick) -> Tick {
        Tick(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Tick {
    type Output = Tick;
    fn add(self, rhs: Tick) -> Tick {
        Tick(self.0 + rhs.0)
    }
}

impl AddAssign for Tick {
    fn add_assign(&mut self, rhs: Tick) {
        self.0 += rhs.0;
    }
}

impl Sub for Tick {
    type Output = Tick;
    fn sub(self, rhs: Tick) -> Tick {
        Tick(self.0 - rhs.0)
    }
}

impl SubAssign for Tick {
    fn sub_assign(&mut self, rhs: Tick) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Tick {
    type Output = Tick;
    fn mul(self, rhs: u64) -> Tick {
        Tick(self.0 * rhs)
    }
}

impl Div<u64> for Tick {
    type Output = Tick;
    fn div(self, rhs: u64) -> Tick {
        Tick(self.0 / rhs)
    }
}

impl Sum for Tick {
    fn sum<I: Iterator<Item = Tick>>(iter: I) -> Tick {
        iter.fold(Tick::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Tick {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}us", self.as_us_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ns", self.as_ns_f64())
        } else {
            write!(f, "{}ps", self.0)
        }
    }
}

/// A half-open window `[from, until)` of simulated time.
///
/// Timed effects (fault-injection windows, measurement intervals) are
/// scheduled against windows rather than single ticks so that "is this
/// event affected?" is a pure predicate of the event's own timestamp —
/// the foundation of order-independent fault injection.
///
/// ```
/// use sim_core::{Tick, Window};
/// let w = Window::new(Tick::from_ns(10), Tick::from_ns(20));
/// assert!(w.contains(Tick::from_ns(10)));
/// assert!(!w.contains(Tick::from_ns(20)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Window {
    /// First tick inside the window.
    pub from: Tick,
    /// First tick past the window.
    pub until: Tick,
}

impl Window {
    /// Creates the window `[from, until)`.
    ///
    /// # Panics
    ///
    /// Panics if `until <= from` (empty or inverted windows are almost
    /// always plan bugs; reject them loudly).
    pub fn new(from: Tick, until: Tick) -> Self {
        assert!(until > from, "empty window: [{from}, {until})");
        Window { from, until }
    }

    /// Whether `t` falls inside the window.
    pub fn contains(&self, t: Tick) -> bool {
        t >= self.from && t < self.until
    }

    /// Whether the two windows share any tick.
    pub fn overlaps(&self, other: &Window) -> bool {
        self.from < other.until && other.from < self.until
    }
}

impl fmt::Display for Window {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.from, self.until)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_conversions_round_trip() {
        assert_eq!(Tick::from_ns(3).as_ps(), 3_000);
        assert_eq!(Tick::from_us(2).as_ps(), 2_000_000);
        assert!((Tick::from_ps(1_500).as_ns_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn tick_arithmetic() {
        let a = Tick::from_ns(10);
        let b = Tick::from_ns(4);
        assert_eq!(a + b, Tick::from_ns(14));
        assert_eq!(a - b, Tick::from_ns(6));
        assert_eq!(a * 3, Tick::from_ns(30));
        assert_eq!(a / 2, Tick::from_ns(5));
        assert_eq!(b.saturating_sub(a), Tick::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn tick_sum() {
        let total: Tick = (1..=4).map(Tick::from_ns).sum();
        assert_eq!(total, Tick::from_ns(10));
    }

    #[test]
    fn tick_from_ns_f64_rounds() {
        assert_eq!(Tick::from_ns_f64(1.2345).as_ps(), 1_235); // .5 rounds away
        assert_eq!(Tick::from_ns_f64(0.0), Tick::ZERO);
    }

    #[test]
    #[should_panic]
    fn tick_from_ns_f64_rejects_negative() {
        let _ = Tick::from_ns_f64(-1.0);
    }

    #[test]
    fn window_membership_is_half_open() {
        let w = Window::new(Tick::from_ns(5), Tick::from_ns(9));
        assert!(!w.contains(Tick::from_ns(4)));
        assert!(w.contains(Tick::from_ns(5)));
        assert!(w.contains(Tick::from_ps(8_999)));
        assert!(!w.contains(Tick::from_ns(9)));
    }

    #[test]
    fn window_overlap_is_symmetric_and_half_open() {
        let a = Window::new(Tick::from_ns(0), Tick::from_ns(10));
        let b = Window::new(Tick::from_ns(9), Tick::from_ns(20));
        let c = Window::new(Tick::from_ns(10), Tick::from_ns(20));
        assert!(a.overlaps(&b) && b.overlaps(&a));
        assert!(!a.overlaps(&c) && !c.overlaps(&a));
    }

    #[test]
    #[should_panic]
    fn window_rejects_empty() {
        let _ = Window::new(Tick::from_ns(5), Tick::from_ns(5));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Tick::from_ps(7).to_string(), "7ps");
        assert_eq!(Tick::from_ns(7).to_string(), "7.000ns");
        assert_eq!(Tick::from_us(7).to_string(), "7.000us");
    }
}
