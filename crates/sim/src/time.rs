use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use crate::SimError;

/// A simulation timestamp with femtosecond resolution.
///
/// `Time` wraps an unsigned femtosecond count. Integer timestamps make
/// event ordering exact: `t + dt - dt == t` always holds, and two events
/// scheduled for "the same instant" genuinely compare equal, which a
/// floating-point representation cannot guarantee.
///
/// Construction helpers exist for the scales that appear in the buck
/// experiments (`ps`, `ns`, `us`); conversion back to floating-point seconds
/// is provided for the analog solver.
///
/// # Examples
///
/// ```
/// use a4a_sim::Time;
///
/// let t = Time::from_ns(2.5) + Time::from_ps(500.0);
/// assert_eq!(t, Time::from_ns(3.0));
/// assert!((t.as_secs() - 3.0e-9).abs() < 1e-18);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

impl Time {
    /// The zero timestamp (simulation start).
    pub const ZERO: Time = Time(0);
    /// The largest representable timestamp; useful as an "never" sentinel.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates a timestamp from an integer number of femtoseconds.
    pub const fn from_fs(fs: u64) -> Self {
        Time(fs)
    }

    /// Creates a timestamp from picoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `ps` is NaN, negative, infinite, or out of range; a
    /// value from outside the program goes through [`Time::try_from_secs`].
    pub fn from_ps(ps: f64) -> Self {
        Self::from_scaled(ps, 1e3, "ps")
    }

    /// Creates a timestamp from nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `ns` is NaN, negative, infinite, or out of range; a
    /// value from outside the program goes through [`Time::try_from_secs`].
    pub fn from_ns(ns: f64) -> Self {
        Self::from_scaled(ns, 1e6, "ns")
    }

    /// Creates a timestamp from microseconds.
    ///
    /// # Panics
    ///
    /// Panics if `us` is NaN, negative, infinite, or out of range; a
    /// value from outside the program goes through [`Time::try_from_secs`].
    pub fn from_us(us: f64) -> Self {
        Self::from_scaled(us, 1e9, "us")
    }

    /// Creates a timestamp from seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is NaN, negative, infinite, or out of range; see
    /// [`Time::try_from_secs`] for the fallible variant.
    pub fn from_secs(secs: f64) -> Self {
        Self::from_scaled(secs, 1e15, "s")
    }

    /// Fallible [`Time::from_secs`]: rejects NaN, negative, infinite, and
    /// out-of-range values with [`SimError::InvalidTime`] instead of
    /// panicking.
    pub fn try_from_secs(secs: f64) -> Result<Self, SimError> {
        Self::try_from_scaled(secs, 1e15, "s")
    }

    fn from_scaled(value: f64, scale: f64, unit: &'static str) -> Self {
        match Self::try_from_scaled(value, scale, unit) {
            Ok(t) => t,
            Err(e) => panic!("{e}"),
        }
    }

    fn try_from_scaled(value: f64, scale: f64, unit: &'static str) -> Result<Self, SimError> {
        if !value.is_finite() || value < 0.0 {
            return Err(SimError::InvalidTime { value, unit });
        }
        let fs = (value * scale).round();
        // `as u64` would silently saturate; 2^64 is the first f64 that no
        // longer fits (u64::MAX itself is not exactly representable).
        if fs >= u64::MAX as f64 {
            return Err(SimError::InvalidTime { value, unit });
        }
        Ok(Time(fs as u64))
    }

    /// Returns the raw femtosecond count.
    pub const fn as_fs(self) -> u64 {
        self.0
    }

    /// Returns the timestamp in seconds as a floating-point number.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 * 1e-15
    }

    /// Returns the timestamp in nanoseconds as a floating-point number.
    pub fn as_ns(self) -> f64 {
        self.0 as f64 * 1e-6
    }

    /// Returns the timestamp in microseconds as a floating-point number.
    pub fn as_us(self) -> f64 {
        self.0 as f64 * 1e-9
    }

    /// Saturating subtraction: returns `self - other`, or [`Time::ZERO`]
    /// when `other` is later than `self`.
    pub fn saturating_sub(self, other: Time) -> Time {
        Time(self.0.saturating_sub(other.0))
    }

    /// Checked addition that saturates at [`Time::MAX`] instead of
    /// overflowing, so `Time::MAX + dt` stays a valid "never" sentinel.
    pub fn saturating_add(self, other: Time) -> Time {
        Time(self.0.saturating_add(other.0))
    }

    /// Checked addition: `None` when the sum leaves the `u64`
    /// femtosecond range (the panicking `+` operator's fallible twin).
    pub fn checked_add(self, other: Time) -> Option<Time> {
        self.0.checked_add(other.0).map(Time)
    }

    /// Checked subtraction: `None` when `other` is later than `self`.
    pub fn checked_sub(self, other: Time) -> Option<Time> {
        self.0.checked_sub(other.0).map(Time)
    }

    /// Checked multiplication by a scalar: `None` on overflow.
    pub fn checked_mul(self, rhs: u64) -> Option<Time> {
        self.0.checked_mul(rhs).map(Time)
    }
}

impl Add for Time {
    type Output = Time;

    fn add(self, rhs: Time) -> Time {
        Time(self.0.checked_add(rhs.0).expect("time overflow"))
    }
}

impl AddAssign for Time {
    fn add_assign(&mut self, rhs: Time) {
        *self = *self + rhs;
    }
}

impl Sub for Time {
    type Output = Time;

    fn sub(self, rhs: Time) -> Time {
        Time(self.0.checked_sub(rhs.0).expect("time underflow"))
    }
}

impl SubAssign for Time {
    fn sub_assign(&mut self, rhs: Time) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Time {
    type Output = Time;

    fn mul(self, rhs: u64) -> Time {
        Time(self.0.checked_mul(rhs).expect("time overflow"))
    }
}

impl Div<u64> for Time {
    type Output = Time;

    fn div(self, rhs: u64) -> Time {
        Time(self.0 / rhs)
    }
}

impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        iter.fold(Time::ZERO, |acc, t| acc + t)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fs = self.0;
        if fs == u64::MAX {
            write!(f, "never")
        } else if fs >= 1_000_000_000 {
            write!(f, "{:.3}us", self.as_us())
        } else if fs >= 1_000_000 {
            write!(f, "{:.3}ns", self.as_ns())
        } else if fs >= 1_000 {
            write!(f, "{:.3}ps", fs as f64 / 1e3)
        } else {
            write!(f, "{}fs", fs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constructors_agree() {
        assert_eq!(Time::from_ns(1.0), Time::from_fs(1_000_000));
        assert_eq!(Time::from_ps(1.0), Time::from_fs(1_000));
        assert_eq!(Time::from_us(1.0), Time::from_fs(1_000_000_000));
        assert_eq!(Time::from_secs(1e-15), Time::from_fs(1));
    }

    #[test]
    fn arithmetic_round_trips() {
        let t = Time::from_ns(3.25);
        let dt = Time::from_ps(17.0);
        assert_eq!(t + dt - dt, t);
        assert_eq!(t * 2 / 2, t);
    }

    #[test]
    fn saturating_sub_clamps_at_zero() {
        assert_eq!(
            Time::from_ns(1.0).saturating_sub(Time::from_ns(2.0)),
            Time::ZERO
        );
    }

    #[test]
    fn saturating_add_clamps_at_max() {
        assert_eq!(Time::MAX.saturating_add(Time::from_ns(1.0)), Time::MAX);
    }

    #[test]
    fn conversions_to_float() {
        let t = Time::from_ns(7.5);
        assert!((t.as_ns() - 7.5).abs() < 1e-12);
        assert!((t.as_secs() - 7.5e-9).abs() < 1e-21);
        assert!((t.as_us() - 0.0075).abs() < 1e-15);
    }

    #[test]
    fn display_picks_scale() {
        assert_eq!(Time::from_fs(12).to_string(), "12fs");
        assert_eq!(Time::from_ns(2.0).to_string(), "2.000ns");
        assert_eq!(Time::from_us(3.0).to_string(), "3.000us");
        assert_eq!(Time::MAX.to_string(), "never");
    }

    #[test]
    fn ordering_is_total() {
        let mut v = vec![Time::from_ns(5.0), Time::ZERO, Time::from_ps(1.0)];
        v.sort();
        assert_eq!(v, vec![Time::ZERO, Time::from_ps(1.0), Time::from_ns(5.0)]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_time_panics() {
        let _ = Time::from_ns(-1.0);
    }

    #[test]
    fn try_constructors_reject_nan_negative_and_huge() {
        for bad in [f64::NAN, -0.5, f64::INFINITY, f64::NEG_INFINITY, 1e30] {
            assert!(
                matches!(
                    Time::try_from_secs(bad),
                    Err(SimError::InvalidTime { unit: "s", .. })
                ),
                "{bad} accepted"
            );
        }
        assert_eq!(Time::try_from_secs(1e-9), Ok(Time::from_fs(1_000_000)));
    }

    #[test]
    fn try_and_panicking_constructors_agree_on_valid_input() {
        for v in [0.0, 1.5e-9, 2.25e-6, 17.0] {
            assert_eq!(Time::try_from_secs(v).unwrap(), Time::from_secs(v));
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn nan_time_panics() {
        let _ = Time::from_ns(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn overflowing_time_panics() {
        // 2^64 fs is out of range; before the range check this silently
        // saturated to u64::MAX via `as u64`.
        let _ = Time::from_secs(1e5);
    }

    #[test]
    fn checked_ops_mirror_operators() {
        let a = Time::from_ns(2.0);
        let b = Time::from_ns(3.0);
        assert_eq!(a.checked_add(b), Some(a + b));
        assert_eq!(b.checked_sub(a), Some(b - a));
        assert_eq!(a.checked_sub(b), None);
        assert_eq!(Time::MAX.checked_add(Time::from_fs(1)), None);
        assert_eq!(a.checked_mul(3), Some(a * 3));
        assert_eq!(Time::MAX.checked_mul(2), None);
    }

    #[test]
    fn sum_of_times() {
        let total: Time = [Time::from_ns(1.0), Time::from_ns(2.0)].into_iter().sum();
        assert_eq!(total, Time::from_ns(3.0));
    }
}
