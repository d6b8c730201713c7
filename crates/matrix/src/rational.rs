//! Exact rational numbers over `i64`.
//!
//! Base-graph coefficients of Strassen-like algorithms are tiny rationals
//! (Strassen and Winograd use only `0, ±1`; some variants use `±1/2`), and
//! the symbolic correctness check multiplies three of them at a time, so
//! `i64` numerators/denominators leave enormous headroom. All arithmetic is
//! checked: overflow panics rather than silently wrapping, because a wrong
//! coefficient would invalidate every theorem downstream.

use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// An exact rational number `num/den`, always kept in canonical form:
/// `den > 0` and `gcd(|num|, den) == 1`; zero is `0/1`. Construction,
/// arithmetic and decoding keep both parts within `±(2⁶³ − 1)`, so
/// negating their results never overflows.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    num: i64,
    den: i64,
}

/// Greatest common divisor of two magnitudes; `gcd(a, 0) == a`.
fn gcd(mut a: u64, mut b: u64) -> u64 {
    // `checked_rem` is `None` exactly when `b == 0`.
    while let Some(t) = a.checked_rem(b) {
        a = b;
        b = t;
    }
    a
}

impl Rational {
    /// The additive identity.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    /// The multiplicative identity.
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// Creates `num/den` in canonical form.
    ///
    /// # Panics
    /// Panics if `den == 0`, or if the reduced fraction does not fit
    /// `±(2⁶³ − 1)`.
    pub fn new(num: i64, den: i64) -> Rational {
        assert!(den != 0, "rational with zero denominator");
        Rational::checked_new(num, den).expect("rational out of range")
    }

    /// `num/den` in canonical form, or `None` if `den == 0` or the reduced
    /// numerator or denominator does not fit `±(2⁶³ − 1)`.
    fn checked_new(num: i64, den: i64) -> Option<Rational> {
        if den == 0 {
            return None;
        }
        if num == 0 {
            return Some(Rational::ZERO);
        }
        let (n, d) = (num.unsigned_abs(), den.unsigned_abs());
        let g = gcd(n, d);
        let n = i64::try_from(n.checked_div(g)?).ok()?;
        let d = i64::try_from(d.checked_div(g)?).ok()?;
        Some(Rational {
            num: if (num < 0) != (den < 0) { -n } else { n },
            den: d,
        })
    }

    /// Creates the integer `n` as a rational.
    pub const fn integer(n: i64) -> Rational {
        Rational { num: n, den: 1 }
    }

    /// The numerator (canonical form, carries the sign).
    pub fn numer(self) -> i64 {
        self.num
    }

    /// Whether this is exactly zero.
    pub fn is_zero(self) -> bool {
        self.num == 0
    }

    /// Whether this is exactly one.
    pub fn is_one(self) -> bool {
        self.num == 1 && self.den == 1
    }

    /// Whether this is an integer.
    pub fn is_integer(self) -> bool {
        self.den == 1
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics if `self` is zero.
    pub fn recip(self) -> Rational {
        assert!(self.num != 0, "reciprocal of zero");
        Rational::new(self.den, self.num)
    }

    /// Converts to the nearest `f64` (exact whenever representable).
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// The gcd of two parts of canonical rationals, at least 1 when `b` is
    /// a denominator.
    fn gcd_of(a: i64, b: i64) -> Option<i64> {
        i64::try_from(gcd(a.unsigned_abs(), b.unsigned_abs())).ok()
    }

    fn checked_add(self, rhs: Rational) -> Option<Rational> {
        // a/b + c/d = (a·(l/b) + c·(l/d)) / l with l = lcm(b, d).
        let g = Rational::gcd_of(self.den, rhs.den)?;
        let l = self.den.checked_div(g)?.checked_mul(rhs.den)?;
        let x = self.num.checked_mul(l.checked_div(self.den)?)?;
        let y = rhs.num.checked_mul(l.checked_div(rhs.den)?)?;
        Rational::checked_new(x.checked_add(y)?, l)
    }

    fn checked_mul(self, rhs: Rational) -> Option<Rational> {
        // Cross-reduce first so intermediate products stay small.
        let g1 = Rational::gcd_of(self.num, rhs.den)?;
        let g2 = Rational::gcd_of(rhs.num, self.den)?;
        let num = self
            .num
            .checked_div(g1)?
            .checked_mul(rhs.num.checked_div(g2)?)?;
        let den = self
            .den
            .checked_div(g2)?
            .checked_mul(rhs.den.checked_div(g1)?)?;
        Rational::checked_new(num, den)
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::ZERO
    }
}

impl From<i64> for Rational {
    fn from(n: i64) -> Self {
        Rational::integer(n)
    }
}

impl From<i32> for Rational {
    fn from(n: i32) -> Self {
        Rational::integer(n as i64)
    }
}

impl Add for Rational {
    type Output = Rational;
    fn add(self, rhs: Rational) -> Rational {
        self.checked_add(rhs).expect("rational addition overflow")
    }
}

impl Sub for Rational {
    type Output = Rational;
    fn sub(self, rhs: Rational) -> Rational {
        self + (-rhs)
    }
}

impl Mul for Rational {
    type Output = Rational;
    fn mul(self, rhs: Rational) -> Rational {
        self.checked_mul(rhs)
            .expect("rational multiplication overflow")
    }
}

impl Div for Rational {
    type Output = Rational;
    #[allow(clippy::suspicious_arithmetic_impl)] // a/b = a·b⁻¹ is the definition
    fn div(self, rhs: Rational) -> Rational {
        self * rhs.recip()
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational {
            num: -self.num,
            den: self.den,
        }
    }
}

impl AddAssign for Rational {
    fn add_assign(&mut self, rhs: Rational) {
        *self = *self + rhs;
    }
}

impl SubAssign for Rational {
    fn sub_assign(&mut self, rhs: Rational) {
        *self = *self - rhs;
    }
}

impl MulAssign for Rational {
    fn mul_assign(&mut self, rhs: Rational) {
        *self = *self * rhs;
    }
}

impl Sum for Rational {
    fn sum<I: Iterator<Item = Rational>>(iter: I) -> Rational {
        iter.fold(Rational::ZERO, |acc, x| acc + x)
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // num1/den1 ? num2/den2  <=>  num1·den2 ? num2·den1 (dens positive).
        let lhs = (self.num as i128) * (other.den as i128);
        let rhs = (other.num as i128) * (self.den as i128);
        lhs.cmp(&rhs)
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_form() {
        assert_eq!(Rational::new(2, 4), Rational::new(1, 2));
        assert_eq!(Rational::new(-2, -4), Rational::new(1, 2));
        assert_eq!(Rational::new(2, -4), Rational::new(-1, 2));
        assert_eq!(Rational::new(0, 7), Rational::ZERO);
        assert_eq!(Rational::new(0, -7), Rational::ZERO);
    }

    #[test]
    fn arithmetic() {
        let half = Rational::new(1, 2);
        let third = Rational::new(1, 3);
        assert_eq!(half + third, Rational::new(5, 6));
        assert_eq!(half - third, Rational::new(1, 6));
        assert_eq!(half * third, Rational::new(1, 6));
        assert_eq!(half / third, Rational::new(3, 2));
        assert_eq!(-half, Rational::new(-1, 2));
    }

    #[test]
    fn ordering() {
        assert!(Rational::new(1, 3) < Rational::new(1, 2));
        assert!(Rational::new(-1, 2) < Rational::ZERO);
        assert!(Rational::new(7, 1) > Rational::new(13, 2));
    }

    #[test]
    fn sum_and_predicates() {
        let s: Rational = [1, 2, 3].iter().map(|&n| Rational::integer(n)).sum();
        assert_eq!(s, Rational::integer(6));
        assert!(Rational::ONE.is_one());
        assert!(Rational::ZERO.is_zero());
        assert!(Rational::new(4, 2).is_integer());
        assert!(!Rational::new(1, 2).is_integer());
    }

    #[test]
    fn recip() {
        assert_eq!(Rational::new(3, 4).recip(), Rational::new(4, 3));
        assert_eq!(Rational::new(-3, 4).recip(), Rational::new(-4, 3));
    }

    #[test]
    #[should_panic(expected = "reciprocal of zero")]
    fn recip_zero_panics() {
        let _ = Rational::ZERO.recip();
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rational::new(1, 0);
    }

    #[test]
    fn display() {
        assert_eq!(Rational::new(3, 1).to_string(), "3");
        assert_eq!(Rational::new(-1, 2).to_string(), "-1/2");
    }

    #[test]
    fn cross_reduction_avoids_overflow() {
        // (2^40/3) * (3/2^40) = 1 must not overflow intermediates.
        let big = 1i64 << 40;
        let a = Rational::new(big, 3);
        let b = Rational::new(3, big);
        assert_eq!(a * b, Rational::ONE);
    }

    #[test]
    fn extreme_parts_reduce_or_overflow_without_wrapping() {
        assert_eq!(Rational::new(i64::MIN, 2), Rational::integer(-(1 << 62)));
        assert_eq!(Rational::new(i64::MIN, i64::MIN), Rational::ONE);
        assert_eq!(Rational::checked_new(i64::MIN, 1), None);
        assert_eq!(Rational::checked_new(1, i64::MIN), None);
        let max = Rational::integer(i64::MAX);
        assert_eq!(max.checked_add(Rational::ONE), None);
        assert_eq!(max.checked_mul(Rational::integer(2)), None);
        assert_eq!((-max).checked_add(-Rational::ONE), None);
        assert_eq!(max * Rational::new(1, i64::MAX), Rational::ONE);
    }

    #[test]
    fn to_f64() {
        assert_eq!(Rational::new(1, 2).to_f64(), 0.5);
        assert_eq!(Rational::integer(-3).to_f64(), -3.0);
    }
}

impl serde::Serialize for Rational {
    fn to_value(&self) -> serde::Value {
        // Human-readable "num/den" keeps JSON diffs reviewable.
        serde::Value::Str(self.to_string())
    }
}

impl serde::Deserialize for Rational {
    fn from_value(v: &serde::Value) -> Result<Self, serde::de::Error> {
        let s = String::from_value(v)?;
        let (num, den) = match s.split_once('/') {
            Some((n, d)) => (
                n.parse::<i64>().map_err(serde::de::Error::custom)?,
                d.parse::<i64>().map_err(serde::de::Error::custom)?,
            ),
            None => (s.parse::<i64>().map_err(serde::de::Error::custom)?, 1),
        };
        if den == 0 {
            return Err(serde::de::Error::custom("zero denominator"));
        }
        // `i64::MIN` has no negation: a part equal to it is out of range
        // even where the fraction reduces.
        Rational::checked_new(num, den)
            .filter(|_| num != i64::MIN && den != i64::MIN)
            .ok_or_else(|| serde::de::Error::custom(format!("rational `{s}` out of range")))
    }
}

#[cfg(test)]
mod serde_tests {
    use super::*;

    #[test]
    fn roundtrip_through_json() {
        for r in [
            Rational::ZERO,
            Rational::ONE,
            Rational::new(-3, 4),
            Rational::integer(42),
        ] {
            let json = serde_json::to_string(&r).unwrap();
            let back: Rational = serde_json::from_str(&json).unwrap();
            assert_eq!(back, r);
        }
    }

    #[test]
    fn rejects_zero_denominator() {
        assert!(serde_json::from_str::<Rational>("\"1/0\"").is_err());
        assert!(serde_json::from_str::<Rational>("\"x\"").is_err());
    }

    #[test]
    fn rejects_i64_min_parts() {
        // Each once overflowed `abs` or the reduction (a panic, or a
        // negative denominator in release builds).
        for s in [
            "9223372036854775807/-9223372036854775808",
            "1/-9223372036854775808",
            "-9223372036854775808",
            "-9223372036854775808/-9223372036854775808",
        ] {
            let err = serde_json::from_str::<Rational>(&format!("\"{s}\"")).unwrap_err();
            assert_eq!(err.to_string(), format!("rational `{s}` out of range"));
        }
        let max = serde_json::from_str::<Rational>("\"-9223372036854775807/9223372036854775807\"");
        assert_eq!(max.unwrap(), -Rational::ONE);
    }
}
