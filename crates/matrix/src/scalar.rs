//! The [`Scalar`] trait: the ground field (or ring) matrices are over.
//!
//! The paper works over ℝ or ℂ; for reproducibility we run algorithms over
//! `f64` (performance benches), `i64` (exact, overflow-checked in debug) and
//! [`Rational`] (fully exact, used by correctness proofs).

use crate::rational::Rational;
use std::fmt::Debug;
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A numeric type matrices can be built over.
///
/// Deliberately minimal: just the ring operations the bilinear algorithms
/// need, plus conversion from a [`Rational`] coefficient so that any
/// base-graph coefficient matrix can act on any scalar type.
pub trait Scalar:
    Copy
    + Debug
    + PartialEq
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + Send
    + Sync
    + 'static
{
    /// The additive identity.
    fn zero() -> Self;
    /// The multiplicative identity.
    fn one() -> Self;
    /// Converts an exact rational coefficient into this scalar type.
    ///
    /// For integer scalar types this must be exact; callers only pass
    /// coefficients that actually arise in a base graph, and integer-scalar
    /// executions are only run with integer-coefficient base graphs.
    fn from_rational(r: Rational) -> Self;
}

impl Scalar for f64 {
    fn zero() -> Self {
        0.0
    }
    fn one() -> Self {
        1.0
    }
    fn from_rational(r: Rational) -> Self {
        r.to_f64()
    }
}

impl Scalar for i64 {
    fn zero() -> Self {
        0
    }
    fn one() -> Self {
        1
    }
    fn from_rational(r: Rational) -> Self {
        assert!(
            r.is_integer(),
            "non-integer coefficient {r} used with i64 scalars"
        );
        r.numer()
    }
}

impl Scalar for Rational {
    fn zero() -> Self {
        Rational::ZERO
    }
    fn one() -> Self {
        Rational::ONE
    }
    fn from_rational(r: Rational) -> Self {
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generic_ring_smoke<T: Scalar>() {
        let two = T::one() + T::one();
        assert_eq!(two * T::zero(), T::zero());
        assert_eq!(two - T::one(), T::one());
        assert_eq!(-T::one() + T::one(), T::zero());
    }

    #[test]
    fn ring_laws_f64() {
        generic_ring_smoke::<f64>();
    }

    #[test]
    fn ring_laws_i64() {
        generic_ring_smoke::<i64>();
    }

    #[test]
    fn ring_laws_rational() {
        generic_ring_smoke::<Rational>();
    }

    #[test]
    fn from_rational_roundtrips() {
        assert_eq!(f64::from_rational(Rational::new(1, 2)), 0.5);
        assert_eq!(i64::from_rational(Rational::integer(-7)), -7);
        assert_eq!(
            Rational::from_rational(Rational::new(2, 3)),
            Rational::new(2, 3)
        );
    }

    #[test]
    #[should_panic(expected = "non-integer coefficient")]
    fn i64_rejects_fractions() {
        let _ = i64::from_rational(Rational::new(1, 2));
    }
}
