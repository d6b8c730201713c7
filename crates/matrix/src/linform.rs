//! Formal linear forms `Σ λ_v · x_v` over a fixed set of variables.
//!
//! The Lemma 5/6 argument of the paper treats the entries of `B` as *formal
//! coefficients*: the coefficient of `a_{ij'}` inside the computed `c_{ij}`
//! is a linear form in the `b` entries, and it is "correct" exactly when that
//! form is identically `b_{j'j}`. This module provides the exact formal
//! arithmetic needed to decide that identity.

use crate::rational::Rational;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// A linear form over `nvars` formal variables with [`Rational`] coefficients,
/// stored densely (variable counts here are tiny: `n₀²` or `b`).
#[derive(Clone, PartialEq, Eq)]
pub struct LinForm {
    coeffs: Vec<Rational>,
}

impl LinForm {
    /// The zero form over `nvars` variables.
    pub fn zero(nvars: usize) -> LinForm {
        LinForm {
            coeffs: vec![Rational::ZERO; nvars],
        }
    }

    /// The single variable `x_v` over `nvars` variables.
    ///
    /// # Panics
    /// Panics if `v >= nvars`.
    #[cfg(test)]
    pub fn variable(nvars: usize, v: usize) -> LinForm {
        assert!(v < nvars, "variable index out of range");
        let mut f = LinForm::zero(nvars);
        f.coeffs[v] = Rational::ONE;
        f
    }

    /// Number of variables.
    pub fn nvars(&self) -> usize {
        self.coeffs.len()
    }

    /// The coefficient of variable `v`.
    #[cfg(test)]
    pub fn coeff(&self, v: usize) -> Rational {
        self.coeffs[v]
    }

    /// Whether the form is identically zero.
    pub fn is_zero(&self) -> bool {
        self.coeffs.iter().all(|c| c.is_zero())
    }

    /// Whether the form is exactly the single variable `x_v`.
    pub fn is_variable(&self, v: usize) -> bool {
        self.coeffs
            .iter()
            .enumerate()
            .all(|(i, c)| if i == v { c.is_one() } else { c.is_zero() })
    }

    /// Evaluates the form at a concrete assignment.
    ///
    /// # Panics
    /// Panics if `values.len() != nvars`.
    #[cfg(test)]
    pub fn eval(&self, values: &[Rational]) -> Rational {
        assert_eq!(values.len(), self.nvars(), "assignment length mismatch");
        self.coeffs.iter().zip(values).map(|(&c, &v)| c * v).sum()
    }

    /// Adds `scale · x_v` to the form in place.
    pub fn add_term(&mut self, v: usize, scale: Rational) {
        self.coeffs[v] += scale;
    }
}

impl Add for &LinForm {
    type Output = LinForm;
    fn add(self, rhs: &LinForm) -> LinForm {
        assert_eq!(self.nvars(), rhs.nvars(), "variable-count mismatch");
        LinForm {
            coeffs: self
                .coeffs
                .iter()
                .zip(&rhs.coeffs)
                .map(|(&a, &b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &LinForm {
    type Output = LinForm;
    fn sub(self, rhs: &LinForm) -> LinForm {
        self + &(-rhs)
    }
}

impl Neg for &LinForm {
    type Output = LinForm;
    fn neg(self) -> LinForm {
        LinForm {
            coeffs: self.coeffs.iter().map(|&c| -c).collect(),
        }
    }
}

impl Mul<Rational> for &LinForm {
    type Output = LinForm;
    fn mul(self, s: Rational) -> LinForm {
        LinForm {
            coeffs: self.coeffs.iter().map(|&c| c * s).collect(),
        }
    }
}

impl AddAssign<&LinForm> for LinForm {
    fn add_assign(&mut self, rhs: &LinForm) {
        assert_eq!(self.nvars(), rhs.nvars(), "variable-count mismatch");
        for (a, &b) in self.coeffs.iter_mut().zip(&rhs.coeffs) {
            *a += b;
        }
    }
}

impl fmt::Debug for LinForm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (i, c) in self.coeffs.iter().enumerate() {
            if c.is_zero() {
                continue;
            }
            if !first {
                write!(f, " + ")?;
            }
            write!(f, "{c}·x{i}")?;
            first = false;
        }
        if first {
            write!(f, "0")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64) -> Rational {
        Rational::integer(n)
    }

    #[test]
    fn variables_and_zero() {
        let x1 = LinForm::variable(3, 1);
        assert!(x1.is_variable(1));
        assert!(!x1.is_variable(0));
        assert!(!x1.is_zero());
        assert!(LinForm::zero(3).is_zero());
    }

    #[test]
    fn arithmetic() {
        let x0 = LinForm::variable(2, 0);
        let x1 = LinForm::variable(2, 1);
        let f = &(&x0 + &x1) - &x1; // = x0
        assert!(f.is_variable(0));
        let g = &x0 * r(3);
        assert_eq!(g.coeff(0), r(3));
    }

    #[test]
    fn eval() {
        let mut f = LinForm::zero(3);
        f.add_term(0, r(2));
        f.add_term(2, r(-1));
        assert_eq!(f.eval(&[r(5), r(100), r(3)]), r(7));
    }

    #[test]
    fn cancellation_detected() {
        let x = LinForm::variable(2, 0);
        let diff = &x - &x;
        assert!(diff.is_zero());
    }

    #[test]
    #[should_panic(expected = "variable-count mismatch")]
    fn mismatched_vars_panics() {
        let _ = &LinForm::zero(2) + &LinForm::zero(3);
    }

    #[test]
    fn debug_format() {
        let mut f = LinForm::zero(2);
        f.add_term(1, Rational::new(-1, 2));
        assert_eq!(format!("{f:?}"), "-1/2·x1");
        assert_eq!(format!("{:?}", LinForm::zero(1)), "0");
    }
}
