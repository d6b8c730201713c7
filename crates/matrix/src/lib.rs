//! # mmio-matrix
//!
//! Dense matrix substrate for the `mmio` workspace — the executable side of
//! *Matrix Multiplication I/O-Complexity by Path Routing* (Scott, Holtz,
//! Schwartz; SPAA 2015).
//!
//! The paper reasons about Strassen-like recursive matrix multiplication
//! algorithms. This crate provides everything needed to actually *run* such
//! algorithms and check them for correctness:
//!
//! - [`Rational`]: exact rational arithmetic over `i64`, used for base-graph
//!   coefficients and symbolic correctness checks. Strassen-like coefficient
//!   matrices are tiny, so exactness matters far more than speed here.
//! - [`Matrix`]: a dense, row-major matrix generic over a [`Scalar`] type.
//! - [`classical`]: the reference `Θ(n³)` multiplication, used as ground
//!   truth and as the classical baseline the paper's introduction compares
//!   against.
//! - [`block`]: block partitioning helpers used by recursive algorithms.
//! - [`linform`]: formal linear forms over named variables, used by the
//!   Lemma 5/6 machinery in `mmio-core` to decide whether a coefficient of
//!   `a_{ij'}` inside `c_{ij}` is "correct" (equal to `b_{j'j}`) as a formal
//!   expression rather than numerically.
//!
//! ```
//! use mmio_matrix::{Matrix, Rational};
//! use mmio_matrix::classical::multiply_naive;
//!
//! let a = Matrix::from_fn(4, 4, |i, j| (i + 2 * j) as i64);
//! let b = Matrix::from_fn(4, 4, |i, j| i64::from(i == j));
//! assert!(multiply_naive(&a, &b).exactly_equals(&a));
//! assert_eq!(Rational::new(2, 4) + Rational::new(1, 2), Rational::ONE);
//! ```

#![forbid(unsafe_code)]

pub mod block;
pub mod classical;
pub mod dense;
pub mod linform;
pub mod random;
pub mod rational;
pub mod scalar;
pub mod solve;
#[cfg(test)]
mod strassen;

pub use dense::Matrix;
pub use linform::LinForm;
pub use rational::Rational;
pub use scalar::Scalar;
