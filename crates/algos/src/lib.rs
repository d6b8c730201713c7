//! # mmio-algos
//!
//! A library of concrete Strassen-like base graphs, all *symbolically
//! verified* against the matrix-multiplication tensor, plus a generic
//! recursive executor that runs any base graph on real matrices.
//!
//! Included algorithms:
//!
//! - [`strassen::strassen`] — Strassen's 1969 ⟨2,2,2;7⟩ scheme (the paper's
//!   running example, Figure 1).
//! - [`strassen::winograd`] — Winograd's 7-multiplication variant (same
//!   `(a,b)`, different base graph; 15 additions instead of 18).
//! - [`classical::classical`] — the classical ⟨n₀,n₀,n₀;n₀³⟩ algorithm for
//!   any `n₀`. Not *fast* (`ω₀ = 3`), but it is exactly the case that breaks
//!   the edge-expansion technique: its decoding graph is disconnected and
//!   its inputs are multiply copied — so it exercises the full generality of
//!   the path-routing machinery.
//! - [`laderman::laderman`] — Laderman's 1976 ⟨3,3,3;23⟩ algorithm
//!   (`ω₀ ≈ 2.854`). Its decoding matrix is *derived* by exact linear
//!   solving against the tensor rather than transcribed, so correctness is
//!   by construction.
//! - tensor powers (e.g. [`registry::strassen_squared`], ⟨4,4,4;49⟩) and
//!   [`synthetic`] variants exercising disconnected decoding graphs,
//!   suppressed copying, and single-use violations.
//!
//! The [`executor`] module runs any base graph recursively on matrices over
//! any scalar type, with exact arithmetic-operation counting — the
//! `Θ(n^{ω₀})` in Theorem 1 made measurable.
//!
//! ```
//! use mmio_algos::{strassen::strassen, Executor};
//! use mmio_matrix::Matrix;
//!
//! let base = strassen();
//! assert!(base.is_fast()); // ω₀ = log₂7 < 3
//! let exec = Executor::new(base, 1);
//! let a = Matrix::from_fn(8, 8, |i, j| (i * 8 + j) as i64);
//! let id = Matrix::from_fn(8, 8, |i, j| i64::from(i == j));
//! let (c, counts) = exec.multiply_counted(&a, &id);
//! assert!(c.exactly_equals(&a));
//! assert_eq!(counts.leaf_mults, 343); // 7³ scalar multiplications
//! ```

#![forbid(unsafe_code)]

pub mod classical;
#[cfg(test)]
mod counts;
pub mod executor;
pub mod laderman;
pub mod rect;
pub mod registry;
pub mod strassen;
pub mod synthetic;
pub mod transform;
pub mod verify;

pub use executor::Executor;
