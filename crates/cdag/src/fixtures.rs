//! Small base graphs shared by this crate's unit tests.

use crate::BaseGraph;
use mmio_matrix::{Matrix, Rational};

fn r_(n: i64) -> Rational {
    Rational::integer(n)
}

/// Classical 2×2 multiplication: `b = 8` products `a_{ik}·b_{kj}`,
/// outputs `c_{ij} = Σ_k`. Every row is trivial: dense copy structure.
pub(crate) fn classical2() -> BaseGraph {
    let n0 = 2;
    let mut enc_a = Matrix::zeros(8, 4);
    let mut enc_b = Matrix::zeros(8, 4);
    let mut dec = Matrix::zeros(4, 8);
    let mut m = 0;
    for i in 0..n0 {
        for j in 0..n0 {
            for k in 0..n0 {
                enc_a[(m, i * n0 + k)] = r_(1);
                enc_b[(m, k * n0 + j)] = r_(1);
                dec[(i * n0 + j, m)] = r_(1);
                m += 1;
            }
        }
    }
    BaseGraph::new("classical2", n0, enc_a, enc_b, dec)
}

/// `c = (2a)·(3b)/6` over a 1×1 base: no row is trivial, so no copies.
pub(crate) fn no_copy() -> BaseGraph {
    BaseGraph::new(
        "scaled",
        1,
        Matrix::from_vec(1, 1, vec![r_(2)]),
        Matrix::from_vec(1, 1, vec![r_(3)]),
        Matrix::from_vec(1, 1, vec![Rational::new(1, 6)]),
    )
}

/// `c = a·b` over a 1×1 base with three products, one decoding row
/// copying product 1, and a mix of trivial and scaled encoding rows:
/// the only shape with a trivial decoding row (for `n₀ ≥ 2` no single
/// product equals an output).
pub(crate) fn decoding_copy() -> BaseGraph {
    BaseGraph::new(
        "decoding-copy",
        1,
        Matrix::from_vec(3, 1, vec![r_(2), r_(1), r_(1)]),
        Matrix::from_vec(3, 1, vec![r_(1), r_(1), r_(5)]),
        Matrix::from_vec(1, 3, vec![r_(0), r_(1), r_(0)]),
    )
}
