//! Hand-written Strassen multiplication (the 1969 seven-multiplication
//! scheme), independent of the generic bilinear executor in `mmio-algos`.
//!
//! Compiled into test builds only, as a cross-check: two independent
//! implementations of the same base graph must agree.

use crate::block::{join_blocks, split_blocks};
use crate::classical::multiply_naive;
use crate::dense::Matrix;
use crate::scalar::Scalar;

/// Multiplies two square matrices with Strassen's algorithm, recursing while
/// the side is even and larger than `cutoff`, then falling back to the
/// classical algorithm.
///
/// # Panics
/// Panics if the matrices are not square with equal side, or `cutoff == 0`.
pub fn multiply<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>, cutoff: usize) -> Matrix<T> {
    assert!(cutoff > 0, "cutoff must be positive");
    assert!(
        a.is_square() && b.is_square() && a.rows() == b.rows(),
        "Strassen requires equal square operands"
    );
    multiply_rec(a, b, cutoff)
}

fn multiply_rec<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>, cutoff: usize) -> Matrix<T> {
    let n = a.rows();
    if n <= cutoff || !n.is_multiple_of(2) {
        return multiply_naive(a, b);
    }
    let ab = split_blocks(a, 2);
    let bb = split_blocks(b, 2);
    let (a11, a12, a21, a22) = (&ab[0], &ab[1], &ab[2], &ab[3]);
    let (b11, b12, b21, b22) = (&bb[0], &bb[1], &bb[2], &bb[3]);

    // Strassen's seven products.
    let m1 = multiply_rec(&(a11 + a22), &(b11 + b22), cutoff);
    let m2 = multiply_rec(&(a21 + a22), b11, cutoff);
    let m3 = multiply_rec(a11, &(b12 - b22), cutoff);
    let m4 = multiply_rec(a22, &(b21 - b11), cutoff);
    let m5 = multiply_rec(&(a11 + a12), b22, cutoff);
    let m6 = multiply_rec(&(a21 - a11), &(b11 + b12), cutoff);
    let m7 = multiply_rec(&(a12 - a22), &(b21 + b22), cutoff);

    let c11 = &(&(&m1 + &m4) - &m5) + &m7;
    let c12 = &m3 + &m5;
    let c21 = &m2 + &m4;
    let c22 = &(&(&m1 - &m2) + &m3) + &m6;

    join_blocks(&[c11, c12, c21, c22], 2)
}

/// Exact number of scalar multiplications performed by [`multiply`] on a
/// `2^r`-sided input with cutoff 1: `7^r`.
pub fn multiplication_count(r: u32) -> u64 {
    7u64.pow(r)
}

/// The exponent `ω₀ = log₂ 7 ≈ 2.807` of Strassen's algorithm.
pub fn omega0() -> f64 {
    (7f64).ln() / (2f64).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::{random_f64_matrix, random_i64_matrix};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn agrees_with_classical_exact() {
        let mut rng = StdRng::seed_from_u64(3);
        for n in [1usize, 2, 4, 8, 16] {
            let a = random_i64_matrix(n, n, &mut rng);
            let b = random_i64_matrix(n, n, &mut rng);
            let fast = multiply(&a, &b, 1);
            let slow = multiply_naive(&a, &b);
            assert!(fast.exactly_equals(&slow), "n={n}");
        }
    }

    #[test]
    fn agrees_with_classical_float() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = random_f64_matrix(32, 32, &mut rng);
        let b = random_f64_matrix(32, 32, &mut rng);
        let diff = multiply(&a, &b, 4).max_abs_diff(&multiply_naive(&a, &b));
        assert!(diff < 1e-10, "max diff {diff}");
    }

    #[test]
    fn odd_sizes_fall_back() {
        let mut rng = StdRng::seed_from_u64(9);
        let a = random_i64_matrix(6, 6, &mut rng); // splits once into 3x3 blocks
        let b = random_i64_matrix(6, 6, &mut rng);
        assert!(multiply(&a, &b, 1).exactly_equals(&multiply_naive(&a, &b)));
    }

    #[test]
    fn cutoff_changes_nothing() {
        let mut rng = StdRng::seed_from_u64(13);
        let a = random_i64_matrix(16, 16, &mut rng);
        let b = random_i64_matrix(16, 16, &mut rng);
        let reference = multiply(&a, &b, 1);
        for cutoff in [2, 4, 8, 16, 100] {
            assert!(multiply(&a, &b, cutoff).exactly_equals(&reference));
        }
    }

    #[test]
    fn multiplication_counts() {
        assert_eq!(multiplication_count(0), 1);
        assert_eq!(multiplication_count(3), 343);
        assert!((omega0() - 2.8073549).abs() < 1e-6);
    }
}
