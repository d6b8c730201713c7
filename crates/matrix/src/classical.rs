//! Classical `Θ(n³)` matrix multiplication in several loop orders.
//!
//! These are the ground-truth oracles every fast algorithm in the workspace
//! is tested against, and the "classical" side of the paper's motivating
//! comparison: Hong–Kung \[10\] proved the classical algorithm needs
//! `Θ(n³/√M)` I/Os, attained by the blocked variant implemented here.

use crate::dense::Matrix;
use crate::scalar::Scalar;

/// Naive i-j-k triple loop. `O(n³)` scalar multiplications, poor locality.
///
/// # Panics
/// Panics on inner-dimension mismatch.
pub fn multiply_naive<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    assert_eq!(a.cols(), b.rows(), "inner dimension mismatch");
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    Matrix::from_fn(m, n, |i, j| {
        let mut acc = T::zero();
        for l in 0..k {
            acc += a[(i, l)] * b[(l, j)];
        }
        acc
    })
}

/// i-k-j loop order: streams rows of `b`, much better spatial locality.
#[cfg(test)]
pub fn multiply_ikj<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    assert_eq!(a.cols(), b.rows(), "inner dimension mismatch");
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        for l in 0..k {
            let ail = a[(i, l)];
            if ail == T::zero() {
                continue;
            }
            let brow = b.row(l);
            for j in 0..n {
                c[(i, j)] += ail * brow[j];
            }
        }
    }
    c
}

/// Cache-blocked multiplication with square tiles of side `bs`.
///
/// This is the schedule that attains Hong–Kung's `Θ(n³/√M)` I/O lower bound
/// when `bs ≈ √(M/3)`; the I/O accounting itself lives in `mmio-pebble`.
///
/// # Panics
/// Panics if `bs == 0` or on inner-dimension mismatch.
#[cfg(test)]
pub fn multiply_blocked<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>, bs: usize) -> Matrix<T> {
    assert!(bs > 0, "block size must be positive");
    assert_eq!(a.cols(), b.rows(), "inner dimension mismatch");
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut c = Matrix::zeros(m, n);
    for i0 in (0..m).step_by(bs) {
        for l0 in (0..k).step_by(bs) {
            for j0 in (0..n).step_by(bs) {
                let i1 = (i0 + bs).min(m);
                let l1 = (l0 + bs).min(k);
                let j1 = (j0 + bs).min(n);
                for i in i0..i1 {
                    for l in l0..l1 {
                        let ail = a[(i, l)];
                        for j in j0..j1 {
                            c[(i, j)] += ail * b[(l, j)];
                        }
                    }
                }
            }
        }
    }
    c
}

/// Number of scalar multiplications the classical algorithm performs on
/// `n×n` inputs: exactly `n³`.
#[cfg(test)]
pub fn multiplication_count(n: u64) -> u64 {
    n * n * n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::random_i64_matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn known_product() {
        let a = Matrix::from_vec(2, 2, vec![1i64, 2, 3, 4]);
        let b = Matrix::from_vec(2, 2, vec![5i64, 6, 7, 8]);
        let c = multiply_naive(&a, &b);
        assert_eq!(c.as_slice(), &[19, 22, 43, 50]);
    }

    #[test]
    fn rectangular_product() {
        let a = Matrix::from_vec(2, 3, vec![1i64, 0, 2, 0, 1, 1]);
        let b = Matrix::from_vec(3, 2, vec![1i64, 1, 2, 0, 0, 3]);
        let c = multiply_naive(&a, &b);
        assert_eq!(c.as_slice(), &[1, 7, 2, 3]);
    }

    #[test]
    fn loop_orders_agree() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [1usize, 2, 3, 5, 8, 13] {
            let a = random_i64_matrix(n, n, &mut rng);
            let b = random_i64_matrix(n, n, &mut rng);
            let naive = multiply_naive(&a, &b);
            assert!(multiply_ikj(&a, &b).exactly_equals(&naive), "ikj n={n}");
            for bs in [1, 2, 4, 7] {
                assert!(
                    multiply_blocked(&a, &b, bs).exactly_equals(&naive),
                    "blocked n={n} bs={bs}"
                );
            }
        }
    }

    #[test]
    fn blocked_handles_non_dividing_block_size() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = random_i64_matrix(5, 5, &mut rng);
        let b = random_i64_matrix(5, 5, &mut rng);
        assert!(multiply_blocked(&a, &b, 3).exactly_equals(&multiply_naive(&a, &b)));
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn dimension_mismatch_panics() {
        let a: Matrix<i64> = Matrix::zeros(2, 3);
        let b: Matrix<i64> = Matrix::zeros(2, 3);
        let _ = multiply_naive(&a, &b);
    }

    #[test]
    fn multiplication_count_is_cubic() {
        assert_eq!(multiplication_count(4), 64);
        assert_eq!(multiplication_count(10), 1000);
    }
}
