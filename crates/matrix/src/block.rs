//! Block-partitioning helpers for recursive (Strassen-like) algorithms.
//!
//! A Strassen-like algorithm for an `n₀^r × n₀^r` matrix views it as an
//! `n₀ × n₀` grid of `n₀^{r-1} × n₀^{r-1}` blocks and recurses. The paper
//! indexes block positions `x ∈ [a]` with `a = n₀²`; this module provides
//! the same flattening (`x = block_row · n₀ + block_col`) used consistently
//! across the workspace, plus mixed-radix helpers for the full recursive
//! index `(x₁, …, x_r) ∈ [a]^r` of a single matrix entry.

use crate::dense::Matrix;
use crate::scalar::Scalar;

/// Splits `m` into an `n0 × n0` grid of equal square blocks, returned in
/// row-major block order (block `x = br·n0 + bc`).
///
/// # Panics
/// Panics if `m` is not square or its side is not divisible by `n0`.
pub fn split_blocks<T: Scalar>(m: &Matrix<T>, n0: usize) -> Vec<Matrix<T>> {
    assert!(m.is_square(), "split_blocks requires a square matrix");
    assert_eq!(
        m.rows() % n0,
        0,
        "side {} not divisible by n0={n0}",
        m.rows()
    );
    let s = m.rows() / n0;
    let mut blocks = Vec::with_capacity(n0 * n0);
    for br in 0..n0 {
        for bc in 0..n0 {
            blocks.push(m.block(br * s, bc * s, s, s));
        }
    }
    blocks
}

/// Inverse of [`split_blocks`]: assembles `n0²` equal square blocks (row-major
/// block order) back into one matrix.
///
/// # Panics
/// Panics if the number or shapes of the blocks are inconsistent.
pub fn join_blocks<T: Scalar>(blocks: &[Matrix<T>], n0: usize) -> Matrix<T> {
    assert_eq!(blocks.len(), n0 * n0, "expected n0² blocks");
    let s = blocks[0].rows();
    assert!(
        blocks.iter().all(|b| b.rows() == s && b.cols() == s),
        "all blocks must be square with equal side"
    );
    let mut m = Matrix::zeros(n0 * s, n0 * s);
    for br in 0..n0 {
        for bc in 0..n0 {
            m.set_block(br * s, bc * s, &blocks[br * n0 + bc]);
        }
    }
    m
}

/// Decomposes an entry position `(row, col)` of an `n₀^r`-sided matrix into
/// its per-level block coordinates `x₁..x_r`, coarsest level first, where
/// each `x_t = block_row_t · n₀ + block_col_t ∈ [n₀²]`.
pub fn entry_to_digits(row: usize, col: usize, n0: usize, r: usize) -> Vec<usize> {
    let mut digits = vec![0; r];
    let (mut row, mut col) = (row, col);
    for t in (0..r).rev() {
        digits[t] = (row % n0) * n0 + (col % n0);
        row /= n0;
        col /= n0;
    }
    digits
}

/// Inverse of [`entry_to_digits`].
#[cfg(test)]
pub fn digits_to_entry(digits: &[usize], n0: usize) -> (usize, usize) {
    let mut row = 0;
    let mut col = 0;
    for &x in digits {
        row = row * n0 + x / n0;
        col = col * n0 + x % n0;
    }
    (row, col)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_join_roundtrip() {
        let m = Matrix::from_fn(6, 6, |i, j| (i * 6 + j) as i64);
        for n0 in [1usize, 2, 3, 6] {
            let blocks = split_blocks(&m, n0);
            assert_eq!(blocks.len(), n0 * n0);
            assert!(join_blocks(&blocks, n0).exactly_equals(&m), "n0={n0}");
        }
    }

    #[test]
    fn split_block_contents() {
        let m = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as i64);
        let blocks = split_blocks(&m, 2);
        // Block 3 = bottom-right.
        assert_eq!(blocks[3].as_slice(), &[10, 11, 14, 15]);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn split_requires_divisibility() {
        let m: Matrix<i64> = Matrix::zeros(5, 5);
        let _ = split_blocks(&m, 2);
    }

    #[test]
    fn digit_roundtrip() {
        let (n0, r) = (2usize, 3usize);
        let n = n0.pow(r as u32);
        for row in 0..n {
            for col in 0..n {
                let d = entry_to_digits(row, col, n0, r);
                assert_eq!(d.len(), r);
                assert!(d.iter().all(|&x| x < n0 * n0));
                assert_eq!(digits_to_entry(&d, n0), (row, col));
            }
        }
    }

    #[test]
    fn digits_coarsest_first() {
        // Entry (2, 3) of a 4x4 (n0=2, r=2): coarse block row 1, col 1 → x₁=3;
        // within-block (0, 1) → x₂=1.
        assert_eq!(entry_to_digits(2, 3, 2, 2), vec![3, 1]);
    }

    #[test]
    fn digit_roundtrip_n0_3() {
        let (n0, r) = (3usize, 2usize);
        let n = n0.pow(r as u32);
        for row in 0..n {
            for col in 0..n {
                let d = entry_to_digits(row, col, n0, r);
                assert_eq!(digits_to_entry(&d, n0), (row, col));
            }
        }
    }
}
