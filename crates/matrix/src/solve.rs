//! Exact linear algebra over the rationals: Gaussian elimination, rank,
//! and least-structure solutions of `A·x = b`.
//!
//! Used by `mmio-algos` to *derive* decoding matrices from a set of
//! products (the decoder of a bilinear algorithm is the unique solution of
//! an exact linear system against the matrix-multiplication tensor), which
//! turns "is this coefficient listing correct?" into "does this system have
//! a solution?" — a much more robust way to reproduce historical
//! algorithms than transcribing their output combinations.

use crate::dense::Matrix;
use crate::rational::Rational;

/// Result of reducing `[A | B]` to row-reduced echelon form.
pub struct Echelon {
    /// The reduced combined matrix.
    pub reduced: Matrix<Rational>,
    /// Column index of the pivot in each nonzero row (in `A`'s columns only
    /// if the pivot falls there; pivots may land in `B`'s columns, which
    /// signals inconsistency for solving).
    pub pivots: Vec<usize>,
    /// Rank of the combined matrix.
    pub rank: usize,
}

/// Row-reduces `m` in place to reduced row-echelon form.
pub fn rref(m: &Matrix<Rational>) -> Echelon {
    let mut a = m.clone();
    let (rows, cols) = (a.rows(), a.cols());
    let mut pivots = Vec::new();
    let mut row = 0;
    for col in 0..cols {
        if row >= rows {
            break;
        }
        // Find a pivot in this column at or below `row`.
        let Some(p) = (row..rows).find(|&i| !a[(i, col)].is_zero()) else {
            continue;
        };
        // Swap rows p and row.
        if p != row {
            for j in 0..cols {
                let tmp = a[(p, j)];
                a[(p, j)] = a[(row, j)];
                a[(row, j)] = tmp;
            }
        }
        // Normalize the pivot row.
        let inv = a[(row, col)].recip();
        for j in 0..cols {
            a[(row, j)] *= inv;
        }
        // Eliminate everywhere else.
        for i in 0..rows {
            if i != row && !a[(i, col)].is_zero() {
                let f = a[(i, col)];
                for j in 0..cols {
                    let sub = f * a[(row, j)];
                    a[(i, j)] -= sub;
                }
            }
        }
        pivots.push(col);
        row += 1;
    }
    Echelon {
        reduced: a,
        rank: row,
        pivots,
    }
}

/// Rank of `m` over the rationals.
#[cfg(test)]
pub fn rank(m: &Matrix<Rational>) -> usize {
    rref(m).rank
}

/// Solves `A·x = b` exactly. Returns `None` if inconsistent; otherwise one
/// solution (free variables set to zero).
pub fn solve(a: &Matrix<Rational>, b: &[Rational]) -> Option<Vec<Rational>> {
    assert_eq!(a.rows(), b.len(), "rhs length must match row count");
    let (rows, cols) = (a.rows(), a.cols());
    let aug = Matrix::from_fn(
        rows,
        cols + 1,
        |i, j| {
            if j < cols {
                a[(i, j)]
            } else {
                b[i]
            }
        },
    );
    let ech = rref(&aug);
    // Inconsistent iff some pivot lands in the rhs column.
    if ech.pivots.contains(&cols) {
        return None;
    }
    let mut x = vec![Rational::ZERO; cols];
    for (row, &col) in ech.pivots.iter().enumerate() {
        x[col] = ech.reduced[(row, cols)];
    }
    Some(x)
}

/// Solves `A·X = B` column-by-column. Returns `None` if any column is
/// inconsistent.
pub fn solve_matrix(a: &Matrix<Rational>, b: &Matrix<Rational>) -> Option<Matrix<Rational>> {
    assert_eq!(a.rows(), b.rows(), "row counts must match");
    let mut x = Matrix::zeros(a.cols(), b.cols());
    for j in 0..b.cols() {
        let col: Vec<Rational> = (0..b.rows()).map(|i| b[(i, j)]).collect();
        let sol = solve(a, &col)?;
        for i in 0..a.cols() {
            x[(i, j)] = sol[i];
        }
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64) -> Rational {
        Rational::integer(n)
    }

    #[test]
    fn solve_identity() {
        let a: Matrix<Rational> = Matrix::identity(3);
        let b = vec![r(1), r(2), r(3)];
        assert_eq!(solve(&a, &b).unwrap(), b);
    }

    #[test]
    fn solve_2x2() {
        // x + y = 3, x - y = 1  =>  x = 2, y = 1.
        let a = Matrix::from_vec(2, 2, vec![r(1), r(1), r(1), r(-1)]);
        let x = solve(&a, &[r(3), r(1)]).unwrap();
        assert_eq!(x, vec![r(2), r(1)]);
    }

    #[test]
    fn inconsistent_detected() {
        // x + y = 1, x + y = 2.
        let a = Matrix::from_vec(2, 2, vec![r(1), r(1), r(1), r(1)]);
        assert!(solve(&a, &[r(1), r(2)]).is_none());
    }

    #[test]
    fn underdetermined_solved_with_free_zero() {
        // x + y = 4 (one equation, two unknowns): x = 4, y = 0.
        let a = Matrix::from_vec(1, 2, vec![r(1), r(1)]);
        assert_eq!(solve(&a, &[r(4)]).unwrap(), vec![r(4), r(0)]);
    }

    #[test]
    fn overdetermined_consistent() {
        // x = 2 stated twice.
        let a = Matrix::from_vec(2, 1, vec![r(1), r(1)]);
        assert_eq!(solve(&a, &[r(2), r(2)]).unwrap(), vec![r(2)]);
    }

    #[test]
    fn rank_examples() {
        assert_eq!(rank(&Matrix::identity(4)), 4);
        assert_eq!(rank(&Matrix::zeros(3, 3)), 0);
        let m = Matrix::from_vec(2, 2, vec![r(1), r(2), r(2), r(4)]);
        assert_eq!(rank(&m), 1);
    }

    #[test]
    fn rational_pivots() {
        // (1/2)x = 3 => x = 6.
        let a = Matrix::from_vec(1, 1, vec![Rational::new(1, 2)]);
        assert_eq!(solve(&a, &[r(3)]).unwrap(), vec![r(6)]);
    }

    #[test]
    fn solve_matrix_form() {
        let a = Matrix::from_vec(2, 2, vec![r(2), r(0), r(0), r(4)]);
        let b = Matrix::from_vec(2, 2, vec![r(2), r(4), r(4), r(8)]);
        let x = solve_matrix(&a, &b).unwrap();
        assert_eq!(x.as_slice(), &[r(1), r(2), r(1), r(2)]);
    }

    #[test]
    fn solution_satisfies_system() {
        // Random-ish consistent system: b = A·x0.
        let a = Matrix::from_vec(
            3,
            3,
            vec![r(2), r(-1), r(0), r(1), r(3), r(1), r(0), r(5), r(-2)],
        );
        let x0 = [r(1), r(-2), r(3)];
        let b: Vec<Rational> = (0..3)
            .map(|i| (0..3).map(|j| a[(i, j)] * x0[j]).sum())
            .collect();
        let x = solve(&a, &b).unwrap();
        for i in 0..3 {
            let lhs: Rational = (0..3).map(|j| a[(i, j)] * x[j]).sum();
            assert_eq!(lhs, b[i]);
        }
    }
}
