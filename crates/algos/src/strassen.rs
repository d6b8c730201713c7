//! Strassen's algorithm and Winograd's 7-multiplication variant as base
//! graphs.

use mmio_cdag::BaseGraph;
use mmio_matrix::{Matrix, Rational};

fn r(n: i64) -> Rational {
    Rational::integer(n)
}

/// Builds a `b × 4` encoding matrix from rows given as `[c11, c12, c21, c22]`
/// coefficient quadruples (2×2 entry order `(0,0),(0,1),(1,0),(1,1)`).
fn enc(rows: &[[i64; 4]]) -> Matrix<Rational> {
    Matrix::from_fn(rows.len(), 4, |m, x| r(rows[m][x]))
}

/// Strassen's ⟨2,2,2;7⟩ base graph (1969), as drawn in the paper's Figure 1.
///
/// ```text
/// M1 = (a11+a22)(b11+b22)   M5 = (a11+a12)·b22
/// M2 = (a21+a22)·b11        M6 = (a21−a11)(b11+b12)
/// M3 = a11·(b12−b22)        M7 = (a12−a22)(b21+b22)
/// M4 = a22·(b21−b11)
/// c11 = M1+M4−M5+M7         c12 = M3+M5
/// c21 = M2+M4               c22 = M1−M2+M3+M6
/// ```
pub fn strassen() -> BaseGraph {
    let enc_a = enc(&[
        [1, 0, 0, 1],  // a11+a22
        [0, 0, 1, 1],  // a21+a22
        [1, 0, 0, 0],  // a11
        [0, 0, 0, 1],  // a22
        [1, 1, 0, 0],  // a11+a12
        [-1, 0, 1, 0], // a21-a11
        [0, 1, 0, -1], // a12-a22
    ]);
    let enc_b = enc(&[
        [1, 0, 0, 1],  // b11+b22
        [1, 0, 0, 0],  // b11
        [0, 1, 0, -1], // b12-b22
        [-1, 0, 1, 0], // b21-b11
        [0, 0, 0, 1],  // b22
        [1, 1, 0, 0],  // b11+b12
        [0, 0, 1, 1],  // b21+b22
    ]);
    let dec = Matrix::from_fn(4, 7, |y, m| {
        let coeffs: [[i64; 7]; 4] = [
            [1, 0, 0, 1, -1, 0, 1], // c11 = M1+M4-M5+M7
            [0, 0, 1, 0, 1, 0, 0],  // c12 = M3+M5
            [0, 1, 0, 1, 0, 0, 0],  // c21 = M2+M4
            [1, -1, 1, 0, 0, 1, 0], // c22 = M1-M2+M3+M6
        ];
        r(coeffs[y][m])
    });
    BaseGraph::new("strassen", 2, enc_a, enc_b, dec)
}

/// Winograd's 7-multiplication, 15-addition variant of Strassen's scheme —
/// same `(a, b) = (4, 7)`, structurally different base graph (denser
/// encoding rows, different copying pattern).
///
/// Flattened from the usual staged form
/// (`S2 = a21+a22−a11`, `T2 = b22−b12+b11`, …):
///
/// ```text
/// M1 = (a21+a22−a11)(b22−b12+b11)   M5 = (a21+a22)(b12−b11)
/// M2 = a11·b11                       M6 = (a12−a21−a22+a11)·b22
/// M3 = a12·b21                       M7 = a22·(b21−b22+b12−b11)
/// M4 = (a11−a21)(b22−b12)
/// c11 = M2+M3          c12 = M1+M2+M5+M6
/// c21 = M1+M2+M4+M7    c22 = M1+M2+M4+M5
/// ```
pub fn winograd() -> BaseGraph {
    let enc_a = enc(&[
        [-1, 0, 1, 1],  // a21+a22-a11
        [1, 0, 0, 0],   // a11
        [0, 1, 0, 0],   // a12
        [1, 0, -1, 0],  // a11-a21
        [0, 0, 1, 1],   // a21+a22
        [1, 1, -1, -1], // a12-a21-a22+a11
        [0, 0, 0, 1],   // a22
    ]);
    let enc_b = enc(&[
        [1, -1, 0, 1],  // b22-b12+b11
        [1, 0, 0, 0],   // b11
        [0, 0, 1, 0],   // b21
        [0, -1, 0, 1],  // b22-b12
        [-1, 1, 0, 0],  // b12-b11
        [0, 0, 0, 1],   // b22
        [-1, 1, 1, -1], // b21-b22+b12-b11
    ]);
    let dec = Matrix::from_fn(4, 7, |y, m| {
        let coeffs: [[i64; 7]; 4] = [
            [0, 1, 1, 0, 0, 0, 0], // c11 = M2+M3
            [1, 1, 0, 0, 1, 1, 0], // c12 = M1+M2+M5+M6
            [1, 1, 0, 1, 0, 0, 1], // c21 = M1+M2+M4+M7
            [1, 1, 0, 1, 1, 0, 0], // c22 = M1+M2+M4+M5
        ];
        r(coeffs[y][m])
    });
    BaseGraph::new("winograd", 2, enc_a, enc_b, dec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmio_cdag::base::Side;

    #[test]
    fn strassen_is_correct() {
        assert_eq!(strassen().verify_correctness(), Ok(()));
    }

    #[test]
    fn winograd_is_correct() {
        assert_eq!(winograd().verify_correctness(), Ok(()));
    }

    #[test]
    fn strassen_parameters() {
        let s = strassen();
        assert_eq!((s.n0(), s.a(), s.b()), (2, 4, 7));
        assert!(s.is_fast());
        assert!((s.omega0() - 7f64.log2()).abs() < 1e-12);
    }

    #[test]
    fn strassen_satisfies_paper_assumptions() {
        let s = strassen();
        assert!(s.single_use_assumption_holds());
        assert!(s.lemma1_condition_holds());
    }

    #[test]
    fn strassen_has_copying_but_not_multiple() {
        // b11 appears bare in M2 only, b22 in M5 only, a11 in M3 only,
        // a22 in M4 only: single copying, no branching.
        let s = strassen();
        assert!(s.row_is_trivial(Side::A, 2)); // M3's A side = a11
        assert!(s.row_is_trivial(Side::B, 1)); // M2's B side = b11
        assert!(!s.has_multiple_copying());
    }

    #[test]
    fn winograd_differs_from_strassen() {
        let (s, w) = (strassen(), winograd());
        assert_eq!((w.n0(), w.b()), (2, 7));
        assert!(w.is_fast());
        // Different encodings (as matrices).
        assert!(!s.enc(Side::A).exactly_equals(w.enc(Side::A)));
    }

    #[test]
    fn flattened_addition_counts() {
        // Adds per step in *flattened* (single-layer encoding) form:
        // nnz(enc_a) - b + nnz(enc_b) - b + nnz(dec) - a. Winograd's famous
        // 15-addition count relies on sharing staged sums (S1, T2, …), which
        // the flat base-graph form deliberately does not model — flattened,
        // Strassen is the leaner of the two.
        let count = |g: &BaseGraph| {
            let nnz = |m: &mmio_matrix::Matrix<_>| m.nonzeros().count();
            nnz(g.enc(Side::A)) + nnz(g.enc(Side::B)) + nnz(g.dec()) - 2 * g.b() - g.a()
        };
        assert_eq!(count(&strassen()), 18);
        assert_eq!(count(&winograd()), 24);
    }
}
