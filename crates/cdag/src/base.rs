//! Base graphs `G₁` of Strassen-like algorithms.
//!
//! A base graph is fully specified by three exact coefficient matrices: the
//! two encodings (one row per multiplication, one column per entry of the
//! input matrix) and the decoding (one row per entry of the output matrix,
//! one column per multiplication). Entry flattening follows the paper:
//! `A` entries `(i,k)` (row, column) flatten to `i·n₀+k`, `B` entries `(k,j)`
//! to `k·n₀+j`, `C` entries `(i,j)` to `i·n₀+j`.

use mmio_matrix::{Matrix, Rational};
use std::fmt;

/// Which input matrix an encoding refers to.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Side {
    /// The left operand `A`.
    A,
    /// The right operand `B`.
    B,
}

/// A Strassen-like base graph `⟨n₀, n₀, n₀; b⟩`: compute `b` products of
/// linear combinations of the entries of `A` and `B`, then linear
/// combinations of the products give the entries of `C = A·B`.
#[derive(Clone)]
pub struct BaseGraph {
    name: String,
    n0: usize,
    /// `b × a` encoding of `A` (`a = n₀²`): row `m` holds the combination
    /// multiplied in product `m`.
    enc_a: Matrix<Rational>,
    /// `b × a` encoding of `B`.
    enc_b: Matrix<Rational>,
    /// `a × b` decoding: row `y` holds the combination of products giving
    /// output entry `y`.
    dec: Matrix<Rational>,
}

/// A violation of the matrix-multiplication tensor identity, reported by
/// [`BaseGraph::verify_correctness`].
#[derive(Clone, Debug, PartialEq)]
pub struct CorrectnessError {
    /// `A` entry `(i, k)`.
    pub a_entry: (usize, usize),
    /// `B` entry `(k', j)`.
    pub b_entry: (usize, usize),
    /// `C` entry `(i', j')`.
    pub c_entry: (usize, usize),
    /// The coefficient the algorithm computes for this triple.
    pub got: Rational,
    /// The coefficient matrix multiplication demands (1 or 0).
    pub want: Rational,
}

impl fmt::Display for CorrectnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tensor mismatch at a{:?}·b{:?}→c{:?}: got {}, want {}",
            self.a_entry, self.b_entry, self.c_entry, self.got, self.want
        )
    }
}

/// Checks that three coefficient matrices shape a base graph with block
/// side `n0`: `n0 ≥ 1` with `a = n0²` in range, at least one product, `enc_a`
/// and `enc_b` of shape `b × a`, and `dec` of shape `a × b`. Returns `a`.
/// The one shape rule of [`BaseGraph::new`], JSON import and
/// [`crate::IndexView::new`].
pub fn check_shape(
    n0: usize,
    enc_a: &Matrix<Rational>,
    enc_b: &Matrix<Rational>,
    dec: &Matrix<Rational>,
) -> Result<usize, String> {
    if n0 < 1 {
        return Err("n0 must be at least 1".into());
    }
    let a = n0.checked_mul(n0).ok_or("n0² overflows")?;
    let b = enc_a.rows();
    if b < 1 {
        return Err("enc_a must have at least one row".into());
    }
    let rules = [
        (enc_a.cols() == a, "enc_a must have a = n0² columns"),
        (enc_b.rows() == b, "enc_b must have b rows"),
        (enc_b.cols() == a, "enc_b must have a = n0² columns"),
        (dec.rows() == a, "dec must have a = n0² rows"),
        (dec.cols() == b, "dec must have b columns"),
    ];
    match rules.into_iter().find(|&(holds, _)| !holds) {
        Some((_, rule)) => Err(format!("{rule} (n0 = {n0}, b = {b})")),
        None => Ok(a),
    }
}

/// The largest in-degree of `G_r` over a base whose widest coefficient row
/// has `widest_row` nonzeros. Every product reads its two operands; at
/// `r ≥ 1` every base row also generates combination vertices that read
/// its nonzeros, while `G_0` applies no row. A cache holds an operand set
/// of `G_r` iff it has `max_indegree + 1` slots: the one operand floor
/// that the views, the schedulers and `mmio_core::Instance` read.
pub fn max_indegree(r: u32, widest_row: usize) -> usize {
    if r == 0 {
        2
    } else {
        widest_row.max(2)
    }
}

impl BaseGraph {
    /// Creates a base graph from its three coefficient matrices.
    ///
    /// # Panics
    /// Panics if [`check_shape`] rejects the dimensions.
    pub fn new(
        name: impl Into<String>,
        n0: usize,
        enc_a: Matrix<Rational>,
        enc_b: Matrix<Rational>,
        dec: Matrix<Rational>,
    ) -> BaseGraph {
        if let Err(e) = check_shape(n0, &enc_a, &enc_b, &dec) {
            panic!("invalid base graph: {e}");
        }
        BaseGraph {
            name: name.into(),
            n0,
            enc_a,
            enc_b,
            dec,
        }
    }

    /// Human-readable name (e.g. `"strassen"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Block side `n₀` of one recursion step.
    pub fn n0(&self) -> usize {
        self.n0
    }

    /// `a = n₀²`: the number of inputs per matrix (the paper's `a`, so the
    /// base graph has `2a` inputs).
    pub fn a(&self) -> usize {
        self.enc_a.cols() // n₀², by `check_shape`
    }

    /// `b`: the number of multiplications per recursion step.
    pub fn b(&self) -> usize {
        self.enc_a.rows()
    }

    /// The operand floor of `G_r` over this base, in closed form: the
    /// smallest cache that holds an operand set plus its result,
    /// [`max_indegree`]` + 1`.
    pub fn operand_floor(&self, r: u32) -> usize {
        let widest = [&self.enc_a, &self.enc_b, &self.dec]
            .into_iter()
            .flat_map(|m| (0..m.rows()).map(|i| m.row(i).iter().filter(|c| !c.is_zero()).count()))
            .max()
            .unwrap_or(0);
        max_indegree(r, widest) + 1
    }

    /// The encoding matrix for the given side.
    pub fn enc(&self, side: Side) -> &Matrix<Rational> {
        match side {
            Side::A => &self.enc_a,
            Side::B => &self.enc_b,
        }
    }

    /// The decoding matrix.
    pub fn dec(&self) -> &Matrix<Rational> {
        &self.dec
    }

    /// Flattened index of `A` entry `(i, k)`.
    pub fn a_index(&self, i: usize, k: usize) -> usize {
        debug_assert!(i < self.n0 && k < self.n0);
        i * self.n0 + k
    }

    /// Flattened index of `B` entry `(k, j)`.
    pub fn b_index(&self, k: usize, j: usize) -> usize {
        debug_assert!(k < self.n0 && j < self.n0);
        k * self.n0 + j
    }

    /// Flattened index of `C` entry `(i, j)`.
    pub fn c_index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.n0 && j < self.n0);
        i * self.n0 + j
    }

    /// The exponent `ω₀ = 2·log_a b` of the algorithm's arithmetic
    /// complexity `Θ(n^{ω₀})`.
    pub fn omega0(&self) -> f64 {
        2.0 * (self.b() as f64).ln() / (self.a() as f64).ln()
    }

    /// Whether the algorithm is *fast* in the paper's sense (`ω₀ < 3`, i.e.
    /// `b < a^{3/2} = n₀³`).
    pub fn is_fast(&self) -> bool {
        self.b() < self.n0.pow(3) // b < n0³
    }

    /// Verifies the matrix-multiplication tensor identity
    /// `Σ_m dec[y][m]·enc_a[m][x]·enc_b[m][z] = T(x, z, y)`,
    /// returning every violated triple (empty ⇔ the algorithm is correct).
    pub fn verify_correctness(&self) -> Result<(), Vec<CorrectnessError>> {
        let n0 = self.n0;
        let mut errors = Vec::new();
        for i in 0..n0 {
            for k in 0..n0 {
                for k2 in 0..n0 {
                    for j in 0..n0 {
                        for i2 in 0..n0 {
                            for j2 in 0..n0 {
                                let x = self.a_index(i, k);
                                let z = self.b_index(k2, j);
                                let y = self.c_index(i2, j2);
                                let got: Rational = (0..self.b())
                                    .map(|m| {
                                        self.dec[(y, m)] * self.enc_a[(m, x)] * self.enc_b[(m, z)]
                                    })
                                    .sum();
                                let want = if i == i2 && j == j2 && k == k2 {
                                    Rational::ONE
                                } else {
                                    Rational::ZERO
                                };
                                if got != want {
                                    errors.push(CorrectnessError {
                                        a_entry: (i, k),
                                        b_entry: (k2, j),
                                        c_entry: (i2, j2),
                                        got,
                                        want,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        }
    }

    /// Whether encoding row `m` on `side` is *trivial*: exactly one nonzero
    /// coefficient, equal to 1. A trivial row means the combination vertex is
    /// a *copy* of its single parent (paper Section 3).
    pub fn row_is_trivial(&self, side: Side, m: usize) -> bool {
        row_trivial(self.enc(side), m)
    }

    /// Whether decoding row `y` is trivial (only possible for degenerate
    /// base graphs; Lemma 2 shows correct algorithms never have decoding
    /// copying).
    pub fn dec_row_is_trivial(&self, y: usize) -> bool {
        row_trivial(&self.dec, y)
    }

    /// The paper's standing assumption: every *nontrivial* linear combination
    /// is used in only one multiplication. In coefficient terms: no
    /// nontrivial encoding row is repeated (a repeat would be the same
    /// combination feeding two products, given that values are never
    /// recomputed).
    pub fn single_use_assumption_holds(&self) -> bool {
        for side in [Side::A, Side::B] {
            let enc = self.enc(side);
            for m1 in 0..self.b() {
                if row_trivial(enc, m1) {
                    continue;
                }
                for m2 in (m1 + 1)..self.b() {
                    if enc.row(m1) == enc.row(m2) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Whether the base graph exhibits *multiple copying*: some input entry
    /// is used bare (via a trivial row) in two or more multiplications, so
    /// its meta-vertex branches (paper Figure 2).
    pub fn has_multiple_copying(&self) -> bool {
        for side in [Side::A, Side::B] {
            let enc = self.enc(side);
            for x in 0..self.a() {
                let copies = (0..self.b())
                    .filter(|&m| row_trivial(enc, m) && !enc[(m, x)].is_zero())
                    .count();
                if copies >= 2 {
                    return true;
                }
            }
        }
        false
    }

    /// Lemma 1's hypothesis: not every vertex of the encoding graph for `A`
    /// is duplicated, and similarly for `B`. Equivalently, each encoding has
    /// at least one nontrivial row (otherwise the algorithm takes no linear
    /// combinations of that matrix and is no faster than classical).
    pub fn lemma1_condition_holds(&self) -> bool {
        [Side::A, Side::B]
            .iter()
            .all(|&side| (0..self.b()).any(|m| !self.row_is_trivial(side, m)))
    }

    /// Tensor (Kronecker) product with another base graph: the `⟨n₀·n₀'; b·b'⟩`
    /// algorithm applying `self` at the outer level and `other` inside.
    /// Preserves correctness: the tensor of correct algorithms is correct.
    pub fn tensor(&self, other: &BaseGraph) -> BaseGraph {
        let n0 = self.n0 * other.n0;
        // Flattened entry index of the tensor: the outer block coordinate is
        // (i1, k1) and the inner (i2, k2); the combined matrix entry is
        // (i1·n0'+i2, k1·n0'+k2), flattening to a single [n0²] index.
        let combine = |outer: usize, inner: usize, n_inner: usize| -> usize {
            let (or, oc) = (outer / self.n0, outer % self.n0);
            let (ir, ic) = (inner / n_inner, inner % n_inner);
            (or * n_inner + ir) * n0 + (oc * n_inner + ic)
        };
        let kron = |m1: &Matrix<Rational>, m2: &Matrix<Rational>, by_rows: bool| {
            if by_rows {
                // Encodings: rows are products (pure Kronecker), columns are
                // entries (remapped through `combine`).
                Matrix::from_fn(m1.rows() * m2.rows(), n0 * n0, |row, col| {
                    let (r1, r2) = (row / m2.rows(), row % m2.rows());
                    // Invert `combine`: recover outer and inner entry index.
                    let (cr, cc) = (col / n0, col % n0);
                    let (o, i) = (
                        (cr / other.n0) * self.n0 + cc / other.n0,
                        (cr % other.n0) * other.n0 + cc % other.n0,
                    );
                    m1[(r1, o)] * m2[(r2, i)]
                })
            } else {
                // Decoding: rows are entries, columns are products.
                Matrix::from_fn(n0 * n0, m1.cols() * m2.cols(), |row, col| {
                    let (rr, rc) = (row / n0, row % n0);
                    let (o, i) = (
                        (rr / other.n0) * self.n0 + rc / other.n0,
                        (rr % other.n0) * other.n0 + rc % other.n0,
                    );
                    let (c1, c2) = (col / m2.cols(), col % m2.cols());
                    m1[(o, c1)] * m2[(i, c2)]
                })
            }
        };
        let _ = combine; // documented above; inverted inline in `kron`
        BaseGraph::new(
            format!("{}⊗{}", self.name, other.name),
            n0,
            kron(&self.enc_a, &other.enc_a, true),
            kron(&self.enc_b, &other.enc_b, true),
            kron(&self.dec, &other.dec, false),
        )
    }
}

fn row_trivial(m: &Matrix<Rational>, row: usize) -> bool {
    let mut nonzeros = 0;
    let mut is_one = false;
    for j in 0..m.cols() {
        let c = m[(row, j)];
        if !c.is_zero() {
            nonzeros += 1;
            is_one = c.is_one();
        }
    }
    nonzeros == 1 && is_one
}

impl fmt::Debug for BaseGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BaseGraph({}, n0={}, a={}, b={}, ω0={:.3})",
            self.name,
            self.n0,
            self.a(),
            self.b(),
            self.omega0()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64) -> Rational {
        Rational::integer(n)
    }

    /// The trivial ⟨1,1,1;1⟩ algorithm: c = a·b.
    fn trivial() -> BaseGraph {
        BaseGraph::new(
            "trivial",
            1,
            Matrix::from_vec(1, 1, vec![r(1)]),
            Matrix::from_vec(1, 1, vec![r(1)]),
            Matrix::from_vec(1, 1, vec![r(1)]),
        )
    }

    /// A deliberately wrong 1×1 "algorithm": c = 2·a·b.
    fn broken() -> BaseGraph {
        BaseGraph::new(
            "broken",
            1,
            Matrix::from_vec(1, 1, vec![r(2)]),
            Matrix::from_vec(1, 1, vec![r(1)]),
            Matrix::from_vec(1, 1, vec![r(1)]),
        )
    }

    #[test]
    fn trivial_is_correct() {
        assert!(trivial().verify_correctness().is_ok());
    }

    #[test]
    fn broken_is_detected() {
        let errs = broken().verify_correctness().unwrap_err();
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].got, r(2));
        assert_eq!(errs[0].want, r(1));
    }

    #[test]
    fn parameters() {
        let g = trivial();
        assert_eq!(g.a(), 1);
        assert_eq!(g.b(), 1);
        assert_eq!(g.n0(), 1);
    }

    #[test]
    fn tensor_of_trivial_is_trivial() {
        let t = trivial().tensor(&trivial());
        assert_eq!(t.n0(), 1);
        assert_eq!(t.b(), 1);
        assert!(t.verify_correctness().is_ok());
    }

    #[test]
    #[should_panic(expected = "dec must have b columns")]
    fn dimension_check() {
        let _ = BaseGraph::new(
            "bad",
            1,
            Matrix::from_vec(2, 1, vec![r(1), r(1)]),
            Matrix::from_vec(2, 1, vec![r(1), r(1)]),
            Matrix::from_vec(1, 1, vec![r(1)]),
        );
    }

    #[test]
    fn trivial_rows() {
        let g = BaseGraph::new(
            "rows",
            1,
            Matrix::from_vec(3, 1, vec![r(1), r(2), r(0)]),
            Matrix::from_vec(3, 1, vec![r(1), r(1), r(1)]),
            Matrix::from_vec(1, 3, vec![r(1), r(0), r(0)]),
        );
        assert!(g.row_is_trivial(Side::A, 0));
        assert!(!g.row_is_trivial(Side::A, 1)); // coefficient 2
        assert!(!g.row_is_trivial(Side::A, 2)); // zero row
        assert!(g.has_multiple_copying()); // B input copied to 3 products
    }
}
