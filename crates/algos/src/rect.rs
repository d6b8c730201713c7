//! Rectangular bilinear matrix-multiplication algorithms `⟨m,k,n;b⟩`.
//!
//! The paper's Previous Work section contrasts its square-only setting
//! with the rectangular algorithms of Bini et al. and Hopcroft–Kerr,
//! handled by the edge-expansion extension \[4\]. This module provides the
//! rectangular substrate those references live in:
//!
//! - general `⟨m,k,n;b⟩` algorithms with exact tensor verification;
//! - the classical `⟨m,k,n;mkn⟩` algorithm;
//! - **direct sums**: `⟨m,k,n₁;b₁⟩ ⊕ ⟨m,k,n₂;b₂⟩ = ⟨m,k,n₁+n₂;b₁+b₂⟩`,
//!   which builds an *optimal* `⟨2,2,3;11⟩` from Strassen ⊕ classical —
//!   11 is the rank Hopcroft–Kerr proved minimal for this shape;
//! - **cyclic rotation** `⟨m,k,n⟩ → ⟨k,n,m⟩` (the tensor symmetry);
//! - **tensor products**, and the classical *square-ization*
//!   `alg ⊗ rot(alg) ⊗ rot²(alg) = ⟨mkn,mkn,mkn;b³⟩`, which turns the
//!   `⟨2,2,3;11⟩` into a fast square `⟨12,12,12;1331⟩` base graph
//!   (`ω₀ = 3·log₁₂ 11 ≈ 2.894`) — the Hopcroft–Kerr family as a
//!   [`BaseGraph`] the whole lower-bound pipeline accepts.

use mmio_cdag::base::Side;
use mmio_cdag::BaseGraph;
use mmio_matrix::{Matrix, Rational};

/// A bilinear algorithm computing `C (m×n) = A (m×k) · B (k×n)` with `b`
/// products. Entry flattening is row-major per operand.
#[derive(Clone)]
pub struct RectAlgorithm {
    name: String,
    m: usize,
    k: usize,
    n: usize,
    /// `b × (m·k)`.
    enc_a: Matrix<Rational>,
    /// `b × (k·n)`.
    enc_b: Matrix<Rational>,
    /// `(m·n) × b`.
    dec: Matrix<Rational>,
}

impl RectAlgorithm {
    /// Creates an algorithm from its coefficient matrices.
    ///
    /// # Panics
    /// Panics on inconsistent dimensions.
    pub fn new(
        name: impl Into<String>,
        (m, k, n): (usize, usize, usize),
        enc_a: Matrix<Rational>,
        enc_b: Matrix<Rational>,
        dec: Matrix<Rational>,
    ) -> RectAlgorithm {
        let b = enc_a.rows();
        assert!(m * k * n > 0, "dimensions must be positive");
        assert_eq!(enc_a.cols(), m * k, "enc_a must be b × mk");
        assert_eq!(enc_b.rows(), b);
        assert_eq!(enc_b.cols(), k * n, "enc_b must be b × kn");
        assert_eq!(dec.rows(), m * n, "dec must be mn × b");
        assert_eq!(dec.cols(), b);
        RectAlgorithm {
            name: name.into(),
            m,
            k,
            n,
            enc_a,
            enc_b,
            dec,
        }
    }

    /// The shape `(m, k, n)`.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.m, self.k, self.n)
    }

    /// The number of products.
    pub fn b(&self) -> usize {
        self.enc_a.rows()
    }

    /// Human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Wraps a square base graph as a rectangular algorithm.
    pub fn from_square(base: &BaseGraph) -> RectAlgorithm {
        RectAlgorithm {
            name: base.name().to_string(),
            m: base.n0(),
            k: base.n0(),
            n: base.n0(),
            enc_a: base.enc(Side::A).clone(),
            enc_b: base.enc(Side::B).clone(),
            dec: base.dec().clone(),
        }
    }

    /// Converts back to a square [`BaseGraph`] (requires `m = k = n`).
    ///
    /// # Panics
    /// Panics if the shape is not square.
    pub fn to_square(&self, name: impl Into<String>) -> BaseGraph {
        assert!(
            self.m == self.k && self.k == self.n,
            "to_square requires m = k = n"
        );
        BaseGraph::new(
            name,
            self.m,
            self.enc_a.clone(),
            self.enc_b.clone(),
            self.dec.clone(),
        )
    }

    /// Exact tensor verification: for all `(i,l), (l',j), (i',j')`,
    /// `Σ_μ dec[(i',j')][μ]·enc_a[μ][(i,l)]·enc_b[μ][(l',j)] =
    /// [i=i'][j=j'][l=l']`.
    pub fn verify_correctness(&self) -> Result<(), usize> {
        let mut violations = 0;
        for i in 0..self.m {
            for l in 0..self.k {
                for l2 in 0..self.k {
                    for j in 0..self.n {
                        for i2 in 0..self.m {
                            for j2 in 0..self.n {
                                let x = i * self.k + l;
                                let z = l2 * self.n + j;
                                let y = i2 * self.n + j2;
                                let got: Rational = (0..self.b())
                                    .map(|mu| {
                                        self.dec[(y, mu)]
                                            * self.enc_a[(mu, x)]
                                            * self.enc_b[(mu, z)]
                                    })
                                    .sum();
                                let want = if i == i2 && j == j2 && l == l2 {
                                    Rational::ONE
                                } else {
                                    Rational::ZERO
                                };
                                if got != want {
                                    violations += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        if violations == 0 {
            Ok(())
        } else {
            Err(violations)
        }
    }

    /// Applies the algorithm once to block matrices: `A` is `(m·s) × (k·s)`,
    /// `B` is `(k·s) × (n·s)`; inner `s×s` blocks multiply classically.
    #[cfg(test)]
    pub fn apply(&self, a: &Matrix<Rational>, b: &Matrix<Rational>) -> Matrix<Rational> {
        let s = a.rows() / self.m;
        assert_eq!(a.rows(), self.m * s, "A row blocking");
        assert_eq!(a.cols(), self.k * s, "A col blocking");
        assert_eq!(b.rows(), self.k * s, "B row blocking");
        assert_eq!(b.cols(), self.n * s, "B col blocking");
        let block = |mat: &Matrix<Rational>, bi: usize, bj: usize| mat.block(bi * s, bj * s, s, s);

        let mut out = Matrix::zeros(self.m * s, self.n * s);
        let mut products = Vec::with_capacity(self.b());
        for mu in 0..self.b() {
            let mut sa = Matrix::zeros(s, s);
            for i in 0..self.m {
                for l in 0..self.k {
                    let c = self.enc_a[(mu, i * self.k + l)];
                    if !c.is_zero() {
                        sa = sa.add_ref(&block(a, i, l).scale(c));
                    }
                }
            }
            let mut sb = Matrix::zeros(s, s);
            for l in 0..self.k {
                for j in 0..self.n {
                    let c = self.enc_b[(mu, l * self.n + j)];
                    if !c.is_zero() {
                        sb = sb.add_ref(&block(b, l, j).scale(c));
                    }
                }
            }
            products.push(mmio_matrix::classical::multiply_naive(&sa, &sb));
        }
        for i in 0..self.m {
            for j in 0..self.n {
                let mut acc = Matrix::zeros(s, s);
                for (mu, p) in products.iter().enumerate() {
                    let c = self.dec[(i * self.n + j, mu)];
                    if !c.is_zero() {
                        acc = acc.add_ref(&p.scale(c));
                    }
                }
                out.set_block(i * s, j * s, &acc);
            }
        }
        out
    }

    /// The cyclic tensor rotation `⟨m,k,n⟩ → ⟨k,n,m⟩`: reinterpret the
    /// trilinear form `Σ a_{il}·b_{lj}·c_{ij}` with `(A,B,C) → (B, Cᵀ, Aᵀ)`.
    pub fn rotate(&self) -> RectAlgorithm {
        let (m, k, n) = (self.m, self.k, self.n);
        let b = self.b();
        // New A' = old B (k×n): coefficients unchanged.
        let enc_a = self.enc_b.clone();
        // New B' = old Cᵀ (n×m): enc_b'[μ][(j,i)] = dec[(i,j)][μ].
        let enc_b = Matrix::from_fn(b, n * m, |mu, zi| {
            let (j, i) = (zi / m, zi % m);
            self.dec[(i * n + j, mu)]
        });
        // New C' = old Aᵀ (k×m): dec'[(l,i)][μ] = enc_a[μ][(i,l)].
        let dec = Matrix::from_fn(k * m, b, |yi, mu| {
            let (l, i) = (yi / m, yi % m);
            self.enc_a[(mu, i * k + l)]
        });
        RectAlgorithm {
            name: format!("rot({})", self.name),
            m: k,
            k: n,
            n: m,
            enc_a,
            enc_b,
            dec,
        }
    }

    /// Tensor product: `⟨m,k,n;b⟩ ⊗ ⟨m',k',n';b'⟩ = ⟨mm',kk',nn';bb'⟩`.
    pub fn tensor(&self, other: &RectAlgorithm) -> RectAlgorithm {
        let (m1, k1, n1) = self.dims();
        let (m2, k2, n2) = other.dims();
        let (m, k, n) = (m1 * m2, k1 * k2, n1 * n2);
        let b = self.b() * other.b();
        // Combined entry index: rows/cols compose as (outer, inner).
        let enc_a = Matrix::from_fn(b, m * k, |mu, x| {
            let (mu1, mu2) = (mu / other.b(), mu % other.b());
            let (row, col) = (x / k, x % k);
            let (i1, i2) = (row / m2, row % m2);
            let (l1, l2) = (col / k2, col % k2);
            self.enc_a[(mu1, i1 * k1 + l1)] * other.enc_a[(mu2, i2 * k2 + l2)]
        });
        let enc_b = Matrix::from_fn(b, k * n, |mu, z| {
            let (mu1, mu2) = (mu / other.b(), mu % other.b());
            let (row, col) = (z / n, z % n);
            let (l1, l2) = (row / k2, row % k2);
            let (j1, j2) = (col / n2, col % n2);
            self.enc_b[(mu1, l1 * n1 + j1)] * other.enc_b[(mu2, l2 * n2 + j2)]
        });
        let dec = Matrix::from_fn(m * n, b, |y, mu| {
            let (mu1, mu2) = (mu / other.b(), mu % other.b());
            let (row, col) = (y / n, y % n);
            let (i1, i2) = (row / m2, row % m2);
            let (j1, j2) = (col / n2, col % n2);
            self.dec[(i1 * n1 + j1, mu1)] * other.dec[(i2 * n2 + j2, mu2)]
        });
        RectAlgorithm {
            name: format!("{}⊗{}", self.name, other.name),
            m,
            k,
            n,
            enc_a,
            enc_b,
            dec,
        }
    }

    /// Direct sum along the `n` dimension: computes
    /// `C = A·[B₁ | B₂]` as `[self(A,B₁) | other(A,B₂)]`, giving
    /// `⟨m,k,n₁+n₂; b₁+b₂⟩`. Both summands must share `(m, k)`.
    ///
    /// # Panics
    /// Panics on `(m, k)` mismatch.
    pub fn direct_sum_cols(&self, other: &RectAlgorithm) -> RectAlgorithm {
        assert_eq!(
            (self.m, self.k),
            (other.m, other.k),
            "direct sum requires matching (m, k)"
        );
        let (m, k) = (self.m, self.k);
        let n = self.n + other.n;
        let b = self.b() + other.b();
        let enc_a = Matrix::from_fn(b, m * k, |mu, x| {
            if mu < self.b() {
                self.enc_a[(mu, x)]
            } else {
                other.enc_a[(mu - self.b(), x)]
            }
        });
        let enc_b = Matrix::from_fn(b, k * n, |mu, z| {
            let (l, j) = (z / n, z % n);
            if mu < self.b() {
                if j < self.n {
                    self.enc_b[(mu, l * self.n + j)]
                } else {
                    Rational::ZERO
                }
            } else if j >= self.n {
                other.enc_b[(mu - self.b(), l * other.n + (j - self.n))]
            } else {
                Rational::ZERO
            }
        });
        let dec = Matrix::from_fn(m * n, b, |y, mu| {
            let (i, j) = (y / n, y % n);
            if mu < self.b() {
                if j < self.n {
                    self.dec[(i * self.n + j, mu)]
                } else {
                    Rational::ZERO
                }
            } else if j >= self.n {
                other.dec[(i * other.n + (j - self.n), mu - self.b())]
            } else {
                Rational::ZERO
            }
        });
        RectAlgorithm {
            name: format!("{}⊕{}", self.name, other.name),
            m,
            k,
            n,
            enc_a,
            enc_b,
            dec,
        }
    }

    /// The classical square-ization: `self ⊗ rot(self) ⊗ rot²(self)` is a
    /// square `⟨mkn, mkn, mkn; b³⟩` algorithm.
    pub fn squarize(&self, name: impl Into<String>) -> BaseGraph {
        let r1 = self.rotate();
        let r2 = r1.rotate();
        self.tensor(&r1).tensor(&r2).to_square(name)
    }
}

/// The classical `⟨m,k,n; mkn⟩` algorithm.
pub fn classical_rect(m: usize, k: usize, n: usize) -> RectAlgorithm {
    let b = m * k * n;
    let mut enc_a = Matrix::zeros(b, m * k);
    let mut enc_b = Matrix::zeros(b, k * n);
    let mut dec = Matrix::zeros(m * n, b);
    let mut mu = 0;
    for i in 0..m {
        for j in 0..n {
            for l in 0..k {
                enc_a[(mu, i * k + l)] = Rational::ONE;
                enc_b[(mu, l * n + j)] = Rational::ONE;
                dec[(i * n + j, mu)] = Rational::ONE;
                mu += 1;
            }
        }
    }
    RectAlgorithm::new(
        format!("classical{m}x{k}x{n}"),
        (m, k, n),
        enc_a,
        enc_b,
        dec,
    )
}

/// An optimal `⟨2,2,3;11⟩` algorithm: Strassen on the first two columns of
/// `B`, classical `⟨2,2,1;4⟩` on the third — 11 products, the rank
/// Hopcroft–Kerr \[11\] proved minimal for this shape.
pub fn rect_2x2x3() -> RectAlgorithm {
    let strassen = RectAlgorithm::from_square(&crate::strassen::strassen());
    let col = classical_rect(2, 2, 1);
    let mut sum = strassen.direct_sum_cols(&col);
    sum.name = "hopcroft-kerr-11".to_string();
    sum
}

/// The Hopcroft–Kerr-family fast *square* algorithm: `⟨12,12,12;1331⟩`
/// from squarizing [`rect_2x2x3`], `ω₀ = 3·log₁₂ 11 ≈ 2.895 < 3`.
/// Verified by randomized evaluation (the exhaustive tensor check at
/// `n₀ = 12` is out of reach; correctness also follows structurally from
/// the verified factors).
pub fn hopcroft_kerr_square() -> BaseGraph {
    rect_2x2x3().squarize("hopcroft-kerr-12")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn classical_rect_correct() {
        for (m, k, n) in [(1, 1, 1), (2, 2, 2), (2, 3, 4), (3, 2, 2)] {
            assert_eq!(
                classical_rect(m, k, n).verify_correctness(),
                Ok(()),
                "{m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn from_square_roundtrip() {
        let s = RectAlgorithm::from_square(&crate::strassen::strassen());
        assert_eq!(s.dims(), (2, 2, 2));
        assert_eq!(s.verify_correctness(), Ok(()));
        let back = s.to_square("strassen-back");
        assert_eq!(back.verify_correctness(), Ok(()));
    }

    #[test]
    fn rotation_preserves_correctness() {
        let alg = classical_rect(2, 3, 4);
        let r = alg.rotate();
        assert_eq!(r.dims(), (3, 4, 2));
        assert_eq!(r.verify_correctness(), Ok(()));
        // Three rotations come back to the original shape.
        let r3 = r.rotate().rotate();
        assert_eq!(r3.dims(), (2, 3, 4));
        assert_eq!(r3.verify_correctness(), Ok(()));
    }

    #[test]
    fn rotation_of_strassen_correct() {
        let s = RectAlgorithm::from_square(&crate::strassen::strassen());
        assert_eq!(s.rotate().verify_correctness(), Ok(()));
    }

    #[test]
    fn tensor_of_rectangles_correct() {
        let t = classical_rect(2, 1, 2).tensor(&classical_rect(1, 2, 1));
        assert_eq!(t.dims(), (2, 2, 2));
        assert_eq!(t.b(), 4 * 2);
        assert_eq!(t.verify_correctness(), Ok(()));
    }

    #[test]
    fn hopcroft_kerr_11_is_correct_and_minimal_rank() {
        let hk = rect_2x2x3();
        assert_eq!(hk.dims(), (2, 2, 3));
        assert_eq!(hk.b(), 11, "the optimal rank for ⟨2,2,3⟩");
        assert_eq!(hk.verify_correctness(), Ok(()));
    }

    #[test]
    fn hk_beats_classical_product_count() {
        assert!(rect_2x2x3().b() < classical_rect(2, 2, 3).b());
    }

    #[test]
    fn apply_matches_classical() {
        let hk = rect_2x2x3();
        let mut rng = StdRng::seed_from_u64(9);
        let a = mmio_matrix::random::random_i64_matrix(4, 4, &mut rng).map(Rational::integer);
        let b = mmio_matrix::random::random_i64_matrix(4, 6, &mut rng).map(Rational::integer);
        let got = hk.apply(&a, &b);
        let want = mmio_matrix::classical::multiply_naive(&a, &b);
        assert!(got.exactly_equals(&want));
    }

    #[test]
    fn squarized_hk_parameters_and_randomized_check() {
        let sq = hopcroft_kerr_square();
        assert_eq!((sq.n0(), sq.b()), (12, 1331));
        assert!(sq.is_fast());
        let expected = 3.0 * (11f64).ln() / (12f64).ln();
        assert!((sq.omega0() - expected).abs() < 1e-12);
        let mut rng = StdRng::seed_from_u64(11);
        assert!(crate::verify::verify_base_graph_randomized(
            &sq, 3, &mut rng
        ));
    }

    #[test]
    fn small_squarize_verifies_exactly() {
        // ⟨1,1,2;2⟩ squarizes to ⟨2,2,2;8⟩ — small enough for the exact
        // tensor check, validating the squarize plumbing end to end.
        let alg = classical_rect(1, 1, 2);
        let sq = alg.squarize("squarized-112");
        assert_eq!((sq.n0(), sq.b()), (2, 8));
        assert_eq!(sq.verify_correctness(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "matching (m, k)")]
    fn direct_sum_shape_checked() {
        let _ = classical_rect(2, 2, 1).direct_sum_cols(&classical_rect(3, 2, 1));
    }
}
