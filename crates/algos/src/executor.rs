//! Generic recursive executor: runs *any* base graph on real matrices.
//!
//! One recursion step splits each operand into `n₀²` blocks, forms the `b`
//! encoded block combinations per side, recursively multiplies them, and
//! decodes the results. This is precisely the computation whose CDAG
//! `mmio-cdag` builds, and the two are cross-checked in tests: executing the
//! algorithm and evaluating the CDAG give identical outputs.

use mmio_cdag::base::Side;
use mmio_cdag::BaseGraph;
use mmio_matrix::block::{join_blocks, split_blocks};
use mmio_matrix::classical::multiply_naive;
use mmio_matrix::{Matrix, Scalar};

/// Exact arithmetic-operation counts of one execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Scalar multiplications performed at recursion leaves.
    pub leaf_mults: u64,
    /// Scalar additions/subtractions (encoding, decoding, and leaves).
    pub adds: u64,
    /// Scalar multiplications by non-`±1` combination coefficients.
    pub scales: u64,
}

impl OpCounts {}

/// A recursive bilinear-algorithm executor for a fixed base graph.
#[derive(Clone)]
pub struct Executor {
    base: BaseGraph,
    /// Recursion stops when the side is `≤ cutoff` (or not divisible by n₀).
    cutoff: usize,
}

impl Executor {
    /// Creates an executor recursing down to sides of `cutoff`.
    ///
    /// # Panics
    /// Panics if `cutoff == 0`.
    pub fn new(base: BaseGraph, cutoff: usize) -> Executor {
        assert!(cutoff > 0, "cutoff must be positive");
        Executor { base, cutoff }
    }

    /// The base graph being executed.
    pub fn base(&self) -> &BaseGraph {
        &self.base
    }

    /// Multiplies two square matrices.
    ///
    /// # Panics
    /// Panics unless both operands are square with equal side.
    pub fn multiply<T: Scalar>(&self, a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
        self.multiply_counted(a, b).0
    }

    /// Multiplies and reports exact operation counts.
    pub fn multiply_counted<T: Scalar>(
        &self,
        a: &Matrix<T>,
        b: &Matrix<T>,
    ) -> (Matrix<T>, OpCounts) {
        assert!(
            a.is_square() && b.is_square() && a.rows() == b.rows(),
            "operands must be square with equal side"
        );
        let mut counts = OpCounts::default();
        let c = self.rec(a, b, &mut counts);
        (c, counts)
    }

    fn rec<T: Scalar>(&self, a: &Matrix<T>, b: &Matrix<T>, counts: &mut OpCounts) -> Matrix<T> {
        let n = a.rows();
        let n0 = self.base.n0();
        if n <= self.cutoff || !n.is_multiple_of(n0) || n0 == 1 {
            counts.leaf_mults += (n * n * n) as u64;
            counts.adds += (n * n * (n.saturating_sub(1))) as u64;
            return multiply_naive(a, b);
        }
        let blocks_a = split_blocks(a, n0);
        let blocks_b = split_blocks(b, n0);
        let s = n / n0;

        let encode = |rows: &Matrix<mmio_matrix::Rational>,
                      blocks: &[Matrix<T>],
                      m: usize,
                      counts: &mut OpCounts|
         -> Matrix<T> {
            let mut acc: Option<Matrix<T>> = None;
            for x in 0..self.base.a() {
                let coeff = rows[(m, x)];
                if coeff.is_zero() {
                    continue;
                }
                let term = if coeff.is_one() {
                    blocks[x].clone()
                } else {
                    counts.scales += (s * s) as u64;
                    blocks[x].scale(T::from_rational(coeff))
                };
                acc = Some(match acc {
                    None => term,
                    Some(prev) => {
                        counts.adds += (s * s) as u64;
                        prev.add_ref(&term)
                    }
                });
            }
            acc.unwrap_or_else(|| Matrix::zeros(s, s))
        };

        // Products.
        let mut prods = Vec::with_capacity(self.base.b());
        for m in 0..self.base.b() {
            let sa = encode(self.base.enc(Side::A), &blocks_a, m, counts);
            let sb = encode(self.base.enc(Side::B), &blocks_b, m, counts);
            prods.push(self.rec(&sa, &sb, counts));
        }

        // Decode.
        let dec = self.base.dec();
        let mut out_blocks = Vec::with_capacity(self.base.a());
        for y in 0..self.base.a() {
            let mut acc: Option<Matrix<T>> = None;
            for (m, prod) in prods.iter().enumerate() {
                let coeff = dec[(y, m)];
                if coeff.is_zero() {
                    continue;
                }
                let term = if coeff.is_one() {
                    prod.clone()
                } else {
                    counts.scales += (s * s) as u64;
                    prod.scale(T::from_rational(coeff))
                };
                acc = Some(match acc {
                    None => term,
                    Some(prev) => {
                        counts.adds += (s * s) as u64;
                        prev.add_ref(&term)
                    }
                });
            }
            out_blocks.push(acc.unwrap_or_else(|| Matrix::zeros(s, s)));
        }
        join_blocks(&out_blocks, n0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classical::classical;
    use crate::laderman::laderman;
    use crate::strassen::{strassen, winograd};
    use crate::synthetic::{with_dummy_product, without_copying};
    use mmio_matrix::random::random_i64_matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check_against_naive(base: BaseGraph, n: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_i64_matrix(n, n, &mut rng);
        let b = random_i64_matrix(n, n, &mut rng);
        let exec = Executor::new(base.clone(), 1);
        let got = exec.multiply(&a, &b);
        let want = multiply_naive(&a, &b);
        assert!(got.exactly_equals(&want), "{} at n={n}", base.name());
    }

    #[test]
    fn all_base_graphs_execute_correctly() {
        check_against_naive(strassen(), 8, 1);
        check_against_naive(winograd(), 8, 2);
        check_against_naive(classical(2), 8, 3);
        check_against_naive(classical(3), 9, 4);
        check_against_naive(laderman(), 9, 5);
        check_against_naive(with_dummy_product(&strassen()), 8, 6);
        // `without_copying` has a rational (1/4) decoder: exercised over
        // Rational scalars in `rational_coefficients_need_rational_scalars`.
        check_against_naive(strassen().tensor(&strassen()), 16, 8);
    }

    #[test]
    fn rational_coefficients_need_rational_scalars() {
        // without_copying uses 1/4 in the decoder: run it over Rational.
        let base = without_copying(&strassen());
        let mut rng = StdRng::seed_from_u64(11);
        let ai = random_i64_matrix(4, 4, &mut rng);
        let bi = random_i64_matrix(4, 4, &mut rng);
        let a = ai.map(mmio_matrix::Rational::integer);
        let b = bi.map(mmio_matrix::Rational::integer);
        let exec = Executor::new(base, 1);
        let got = exec.multiply(&a, &b);
        let want = multiply_naive(&ai, &bi).map(mmio_matrix::Rational::integer);
        assert!(got.exactly_equals(&want));
    }

    #[test]
    fn leaf_mult_counts_match_theory() {
        let exec = Executor::new(strassen(), 1);
        let mut rng = StdRng::seed_from_u64(17);
        for r in 1..=4u32 {
            let n = 2usize.pow(r);
            let a = random_i64_matrix(n, n, &mut rng);
            let b = random_i64_matrix(n, n, &mut rng);
            let (_, counts) = exec.multiply_counted(&a, &b);
            assert_eq!(counts.leaf_mults, 7u64.pow(r), "r={r}");
        }
    }

    #[test]
    fn classical_base_graph_counts_are_cubic() {
        let exec = Executor::new(classical(2), 1);
        let mut rng = StdRng::seed_from_u64(19);
        let a = random_i64_matrix(8, 8, &mut rng);
        let b = random_i64_matrix(8, 8, &mut rng);
        let (_, counts) = exec.multiply_counted(&a, &b);
        assert_eq!(counts.leaf_mults, 512);
    }

    #[test]
    fn cutoff_switches_to_classical_leaves() {
        let exec = Executor::new(strassen(), 4);
        let mut rng = StdRng::seed_from_u64(23);
        let a = random_i64_matrix(8, 8, &mut rng);
        let b = random_i64_matrix(8, 8, &mut rng);
        let (c, counts) = exec.multiply_counted(&a, &b);
        // One recursion level (8 -> 4), then 7 classical 4×4 leaves.
        assert_eq!(counts.leaf_mults, 7 * 64);
        assert!(c.exactly_equals(&multiply_naive(&a, &b)));
    }

    #[test]
    fn executor_agrees_with_cdag_evaluation() {
        use mmio_cdag::build::build_cdag;
        use mmio_cdag::traversal::eval_outputs;
        let base = strassen();
        let g = build_cdag(&base, 2);
        let mut rng = StdRng::seed_from_u64(29);
        let a = random_i64_matrix(4, 4, &mut rng);
        let b = random_i64_matrix(4, 4, &mut rng);
        let from_graph = eval_outputs(&g, &a, &b);
        let from_exec = Executor::new(base, 1).multiply(&a, &b);
        assert!(from_graph.exactly_equals(&from_exec));
    }
}
