//! Equivalence transformations of base graphs.
//!
//! The symmetry group of the matrix-multiplication tensor acts on
//! Strassen-like algorithms: permuting products, rescaling a product's
//! factors (compensated in the decoder), and the transpose duality
//! `C = A·B ⟺ Cᵀ = Bᵀ·Aᵀ` all map correct algorithms to correct
//! algorithms with different base graphs. The paper's results are
//! invariant under these actions; the transformations give cheap families
//! of structurally distinct, verified test subjects.

use mmio_cdag::base::Side;
use mmio_cdag::BaseGraph;
use mmio_matrix::{Matrix, Rational};

/// Permutes the products of `base` by `perm` (product `m` of the result is
/// product `perm[m]` of the input).
///
/// # Panics
/// Panics if `perm` is not a permutation of `0..b`.
// audit: safe — the integration crate's tests/transform_pipeline.rs checks I/O and certification invariance under product permutation; mmio-algos cannot run it in its own tests without depending on mmio-pebble and mmio-core
pub fn permute_products(base: &BaseGraph, perm: &[usize]) -> BaseGraph {
    let b = base.b();
    assert_eq!(perm.len(), b, "permutation length must equal b");
    let mut seen = vec![false; b];
    for &p in perm {
        assert!(p < b && !seen[p], "not a permutation");
        seen[p] = true;
    }
    let remap_rows =
        |m: &Matrix<Rational>| Matrix::from_fn(b, base.a(), |row, col| m[(perm[row], col)]);
    let dec = Matrix::from_fn(base.a(), b, |row, col| base.dec()[(row, perm[col])]);
    BaseGraph::new(
        format!("{}-perm", base.name()),
        base.n0(),
        remap_rows(base.enc(Side::A)),
        remap_rows(base.enc(Side::B)),
        dec,
    )
}

/// Rescales product `m` by `s` on the `A` side and `1/s` in the decoder
/// (the bilinear form is unchanged). Breaks triviality of row `m` if
/// `s ≠ 1`.
///
/// # Panics
/// Panics if `s` is zero or `m ≥ b`.
pub fn rescale_product(base: &BaseGraph, m: usize, s: Rational) -> BaseGraph {
    assert!(!s.is_zero(), "scale must be nonzero");
    assert!(m < base.b(), "product index out of range");
    let enc_a = Matrix::from_fn(base.b(), base.a(), |row, col| {
        let c = base.enc(Side::A)[(row, col)];
        if row == m {
            c * s
        } else {
            c
        }
    });
    let dec = Matrix::from_fn(base.a(), base.b(), |row, col| {
        let c = base.dec()[(row, col)];
        if col == m {
            c * s.recip()
        } else {
            c
        }
    });
    BaseGraph::new(
        format!("{}-scaled", base.name()),
        base.n0(),
        enc_a,
        base.enc(Side::B).clone(),
        dec,
    )
}

/// The transpose-dual algorithm: computes `C = A·B` via
/// `Cᵀ = Bᵀ·Aᵀ` — swap the encodings (transposing their entry indexing)
/// and transpose the decoder's output indexing.
pub fn transpose_dual(base: &BaseGraph) -> BaseGraph {
    let n0 = base.n0();
    let t = |x: usize| (x % n0) * n0 + x / n0; // entry transposition
                                               // New A-encoding: old B-encoding applied to Aᵀ's entries. The new
                                               // product m multiplies (enc_b(Bᵀ-pattern) on A) and vice versa.
    let enc_a = Matrix::from_fn(base.b(), base.a(), |m, x| base.enc(Side::B)[(m, t(x))]);
    let enc_b = Matrix::from_fn(base.b(), base.a(), |m, x| base.enc(Side::A)[(m, t(x))]);
    let dec = Matrix::from_fn(base.a(), base.b(), |y, m| base.dec()[(t(y), m)]);
    BaseGraph::new(format!("{}ᵀ", base.name()), n0, enc_a, enc_b, dec)
}

/// A deterministic family of transformed variants of `base`, all verified
/// correct by construction (and re-verified in tests): useful as sweep
/// subjects.
// audit: safe — the integration crate's tests/transform_pipeline.rs routes and certifies every variant; mmio-algos cannot run it in its own tests without depending on mmio-pebble and mmio-core
pub fn variant_family(base: &BaseGraph) -> Vec<BaseGraph> {
    let b = base.b();
    let rotate: Vec<usize> = (0..b).map(|i| (i + 1) % b).collect();
    let reverse: Vec<usize> = (0..b).rev().collect();
    vec![
        permute_products(base, &rotate),
        permute_products(base, &reverse),
        rescale_product(base, 0, Rational::integer(2)),
        rescale_product(base, b - 1, Rational::new(-1, 2)),
        transpose_dual(base),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laderman::laderman;
    use crate::strassen::{strassen, winograd};

    #[test]
    fn all_variants_stay_correct() {
        for base in [strassen(), winograd(), laderman()] {
            for variant in variant_family(&base) {
                assert_eq!(
                    variant.verify_correctness(),
                    Ok(()),
                    "{} variant of {}",
                    variant.name(),
                    base.name()
                );
            }
        }
    }

    #[test]
    fn permutation_preserves_parameters() {
        let base = strassen();
        let perm: Vec<usize> = vec![6, 5, 4, 3, 2, 1, 0];
        let p = permute_products(&base, &perm);
        assert_eq!((p.n0(), p.a(), p.b()), (2, 4, 7));
        assert!((p.omega0() - base.omega0()).abs() < 1e-12);
    }

    #[test]
    fn rescaling_kills_triviality() {
        // Strassen's M3 has trivial A-row (a11); scaling it by 2 makes it
        // nontrivial while preserving correctness.
        let base = strassen();
        assert!(base.row_is_trivial(Side::A, 2));
        let scaled = rescale_product(&base, 2, Rational::integer(2));
        assert!(!scaled.row_is_trivial(Side::A, 2));
        assert_eq!(scaled.verify_correctness(), Ok(()));
    }

    #[test]
    fn transpose_dual_differs_but_matches_parameters() {
        let base = strassen();
        let dual = transpose_dual(&base);
        assert_eq!(dual.verify_correctness(), Ok(()));
        assert_eq!(dual.b(), base.b());
        assert!(!dual.enc(Side::A).exactly_equals(base.enc(Side::A)));
    }

    #[test]
    fn transpose_dual_is_involutive_on_the_bilinear_form() {
        // Applying the duality twice gives back the original coefficients.
        let base = strassen();
        let twice = transpose_dual(&transpose_dual(&base));
        assert!(twice.enc(Side::A).exactly_equals(base.enc(Side::A)));
        assert!(twice.enc(Side::B).exactly_equals(base.enc(Side::B)));
        assert!(twice.dec().exactly_equals(base.dec()));
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn bad_permutation_rejected() {
        let _ = permute_products(&strassen(), &[0, 0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn executor_runs_variants() {
        use mmio_matrix::classical::multiply_naive;
        use mmio_matrix::random::random_i64_matrix;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(31);
        let a = random_i64_matrix(4, 4, &mut rng);
        let b = random_i64_matrix(4, 4, &mut rng);
        let want = multiply_naive(&a, &b).map(mmio_matrix::Rational::integer);
        let ar = a.map(mmio_matrix::Rational::integer);
        let br = b.map(mmio_matrix::Rational::integer);
        for variant in variant_family(&strassen()) {
            let got = crate::Executor::new(variant.clone(), 1).multiply(&ar, &br);
            assert!(got.exactly_equals(&want), "{}", variant.name());
        }
    }
}
