//! The classical ⟨n₀,n₀,n₀;n₀³⟩ algorithm as a base graph.
//!
//! Not fast (`ω₀ = 3`), but structurally the extreme case the paper's
//! generality is about: every encoding row is trivial (all inputs are
//! multiply copied, paper Figure 2) and the decoding graph splits into `n₀²`
//! components (one star per output) — both of which defeat the
//! edge-expansion technique of \[6\] while the path-routing machinery applies
//! unchanged.

use mmio_cdag::BaseGraph;
use mmio_matrix::{Matrix, Rational};

/// The classical base graph for block side `n₀`: product `(i,j,k)` computes
/// `a_{ik}·b_{kj}`, output `c_{ij} = Σ_k`. Products are ordered
/// lexicographically by `(i, j, k)`.
///
/// # Panics
/// Panics if `n0 == 0`.
pub fn classical(n0: usize) -> BaseGraph {
    assert!(n0 >= 1, "n0 must be positive");
    let a = n0 * n0;
    let b = n0 * n0 * n0;
    let mut enc_a = Matrix::zeros(b, a);
    let mut enc_b = Matrix::zeros(b, a);
    let mut dec = Matrix::zeros(a, b);
    let mut m = 0;
    for i in 0..n0 {
        for j in 0..n0 {
            for k in 0..n0 {
                enc_a[(m, i * n0 + k)] = Rational::ONE;
                enc_b[(m, k * n0 + j)] = Rational::ONE;
                dec[(i * n0 + j, m)] = Rational::ONE;
                m += 1;
            }
        }
    }
    BaseGraph::new(format!("classical{n0}"), n0, enc_a, enc_b, dec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmio_cdag::connectivity::classify;

    #[test]
    fn correct_for_small_n0() {
        for n0 in 1..=4 {
            assert_eq!(classical(n0).verify_correctness(), Ok(()), "n0={n0}");
        }
    }

    #[test]
    fn parameters() {
        let g = classical(3);
        assert_eq!((g.n0(), g.a(), g.b()), (3, 9, 27));
        assert!(!g.is_fast());
        assert!((g.omega0() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn structure_is_the_hard_case() {
        let p = classify(&classical(3));
        assert_eq!(p.dec_components, 9); // one star per output
        assert!(p.multiple_copying); // every input feeds n0 products bare
        assert!(!p.edge_expansion_applies);
        assert!(!p.lemma1_condition); // no nontrivial combination at all
    }

    #[test]
    fn n0_1_is_trivial_algorithm() {
        let g = classical(1);
        assert_eq!(g.b(), 1);
        assert!(g.verify_correctness().is_ok());
    }
}
