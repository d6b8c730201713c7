//! Structural properties of base graphs that decide which earlier proof
//! techniques apply — and that the paper's path-routing technique does not
//! need.
//!
//! The edge-expansion argument of Ballard–Demmel–Holtz–Schwartz (JACM'12)
//! requires the base graph's decoding (and encoding) graphs to be
//! *individually connected* and fails under *multiple copying*. This module
//! classifies a base graph along exactly those axes (paper Sections 1, 3, 6).

use crate::base::{BaseGraph, Side};
use mmio_matrix::{Matrix, Rational};
use serde::Serialize;

/// The structural classification of a base graph.
#[derive(Clone, Debug, Serialize, PartialEq)]
pub struct BaseGraphProperties {
    /// Base-graph name.
    pub name: String,
    /// `n₀` of one recursion step.
    pub n0: usize,
    /// Inputs per matrix `a = n₀²`.
    pub a: usize,
    /// Multiplications per step.
    pub b: usize,
    /// `ω₀ = 2·log_a b`.
    pub omega0: f64,
    /// Whether `ω₀ < 3`.
    pub is_fast: bool,
    /// Connected components of the encoding graph for `A` (combination
    /// vertices + the `A` inputs).
    pub enc_a_components: usize,
    /// Connected components of the encoding graph for `B`.
    pub enc_b_components: usize,
    /// Connected components of the decoding graph (products + outputs).
    pub dec_components: usize,
    /// Whether some input feeds two or more multiplications bare — the
    /// multiple-copying case of paper Figure 2.
    pub multiple_copying: bool,
    /// The paper's standing assumption: every nontrivial combination feeds
    /// only one multiplication.
    pub single_use_assumption: bool,
    /// Lemma 1's hypothesis (both encodings contain a nontrivial row).
    pub lemma1_condition: bool,
    /// Whether the edge-expansion technique of \[6\] applies: both encoding
    /// graphs and the decoding graph connected, and no multiple copying.
    pub edge_expansion_applies: bool,
}

/// Counts connected components of the bipartite graph on `rows(m) + cols(m)`
/// vertices with an edge wherever `m` has a nonzero, ignoring isolated...
/// no — *counting* isolated vertices as their own components (an isolated
/// decoding vertex is precisely a disconnected decoding graph).
fn bipartite_components(m: &Matrix<Rational>) -> usize {
    let (rows, cols) = (m.rows(), m.cols());
    let n = rows + cols;
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], x: usize) -> usize {
        let mut root = x;
        while parent[root] != root {
            root = parent[root];
        }
        let mut cur = x;
        while parent[cur] != root {
            let next = parent[cur];
            parent[cur] = root;
            cur = next;
        }
        root
    }
    for (i, j, _) in m.nonzeros() {
        let (ri, rj) = (find(&mut parent, i), find(&mut parent, rows + j));
        if ri != rj {
            parent[ri] = rj;
        }
    }
    (0..n).filter(|&x| find(&mut parent, x) == x).count()
}

/// Classifies a base graph.
pub fn classify(base: &BaseGraph) -> BaseGraphProperties {
    let enc_a_components = bipartite_components(base.enc(Side::A));
    let enc_b_components = bipartite_components(base.enc(Side::B));
    let dec_components = bipartite_components(base.dec());
    let multiple_copying = base.has_multiple_copying();
    BaseGraphProperties {
        name: base.name().to_string(),
        n0: base.n0(),
        a: base.a(),
        b: base.b(),
        omega0: base.omega0(),
        is_fast: base.is_fast(),
        enc_a_components,
        enc_b_components,
        dec_components,
        multiple_copying,
        single_use_assumption: base.single_use_assumption_holds(),
        lemma1_condition: base.lemma1_condition_holds(),
        edge_expansion_applies: enc_a_components == 1
            && enc_b_components == 1
            && dec_components == 1
            && !multiple_copying,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::classical2;

    fn r(n: i64) -> Rational {
        Rational::integer(n)
    }

    #[test]
    fn classical_is_the_hard_case() {
        // Classical 2×2 is exactly the case that defeats edge expansion:
        // its decoding graph splits into 4 components (one per output) and
        // every input is multiply copied.
        let p = classify(&classical2());
        assert_eq!(p.dec_components, 4);
        assert!(p.multiple_copying);
        assert!(!p.edge_expansion_applies);
        assert!(!p.is_fast);
        assert!((p.omega0 - 3.0).abs() < 1e-12);
        // All rows are trivial: the single-use assumption holds vacuously,
        // but Lemma 1's hypothesis fails (no nontrivial combinations).
        assert!(p.single_use_assumption);
        assert!(!p.lemma1_condition);
    }

    #[test]
    fn classical_encodings_disconnected() {
        // Every classical encoding row is a single bare input, so each input
        // forms its own star with its 2 products: 4 components per side.
        let p = classify(&classical2());
        assert_eq!(p.enc_a_components, 4);
        assert_eq!(p.enc_b_components, 4);
    }

    #[test]
    fn isolated_product_counts_as_component() {
        // A decoding matrix with a zero column (product unused by outputs)
        // must report the isolated product vertex as its own component.
        let dec = Matrix::from_vec(1, 2, vec![r(1), r(0)]);
        assert_eq!(bipartite_components(&dec), 2);
    }

    #[test]
    fn fully_connected_single_component() {
        let m = Matrix::from_fn(3, 4, |_, _| r(1));
        assert_eq!(bipartite_components(&m), 1);
    }

    #[test]
    fn empty_matrix_all_isolated() {
        let m: Matrix<Rational> = Matrix::zeros(2, 3);
        assert_eq!(bipartite_components(&m), 5);
    }
}
