//! # mmio-cdag
//!
//! Computation DAGs (CDAGs) of Strassen-like matrix multiplication
//! algorithms, following the definitions of *Matrix Multiplication
//! I/O-Complexity by Path Routing* (Scott, Holtz, Schwartz; SPAA 2015),
//! Section 3.
//!
//! A *Strassen-like algorithm* for `n₀×n₀` matrices is given by a
//! [`BaseGraph`]: two encoding maps (linear combinations of the entries of
//! `A` and of `B`), a multiplication layer with `b` product vertices, and a
//! decoding map producing the entries of `C`. For `n₀^r`-sided inputs the
//! algorithm recurses on blocks; the resulting CDAG `G_r` is a *ranked*
//! graph ([`Cdag`]) with
//!
//! - encoding ranks `0..=r` per side (`Σ_t b^t·a^{r-t}` vertices each,
//!   `a = n₀²`),
//! - the multiplication layer between encoding rank `r` and decoding rank 0
//!   (`b^r` product vertices), and
//! - decoding ranks `0..=r` (`Σ_k b^{r-k}·a^k` vertices), outputs on
//!   decoding rank `r`.
//!
//! The crate implements the structural facts the paper's proof rests on:
//!
//! - **Fact 1** ([`CdagView::lift_from`]): the middle `2(k+1)` ranks of
//!   `G_r` decompose into `b^{r-k}` vertex-disjoint copies of `G_k`; the
//!   lift maps each `G_k` vertex into any copy by index arithmetic.
//! - **Meta-vertices** ([`meta`]): maximal groups of vertices holding the
//!   same value, arising from copying (trivial linear combinations); chains
//!   under single copying, upward-branching trees under multiple copying
//!   (paper Figure 2).
//! - **Connectivity** ([`connectivity`]): whether the base graph's encoding
//!   and decoding graphs are individually connected — the property that
//!   breaks the earlier edge-expansion proof and motivates path routing.
//!
//! ```
//! use mmio_cdag::{BaseGraph, build::build_cdag};
//! use mmio_matrix::{Matrix, Rational};
//!
//! // The trivial 1×1 algorithm c = a·b, recursed twice.
//! let one = Matrix::from_vec(1, 1, vec![Rational::ONE]);
//! let base = BaseGraph::new("unit", 1, one.clone(), one.clone(), one);
//! assert!(base.verify_correctness().is_ok());
//! let g = build_cdag(&base, 2);
//! assert_eq!(g.n_vertices(), 9); // 3 per encoding side + product chain
//! assert_eq!(g.outputs().count(), 1);
//! ```

// Index arithmetic and adjacency access sit on every hot path of the
// routing engine; performance lints are errors here, not suggestions.
#![deny(clippy::perf)]
#![forbid(unsafe_code)]

pub mod base;
pub mod build;
pub mod connectivity;
pub mod dot;
#[cfg(test)]
mod fixtures;
pub mod graph;
pub mod hits;
pub mod index;
pub mod iso;
pub mod meta;
pub mod serialize;
pub mod stats;
pub mod traversal;
pub mod values;
pub mod view;

pub use base::BaseGraph;
pub use graph::{Cdag, Layer, VertexId, VertexRef};
pub use meta::{MetaClosure, MetaVertices};
pub use view::{CdagView, IndexView, Segment, ViewError};

/// Fact 1 through [`CdagView::lift_from`]: the middle `2(k+1)` ranks of
/// `G_r` are `b^{r-k}` vertex-disjoint copies of `G_k`.
#[cfg(test)]
mod fact1 {
    mod tests {
        use crate::build::build_cdag;
        use crate::fixtures::classical2;
        use crate::index;
        use crate::iso::verify_embedding;
        use crate::{Cdag, CdagView, Layer, VertexId, VertexRef};
        use std::collections::HashSet;

        /// Inverse of the lift: the `G_k` vertex that `v` is in copy
        /// `prefix`, or `None` when `v` lies outside that copy. Strips the
        /// leading `r-k` multiplication digits off `g.try_vref(v)`.
        fn lower(g: &Cdag, gk: &Cdag, prefix: u64, v: VertexId) -> Option<VertexId> {
            let (r, k) = (g.r(), gk.r());
            let vr = g.try_vref(v)?;
            let (level, mul_len) = match vr.layer {
                Layer::EncA | Layer::EncB => {
                    let t = vr.level.checked_sub(r - k)?;
                    (t, t)
                }
                Layer::Dec => (vr.level, k.checked_sub(vr.level)?),
            };
            let width = index::pow(g.base().b(), mul_len);
            if vr.mul / width != prefix {
                return None;
            }
            gk.try_id(VertexRef {
                level,
                mul: vr.mul % width,
                ..vr
            })
        }

        fn copy(g: &Cdag, gk: &Cdag, prefix: u64) -> Vec<VertexId> {
            gk.vertices()
                .map(|lv| g.lift_from(gk, prefix, lv).expect("lift in range"))
                .collect()
        }

        #[test]
        fn subcomputation_count() {
            let base = classical2();
            let g = build_cdag(&base, 3);
            for (k, want) in [(3, 1), (2, 8), (0, 512)] {
                let copies = index::pow(base.b(), g.r() - k);
                assert_eq!(copies, want);
                // Exactly prefixes 0..copies select a copy.
                let gk = build_cdag(&base, k);
                let v = gk.vertices().next().unwrap();
                assert!(g.lift_from(&gk, copies - 1, v).is_some());
                assert!(g.lift_from(&gk, copies, v).is_none());
            }
        }

        #[test]
        fn copies_are_vertex_disjoint_and_cover_middle() {
            let base = classical2();
            let g = build_cdag(&base, 3);
            let gk = build_cdag(&base, 1);
            let mut seen: HashSet<VertexId> = HashSet::new();
            for prefix in 0..index::pow(base.b(), 2) {
                for v in copy(&g, &gk, prefix) {
                    assert!(seen.insert(v), "copies must be vertex-disjoint");
                }
            }
            // Fact 1: total = b^{r-k} · |V(G_k)|.
            assert_eq!(seen.len(), 64 * gk.n_vertices());
            // And they are exactly the middle-2(k+1)-level vertices.
            for v in g.vertices() {
                let vr = g.vref(v);
                let in_middle = match vr.layer {
                    Layer::EncA | Layer::EncB => vr.level >= 2, // r-k = 2
                    Layer::Dec => vr.level <= 1,
                };
                assert_eq!(seen.contains(&v), in_middle);
            }
        }

        #[test]
        fn iso_roundtrip() {
            let base = classical2();
            let g = build_cdag(&base, 3);
            let gk = build_cdag(&base, 2);
            for prefix in 0..index::pow(base.b(), 1) {
                for lv in gk.vertices() {
                    let global = g.lift_from(&gk, prefix, lv).unwrap();
                    assert_eq!(lower(&g, &gk, prefix, global), Some(lv));
                }
            }
        }

        #[test]
        fn iso_preserves_edges() {
            let base = classical2();
            let g = build_cdag(&base, 2);
            let gk = build_cdag(&base, 1);
            for prefix in 0..index::pow(base.b(), 1) {
                let map = copy(&g, &gk, prefix);
                // Edges, coefficients and inducedness.
                verify_embedding(&gk, &g, &map).expect("Fact 1 isomorphism");
                for lv in gk.vertices() {
                    let local_preds: HashSet<VertexId> =
                        gk.preds(lv).iter().map(|p| map[p.idx()]).collect();
                    // Global preds of the image that live inside the copy
                    // must be exactly the images of local preds.
                    let global_preds: HashSet<VertexId> = g
                        .preds(map[lv.idx()])
                        .iter()
                        .copied()
                        .filter(|&p| lower(&g, &gk, prefix, p).is_some())
                        .collect();
                    assert_eq!(local_preds, global_preds);
                }
            }
        }

        #[test]
        fn inputs_and_outputs_shape() {
            let base = classical2();
            let g = build_cdag(&base, 3);
            let gk = build_cdag(&base, 2);
            let lift = |v| g.lift_from(&gk, 3, v).unwrap();
            let inputs: Vec<VertexId> = gk.inputs().map(lift).collect();
            let outputs: Vec<VertexId> = gk.outputs().map(lift).collect();
            // 2a^k inputs on encoding rank r-k, a^k outputs on decoding
            // rank k.
            assert_eq!(inputs.len(), 2 * 16);
            assert_eq!(outputs.len(), 16);
            for &v in &inputs {
                assert_eq!(g.rank(v), 1);
            }
            for &v in &outputs {
                assert_eq!(g.rank(v), g.r() + 1 + 2);
            }
        }

        #[test]
        fn outside_vertices_rejected() {
            let base = classical2();
            let g = build_cdag(&base, 2);
            let gk = build_cdag(&base, 1);
            // An input of G_r (encoding rank 0 < r-k = 1) is outside.
            let input = g.inputs().next().unwrap();
            assert!(lower(&g, &gk, 0, input).is_none());
            // A vertex with a different prefix is outside.
            let local_input = gk.inputs().next().unwrap();
            let v = g.lift_from(&gk, 1, local_input).unwrap();
            assert!(lower(&g, &gk, 0, v).is_none());
            assert_eq!(lower(&g, &gk, 1, v), Some(local_input));
        }
    }
}
