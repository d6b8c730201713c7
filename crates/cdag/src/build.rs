//! Materialization of the recursive CDAG `G_r` from its closed form.

use crate::base::BaseGraph;
use crate::graph::{Cdag, VertexId};
use crate::view::IndexView;

/// Builds the CDAG `G_r` of `base` applied recursively `r` times
/// (multiplying `n₀^r × n₀^r` matrices).
///
/// The graph is the one [`IndexView`] defines; this fills both CSR halves
/// from the view's block rules, segment by segment in dense order, into
/// vectors sized by the closed-form edge count. Edge rules (coefficients
/// are the base-graph coefficients):
///
/// - encoding rank `t-1 → t`: vertex `(m; x_t, xs)` feeds `(m·b+τ; xs)`
///   whenever `enc[τ][x_t] ≠ 0`;
/// - multiplication: encoding-rank-`r` vertices `m` of both sides feed the
///   product vertex `m` (decoding rank 0) with coefficient 1;
/// - decoding rank `k-1 → k`: vertex `(m·b+τ; ys)` feeds `(m; υ·a^{k-1}+ys)`
///   whenever `dec[υ][τ] ≠ 0`.
///
/// # Panics
/// Panics if the graph would exceed `u32` vertex ids.
pub fn build_cdag(base: &BaseGraph, r: u32) -> Cdag {
    CdagBuild::new(base, r).fill()
}

/// [`build_cdag`] in two steps: [`CdagBuild::new`] allocates both CSR
/// halves at their closed-form sizes, and [`CdagBuild::fill`] fills them
/// without allocating. The steps may run on different threads, so a
/// caller can keep the graph in its own malloc arena while a worker fills
/// it (see `mmio_parallel::Pool::join`).
pub struct CdagBuild {
    base: BaseGraph,
    view: IndexView,
    pred: (Vec<u32>, Vec<VertexId>),
    succ: (Vec<u32>, Vec<VertexId>),
}

impl CdagBuild {
    /// Allocates the CSR of `G_r` for `base`, unfilled.
    ///
    /// # Panics
    /// Panics if the graph would exceed `u32` vertex ids.
    pub fn new(base: &BaseGraph, r: u32) -> CdagBuild {
        let view = match IndexView::of_base(base, r) {
            Ok(view) => view,
            Err(e) => panic!("CDAG too large for u32 vertex ids: {e}"),
        };
        let (n, e) = (view.n_vertices() as usize + 1, view.n_edges() as usize);
        let half = || (Vec::with_capacity(n), Vec::with_capacity(e));
        CdagBuild {
            base: base.clone(),
            pred: half(),
            succ: half(),
            view,
        }
    }

    /// Fills both halves from the view's block rules and returns the graph.
    pub fn fill(self) -> Cdag {
        let CdagBuild {
            base,
            view,
            mut pred,
            mut succ,
        } = self;
        view.fill_csr(false, &mut pred.0, &mut pred.1);
        view.fill_csr(true, &mut succ.0, &mut succ.1);
        Cdag::from_parts(base, view, pred.0, pred.1, succ.0, succ.1)
    }
}

/// The per-vertex build the block rules replaced: predecessors vertex by
/// vertex through [`IndexView::preds_of`], successors by a counting-sort
/// inversion of the predecessor CSR. The test oracle of [`build_cdag`].
#[cfg(test)]
pub(crate) fn build_per_vertex(base: &BaseGraph, r: u32) -> Cdag {
    use crate::graph::{Layer, VertexRef};
    let view = IndexView::of_base(base, r).expect("test graphs fit u32 ids");
    let n = view.n_vertices() as usize;
    let mut pred_off = vec![0u32];
    let mut pred_tgt: Vec<VertexId> = Vec::new();
    for layer in [Layer::EncA, Layer::EncB, Layer::Dec] {
        for level in 0..=r {
            let width = view.entry_width(layer, level);
            let seg = view.segment(layer, level);
            for mul in 0..(seg.end - seg.start) / width {
                for entry in 0..width {
                    let v = VertexRef {
                        layer,
                        level,
                        mul,
                        entry,
                    };
                    view.preds_of(v, &mut |p| pred_tgt.push(VertexId(p)));
                    pred_off.push(pred_tgt.len() as u32);
                }
            }
        }
    }
    // Count into the shifted offsets, prefix-sum, then scatter in dense
    // order, so every successor list is ascending.
    let mut succ_off = vec![0u32; n + 1];
    for p in &pred_tgt {
        succ_off[p.idx() + 1] += 1;
    }
    for i in 0..n {
        succ_off[i + 1] += succ_off[i];
    }
    let mut succ_tgt = vec![VertexId(0); pred_tgt.len()];
    let mut cursor = succ_off.clone();
    for v in 0..n {
        for p in &pred_tgt[pred_off[v] as usize..pred_off[v + 1] as usize] {
            succ_tgt[cursor[p.idx()] as usize] = VertexId(v as u32);
            cursor[p.idx()] += 1;
        }
    }
    Cdag::from_parts(base.clone(), view, pred_off, pred_tgt, succ_off, succ_tgt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{classical2, decoding_copy, no_copy};

    /// The block-built CSR equals the per-vertex build's, vertex by vertex
    /// in both directions: the predecessors against the per-vertex rule,
    /// the successors against the counting-sort inversion.
    #[test]
    fn block_build_matches_per_vertex_oracle() {
        for (base, max_r) in [(classical2(), 3), (no_copy(), 4), (decoding_copy(), 5)] {
            for r in 0..=max_r {
                let (got, want) = (build_cdag(&base, r), build_per_vertex(&base, r));
                assert_eq!(got.n_vertices(), want.n_vertices());
                assert_eq!(got.n_edges() as u64, got.view().n_edges());
                for v in want.vertices() {
                    let at = format!("{} r={r} v={}", base.name(), v.0);
                    assert_eq!(got.preds(v), want.preds(v), "preds of {at}");
                    assert_eq!(got.succs(v), want.succs(v), "succs of {at}");
                }
                assert_eq!(got.n_edges(), want.n_edges());
            }
        }
    }

    #[test]
    fn classical2_is_correct() {
        assert!(classical2().verify_correctness().is_ok());
    }

    #[test]
    fn g1_shape() {
        let g = build_cdag(&classical2(), 1);
        // EncA: 4 inputs + 8 combos; EncB same; Dec: 8 products + 4 outputs.
        assert_eq!(g.n_vertices(), 4 + 8 + 4 + 8 + 8 + 4);
        assert_eq!(g.products().count(), 8);
        assert_eq!(g.outputs().count(), 4);
        assert_eq!(g.inputs().count(), 8);
    }

    #[test]
    fn product_vertices_read_two_operands() {
        let g = build_cdag(&classical2(), 2);
        for p in g.products() {
            assert_eq!(g.preds(p).len(), 2, "product must read two combinations");
        }
    }

    #[test]
    fn ids_roundtrip() {
        let g = build_cdag(&classical2(), 2);
        for v in g.vertices() {
            assert_eq!(g.id(g.vref(v)), v);
        }
    }

    #[test]
    fn dense_order_is_topological() {
        let g = build_cdag(&classical2(), 2);
        for v in g.vertices() {
            for &p in g.preds(v) {
                assert!(p < v, "edge {p:?}->{v:?} violates topological id order");
            }
        }
    }

    #[test]
    fn ranks() {
        let g = build_cdag(&classical2(), 2);
        for v in g.inputs() {
            assert_eq!(g.rank(v), 0);
        }
        for v in g.products() {
            assert_eq!(g.rank(v), 3); // r+1 = 3
        }
        for v in g.outputs() {
            assert_eq!(g.rank(v), 5); // 2r+1 = 5
        }
    }

    #[test]
    fn succs_mirror_preds() {
        let g = build_cdag(&classical2(), 2);
        for v in g.vertices() {
            for &p in g.preds(v) {
                assert!(g.succs(p).contains(&v));
            }
            for &s in g.succs(v) {
                assert!(g.preds(s).contains(&v));
            }
        }
    }

    #[test]
    fn edge_count_matches_both_directions() {
        let g = build_cdag(&classical2(), 3);
        let pred_total: usize = g.vertices().map(|v| g.preds(v).len()).sum();
        let succ_total: usize = g.vertices().map(|v| g.succs(v).len()).sum();
        assert_eq!(pred_total, succ_total);
        assert_eq!(pred_total, g.n_edges());
    }

    #[test]
    fn input_output_lookup() {
        let g = build_cdag(&classical2(), 2);
        // 4x4 matrices: every entry addressable, ids distinct.
        let mut seen = std::collections::HashSet::new();
        for row in 0..4 {
            for col in 0..4 {
                assert!(seen.insert(g.input_a(row, col)));
            }
        }
        for row in 0..4 {
            for col in 0..4 {
                assert!(seen.insert(g.input_b(row, col)));
                assert!(g.is_output(g.output(row, col)));
            }
        }
        assert!(g.is_input(g.input_a(0, 0)));
        assert!(!g.is_input(g.output(0, 0)));
    }
}
