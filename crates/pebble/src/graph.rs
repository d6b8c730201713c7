//! The scheduler's minimal graph interface, and a compact materialization
//! of any [`CdagView`] behind it.
//!
//! The pebble engines ([`crate::AutoScheduler`], the test-only `sim`
//! replay, the order validators) consume exactly four things: the vertex count,
//! predecessor lists, and the input/output predicates. [`PebbleGraph`] pins
//! that surface so the engines run against either a full [`Cdag`] or a
//! [`ViewGraph`] — a predecessors-only CSR materialized from a closed-form
//! [`mmio_cdag::IndexView`] without ever allocating successor lists,
//! coefficient tables, or `VertexRef` lookup structures. The scheduler's
//! inner loop resolves `preds` millions of times per run, so the interface
//! keeps the slice-returning shape (a `preds_into` design would force a
//! scratch-buffer copy per step).

use mmio_cdag::{Cdag, CdagView, VertexId};

/// What a pebble-game engine needs from a graph. Implemented by the full
/// [`Cdag`] and by [`ViewGraph`].
pub trait PebbleGraph {
    /// Number of vertices (dense ids `0..n`).
    fn n_vertices(&self) -> usize;
    /// Predecessors of `v`, ascending by dense id.
    fn preds(&self, v: VertexId) -> &[VertexId];
    /// Whether `v` is an input (no predecessors in the model).
    fn is_input(&self, v: VertexId) -> bool;
    /// Whether `v` is an output (must be stored by every schedule).
    fn is_output(&self, v: VertexId) -> bool;
    /// The largest predecessor count (sets the minimum feasible cache).
    fn max_indegree(&self) -> usize {
        (0..self.n_vertices() as u32)
            .map(|i| self.preds(VertexId(i)).len())
            .max()
            .unwrap_or(0)
    }
}

impl PebbleGraph for Cdag {
    fn n_vertices(&self) -> usize {
        Cdag::n_vertices(self)
    }
    fn preds(&self, v: VertexId) -> &[VertexId] {
        Cdag::preds(self, v)
    }
    fn is_input(&self, v: VertexId) -> bool {
        Cdag::is_input(self, v)
    }
    fn is_output(&self, v: VertexId) -> bool {
        Cdag::is_output(self, v)
    }
}

/// A predecessors-only CSR built from any [`CdagView`]: the cheapest
/// structure the scheduler can run on. Compared to a materialized [`Cdag`]
/// it stores no successor lists, no edge coefficients, and no segment
/// tables — one `u64` offset and the flat predecessor ids per vertex, plus
/// two bitmaps.
pub struct ViewGraph {
    offsets: Vec<u64>,
    preds: Vec<VertexId>,
    is_input: Vec<bool>,
    is_output: Vec<bool>,
}

impl ViewGraph {
    /// Materializes the predecessor CSR of `g` in one streaming pass over
    /// the dense id space (vertices are visited in id order, and each
    /// view's `preds_into` appends ascending ids, so rows come out sorted
    /// exactly as in the builder's CSR).
    pub fn from_view<V: CdagView>(g: &V) -> ViewGraph {
        let n = g.n_vertices();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut preds = Vec::new();
        let mut is_input = vec![false; n];
        let mut is_output = vec![false; n];
        offsets.push(0u64);
        for i in 0..n as u32 {
            let v = VertexId(i);
            g.preds_into(v, &mut preds);
            offsets.push(preds.len() as u64);
            is_input[i as usize] = g.is_input(v);
            is_output[i as usize] = g.is_output(v);
        }
        ViewGraph {
            offsets,
            preds,
            is_input,
            is_output,
        }
    }
}

impl PebbleGraph for ViewGraph {
    fn n_vertices(&self) -> usize {
        self.is_input.len()
    }
    fn preds(&self, v: VertexId) -> &[VertexId] {
        let (lo, hi) = (self.offsets[v.idx()], self.offsets[v.idx() + 1]);
        &self.preds[lo as usize..hi as usize]
    }
    fn is_input(&self, v: VertexId) -> bool {
        self.is_input[v.idx()]
    }
    fn is_output(&self, v: VertexId) -> bool {
        self.is_output[v.idx()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::classical2_base;
    use mmio_cdag::build::build_cdag;
    use mmio_cdag::IndexView;

    #[test]
    fn view_graph_matches_cdag() {
        let base = classical2_base();
        for r in [1u32, 2, 3] {
            let g = build_cdag(&base, r);
            let vg = ViewGraph::from_view(&IndexView::from_base(&base, r));
            assert_eq!(PebbleGraph::n_vertices(&vg), Cdag::n_vertices(&g));
            assert_eq!(
                PebbleGraph::max_indegree(&vg),
                PebbleGraph::max_indegree(&g)
            );
            for v in g.vertices() {
                assert_eq!(PebbleGraph::preds(&vg, v), Cdag::preds(&g, v), "r={r}");
                assert_eq!(PebbleGraph::is_input(&vg, v), Cdag::is_input(&g, v));
                assert_eq!(PebbleGraph::is_output(&vg, v), Cdag::is_output(&g, v));
            }
        }
    }
}
