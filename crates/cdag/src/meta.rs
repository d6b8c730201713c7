//! Meta-vertices: maximal groups of CDAG vertices holding the same value.
//!
//! A vertex whose single predecessor feeds it with coefficient 1 through a
//! *trivial* base-graph row is a **copy** — its value equals its parent's.
//! Following the paper (Section 3, Figure 2), all vertices holding one value
//! are grouped into a *meta-vertex*: a chain under single copying, an
//! upward-branching subtree rooted at the original value (an input, for
//! base graphs satisfying the single-use assumption) under multiple copying.
//!
//! [`MetaClosure`] holds the meta-closure of a vertex set sparsely, with
//! reusable membership stamps; it computes the meta-boundary `δ'`.

use crate::graph::{Cdag, VertexId};
use crate::view::CdagView;

/// Identifier of a meta-vertex: the dense id of its *root* — the unique
/// member all other members are copies of (the member of smallest rank).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MetaId(pub u32);

/// The meta-vertex structure of a CDAG.
///
/// Members are stored as CSR: the members of the meta-vertex rooted at
/// `rt` are `flat[offsets[rt]..offsets[rt + 1]]`, root first and the copies
/// after it in ascending id order. A vertex that is not a root owns an
/// empty range.
pub struct MetaVertices {
    /// For each vertex, the root of its meta-vertex.
    root: Vec<u32>,
    /// Member-range offsets, indexed by root (`n_vertices + 1` entries).
    offsets: Vec<u32>,
    /// Every vertex once, grouped by meta-vertex.
    flat: Vec<VertexId>,
}

impl MetaVertices {
    /// Computes the meta-vertex grouping of `g`.
    ///
    /// A vertex is a copy when its level's base-graph row (encoding row `τ`
    /// at encoding ranks, decoding row `υ` at decoding ranks) is trivial:
    /// one nonzero coefficient equal to 1. Copies are united with their
    /// single parent; roots are the non-copy vertices.
    pub fn compute(g: &Cdag) -> MetaVertices {
        MetaVertices::compute_view(g)
    }

    /// [`MetaVertices::compute`] over any [`CdagView`] — the copy condition
    /// and grouping are identical for the explicit and closed-form views
    /// (equivalence-tested in `mmio-integration`).
    pub fn compute_view<V: CdagView>(g: &V) -> MetaVertices {
        let n = g.n_vertices();
        let mut root: Vec<u32> = (0..n as u32).collect();
        // Dense order is topological, so a copy's parent already has its
        // final root when we visit the copy: one pass suffices.
        for i in 0..n as u32 {
            if let Some(p) = g.copy_parent(VertexId(i)) {
                root[i as usize] = root[p.idx()];
            }
        }
        // Counting sort by root. A root precedes its copies in dense order,
        // so filling in ascending id order puts it first in its range.
        let mut offsets = vec![0u32; n + 1];
        for &rt in &root {
            offsets[rt as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut fill = offsets.clone();
        let mut flat = vec![VertexId(0); n];
        for (i, &rt) in root.iter().enumerate() {
            let slot = &mut fill[rt as usize];
            flat[*slot as usize] = VertexId(i as u32);
            *slot += 1;
        }
        MetaVertices {
            root,
            offsets,
            flat,
        }
    }

    /// The meta-vertex containing `v`.
    pub fn meta_of(&self, v: VertexId) -> MetaId {
        MetaId(self.root[v.idx()])
    }

    /// The root vertex of a meta-vertex (the original, non-copy value).
    pub fn root_vertex(&self, m: MetaId) -> VertexId {
        VertexId(m.0)
    }

    /// All members of the meta-vertex containing `v` (including `v`): the
    /// root first, then its copies in ascending id order.
    pub fn members(&self, v: VertexId) -> &[VertexId] {
        let rt = self.root[v.idx()] as usize;
        &self.flat[self.offsets[rt] as usize..self.offsets[rt + 1] as usize]
    }

    /// Whether `v` is *duplicated*: its meta-vertex has more than one member.
    pub fn is_duplicated(&self, v: VertexId) -> bool {
        self.size_of(v) > 1
    }

    /// Size of the meta-vertex containing `v`.
    pub fn size_of(&self, v: VertexId) -> usize {
        self.members(v).len()
    }

    /// Number of distinct meta-vertices in the graph.
    pub fn count<V: CdagView>(&self, g: &V) -> usize {
        let n = g.n_vertices();
        (0..n as u32)
            .filter(|&i| self.root[i as usize] == i) // audit: safe — root is sized n_vertices
            .count()
    }

    /// Whether any meta-vertex branches (multiple copying): some member has
    /// two or more copy-children, i.e. the meta-vertex is a tree, not a chain.
    pub fn has_multiple_copying<V: CdagView>(&self, g: &V) -> bool {
        let mut succs = Vec::new();
        self.flat
            .iter()
            .filter(|&&v| self.is_duplicated(v))
            .any(|&v| {
                succs.clear();
                g.succs_into(v, &mut succs);
                let copy_children = succs
                    .iter()
                    .filter(|&&s| self.root[s.idx()] == self.root[v.idx()])
                    .count();
                copy_children >= 2
            })
    }

    /// Meta-vertices adjacent to the meta-closure of `set` that are not in it
    /// — the paper's `δ'(S')` (Definition 1, meta form), sorted. `set` is
    /// given as vertices; its meta-closure is taken automatically.
    pub fn meta_boundary<V: CdagView>(&self, g: &V, set: &[VertexId]) -> Vec<MetaId> {
        let mut closure = MetaClosure::new(g.n_vertices());
        for &v in set {
            closure.insert(self, v);
        }
        let mut out = Vec::new();
        closure.boundary_into(g, self, &mut out);
        out
    }
}

/// The meta-closure of a vertex set, held sparsely: the list of its
/// members plus generation-stamped membership marks. Starting the next
/// closure ([`MetaClosure::reset`]) bumps the generation instead of
/// clearing the marks, so one `MetaClosure` serves any number of sets at a
/// cost linear in each closure, not in `|V|`.
pub struct MetaClosure {
    /// `marks[v] == generation` ⇔ `v` is in the current closure.
    marks: Vec<u32>,
    generation: u32,
    members: Vec<VertexId>,
    adj: Vec<VertexId>,
}

impl MetaClosure {
    /// An empty closure over a graph of `n_vertices` vertices.
    pub fn new(n_vertices: usize) -> MetaClosure {
        MetaClosure::starting_at(n_vertices, 1)
    }

    /// [`MetaClosure::new`] with the stamp counter at `generation` (`0`
    /// counts as `1`): the result is the same for any start, which lets
    /// tests start next to `u32::MAX` to exercise the wrap-around.
    pub fn starting_at(n_vertices: usize, generation: u32) -> MetaClosure {
        MetaClosure {
            marks: vec![0; n_vertices],
            generation: generation.max(1),
            members: Vec::new(),
            adj: Vec::new(),
        }
    }

    /// Empties the closure in `O(1)`, clearing the marks only when the
    /// generation counter wraps.
    pub fn reset(&mut self) {
        self.members.clear();
        if self.generation == u32::MAX {
            self.marks.fill(0);
            self.generation = 1;
        } else {
            self.generation += 1;
        }
    }

    /// Adds the meta-vertex of `v` (all of its members) to the closure.
    pub fn insert(&mut self, meta: &MetaVertices, v: VertexId) {
        if self.includes(v) {
            return;
        }
        for &w in meta.members(v) {
            self.marks[w.idx()] = self.generation;
            self.members.push(w);
        }
    }

    /// Whether `v` is in the closure.
    pub fn includes(&self, v: VertexId) -> bool {
        self.marks[v.idx()] == self.generation
    }

    /// Writes `δ'` of the closure into `out` (cleared first): the sorted,
    /// deduplicated meta-vertices outside it that are adjacent, in either
    /// direction, to one of its members.
    pub fn boundary_into<V: CdagView>(
        &mut self,
        g: &V,
        meta: &MetaVertices,
        out: &mut Vec<MetaId>,
    ) {
        out.clear();
        for &v in &self.members {
            self.adj.clear();
            g.preds_into(v, &mut self.adj);
            g.succs_into(v, &mut self.adj);
            for &w in &self.adj {
                if self.marks[w.idx()] != self.generation {
                    out.push(meta.meta_of(w));
                }
            }
        }
        out.sort_unstable();
        out.dedup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::BaseGraph;
    use crate::build::build_cdag;
    use crate::graph::Layer;
    use mmio_matrix::{Matrix, Rational};

    fn r_(n: i64) -> Rational {
        Rational::integer(n)
    }

    fn classical2() -> BaseGraph {
        let n0 = 2;
        let mut enc_a = Matrix::zeros(8, 4);
        let mut enc_b = Matrix::zeros(8, 4);
        let mut dec = Matrix::zeros(4, 8);
        let mut m = 0;
        for i in 0..n0 {
            for j in 0..n0 {
                for k in 0..n0 {
                    enc_a[(m, i * n0 + k)] = r_(1);
                    enc_b[(m, k * n0 + j)] = r_(1);
                    dec[(i * n0 + j, m)] = r_(1);
                    m += 1;
                }
            }
        }
        BaseGraph::new("classical2", n0, enc_a, enc_b, dec)
    }

    /// A 1×1 base graph with no copying at all: every row is nontrivial
    /// (scaled), kept correct by compensating in the decoder:
    /// c = (2a)(3b)·(1/6).
    fn no_copy() -> BaseGraph {
        BaseGraph::new(
            "scaled",
            1,
            Matrix::from_vec(1, 1, vec![r_(2)]),
            Matrix::from_vec(1, 1, vec![r_(3)]),
            Matrix::from_vec(1, 1, vec![Rational::new(1, 6)]),
        )
    }

    #[test]
    fn classical_has_full_copying() {
        // Every classical encoding row is trivial: rank-1 vertices are all
        // copies of inputs, and every input is copied to 2 products.
        let g = build_cdag(&classical2(), 1);
        let meta = MetaVertices::compute(&g);
        for v in g.inputs() {
            assert!(meta.is_duplicated(v));
            assert_eq!(meta.size_of(v), 3, "input + 2 copies");
            assert_eq!(meta.root_vertex(meta.meta_of(v)), v);
        }
        assert!(meta.has_multiple_copying(&g));
    }

    #[test]
    fn no_copy_graph_has_singletons() {
        let g = build_cdag(&no_copy(), 2);
        let meta = MetaVertices::compute(&g);
        for v in g.vertices() {
            assert_eq!(meta.size_of(v), 1);
            assert_eq!(meta.meta_of(v), MetaId(v.0));
        }
        assert!(!meta.has_multiple_copying(&g));
        assert_eq!(meta.count(&g), g.n_vertices());
    }

    #[test]
    fn meta_count_consistency() {
        let g = build_cdag(&classical2(), 2);
        let meta = MetaVertices::compute(&g);
        let total: usize = g
            .vertices()
            .filter(|&v| meta.root_vertex(meta.meta_of(v)) == v)
            .map(|v| meta.size_of(v))
            .sum();
        assert_eq!(total, g.n_vertices());
    }

    #[test]
    fn copies_transitive_through_levels() {
        // classical2 at r=2: encoding rank-2 vertices whose two base rows are
        // both trivial are copies-of-copies; their root must be an input.
        let g = build_cdag(&classical2(), 2);
        let meta = MetaVertices::compute(&g);
        for v in g.segment(Layer::EncA, 2) {
            let root = meta.root_vertex(meta.meta_of(v));
            assert!(g.is_input(root), "root of a copy chain must be the input");
        }
    }

    #[test]
    fn meta_boundary_of_everything_is_empty() {
        let g = build_cdag(&classical2(), 1);
        let meta = MetaVertices::compute(&g);
        let all: Vec<_> = g.vertices().collect();
        assert!(meta.meta_boundary(&g, &all).is_empty());
    }

    #[test]
    fn meta_boundary_of_single_product() {
        let g = build_cdag(&classical2(), 1);
        let meta = MetaVertices::compute(&g);
        let p = g.products().next().unwrap();
        let boundary = meta.meta_boundary(&g, &[p]);
        // Product 0 = a00·b00 → c00: adjacent metas are input-a00's meta,
        // input-b00's meta, and the output c00.
        assert_eq!(boundary.len(), 3);
    }

    #[test]
    fn closure_is_reusable_across_a_generation_wrap() {
        // Three closures in one scratch whose stamps start next to
        // u32::MAX: each holds exactly the members of its own set's metas,
        // with nothing left over from the one before.
        let g = build_cdag(&classical2(), 1);
        let meta = MetaVertices::compute(&g);
        let inputs: Vec<VertexId> = g.inputs().collect();
        let products: Vec<VertexId> = g.products().collect();
        let mut closure = MetaClosure::starting_at(g.n_vertices(), u32::MAX - 1);
        for set in [&inputs[..2], &products[..3], &inputs[2..3]] {
            closure.reset();
            for &v in set {
                closure.insert(&meta, v);
            }
            let want: Vec<VertexId> = set
                .iter()
                .flat_map(|&v| meta.members(v).iter().copied())
                .collect();
            for v in g.vertices() {
                assert_eq!(closure.includes(v), want.contains(&v), "{v:?}");
            }
        }
    }
}
