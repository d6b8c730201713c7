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
    /// (equivalence-tested in `mmio-integration`). The roots come from the
    /// closed form's segment walk (`IndexView::meta_roots`), which tests
    /// each generating row once per block of vertices instead of once per
    /// vertex.
    pub fn compute_view<V: CdagView>(g: &V) -> MetaVertices {
        MetaVertices::from_roots(g.closed_form().meta_roots())
    }

    /// Groups the vertices by `root` (a root table whose roots are the
    /// smallest id of their group) into CSR member lists.
    fn from_roots(root: Vec<u32>) -> MetaVertices {
        let n = root.len();
        // Counting sort by root, filled back to front: each group's end
        // offset steps down to its start, and its members land in
        // ascending id order, the root (the smallest id) first.
        let mut offsets = vec![0u32; n + 1];
        for &rt in &root {
            offsets[rt as usize] += 1;
        }
        let mut end = 0;
        for offset in &mut offsets {
            end += *offset;
            *offset = end;
        }
        let mut flat = vec![VertexId(0); n];
        for (i, &rt) in root.iter().enumerate().rev() {
            let slot = &mut offsets[rt as usize];
            *slot -= 1;
            flat[*slot as usize] = VertexId(i as u32);
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
        // The same flag-bit count as the segment pass: an outside meta is
        // listed when its flag is newly set, so no dedup is needed.
        let (mut out, mut adj) = (Vec::new(), Vec::new());
        for i in 0..closure.members().len() {
            let v = closure.members()[i];
            adj.clear();
            g.adj_into(v, &mut adj);
            for &w in &adj {
                if closure.includes(w) {
                    continue;
                }
                let m = self.meta_of(w);
                if closure.flag(m, 1) != 0 {
                    out.push(m);
                }
            }
        }
        out.sort_unstable();
        out
    }
}

/// The stamp-word bits [`MetaClosure::flag`] may set; generations are
/// multiples of `FLAG_MASK + 1`, so the flags sit below them.
pub const FLAG_MASK: u32 = 7;

/// The meta-closure of a vertex set, held sparsely: the list of its
/// members plus generation-stamped marks. Starting the next closure
/// ([`MetaClosure::reset`]) steps the generation instead of clearing the
/// marks, so one `MetaClosure` serves any number of sets at a cost linear
/// in each closure, not in `|V|`. The same stamp word carries per-closure
/// flags on the roots of outside meta-vertices ([`MetaClosure::flag`]), so
/// counting distinct neighbours needs no second `|V|`-sized array.
pub struct MetaClosure {
    /// `marks[v] == generation` ⇔ `v` is in the current closure;
    /// `marks[root] == generation | flags` for a flagged outside root.
    marks: Vec<u32>,
    /// A nonzero multiple of `FLAG_MASK + 1`.
    generation: u32,
    members: Vec<VertexId>,
}

impl MetaClosure {
    /// An empty closure over a graph of `n_vertices` vertices.
    pub fn new(n_vertices: usize) -> MetaClosure {
        MetaClosure::starting_at(n_vertices, 0)
    }

    /// [`MetaClosure::new`] with the stamp counter at `generation`, rounded
    /// down to a step of `FLAG_MASK + 1` (and at least one step): the result
    /// is the same for any start, which lets tests start next to
    /// `u32::MAX` to exercise the wrap-around.
    pub fn starting_at(n_vertices: usize, generation: u32) -> MetaClosure {
        MetaClosure {
            marks: vec![0; n_vertices],
            generation: (generation & !FLAG_MASK).max(FLAG_MASK + 1),
            members: Vec::new(),
        }
    }

    /// Empties the closure in `O(1)`, clearing the marks only when the
    /// generation counter wraps.
    pub fn reset(&mut self) {
        self.members.clear();
        match self.generation.checked_add(FLAG_MASK + 1) {
            Some(next) => self.generation = next,
            None => {
                self.marks.fill(0);
                self.generation = FLAG_MASK + 1;
            }
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

    /// The closure's members, one meta-vertex after another in insertion
    /// order, each root first.
    pub fn members(&self) -> &[VertexId] {
        &self.members
    }

    /// Sets `flags` (bits of [`FLAG_MASK`]) on meta-vertex `m` for this
    /// closure and returns those it did not carry yet; `0` when `m` is in
    /// the closure. The flags sit on `m`'s root, which is a closure member
    /// only when all of `m` is, so [`MetaClosure::includes`] stays exact.
    pub fn flag(&mut self, m: MetaId, flags: u32) -> u32 {
        let mark = &mut self.marks[m.0 as usize];
        if *mark == self.generation {
            return 0;
        }
        let held = if *mark & !FLAG_MASK == self.generation {
            *mark & FLAG_MASK
        } else {
            0
        };
        *mark = self.generation | held | (flags & FLAG_MASK);
        flags & FLAG_MASK & !held
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_cdag;
    use crate::fixtures::{classical2, decoding_copy, no_copy};
    use crate::graph::Layer;

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
        // Three closures in one scratch whose stamps start two steps below
        // the top: each holds exactly the members of its own set's metas,
        // with nothing left over from the one before, and the third starts
        // after the wrap.
        let g = build_cdag(&classical2(), 1);
        let meta = MetaVertices::compute(&g);
        let inputs: Vec<VertexId> = g.inputs().collect();
        let products: Vec<VertexId> = g.products().collect();
        let start = u32::MAX - 2 * (FLAG_MASK + 1);
        let mut closure = MetaClosure::starting_at(g.n_vertices(), start);
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

    #[test]
    fn flags_stay_outside_and_do_not_leak() {
        // A flagged root never reads as a member, reports each bit once,
        // and starts the next closure unflagged, also across the wrap.
        let g = build_cdag(&classical2(), 1);
        let meta = MetaVertices::compute(&g);
        let inputs: Vec<VertexId> = g.inputs().collect();
        let (inside, outside) = (meta.meta_of(inputs[0]), meta.meta_of(inputs[1]));
        let outside_root = meta.root_vertex(outside);
        // The second start flags at the top generation, then wraps.
        for start in [0, u32::MAX - 2 * FLAG_MASK - 1] {
            let mut closure = MetaClosure::starting_at(g.n_vertices(), start);
            closure.reset();
            closure.insert(&meta, inputs[0]);
            assert_eq!(closure.flag(inside, 1), 0, "a member takes no flag");
            assert_eq!(closure.flag(outside, 1), 1);
            assert_eq!(closure.flag(outside, 3), 2, "only the new bit is reported");
            assert_eq!(closure.flag(outside, FLAG_MASK), 4);
            assert_eq!(closure.flag(outside, FLAG_MASK), 0);
            assert!(
                !closure.includes(outside_root),
                "a flagged root is no member"
            );
            assert!(closure.includes(inputs[0]));
            closure.reset();
            assert!(!closure.includes(outside_root) && !closure.includes(inputs[0]));
            assert_eq!(
                closure.flag(outside, FLAG_MASK),
                FLAG_MASK,
                "old flags are gone"
            );
            closure.insert(&meta, inputs[1]);
            assert!(
                closure.includes(outside_root),
                "a flagged root can still join"
            );
            assert_eq!(closure.flag(outside, 1), 0);
        }
    }

    /// The segment walk's roots against the per-vertex `copy_parent`
    /// union-find (`CdagView::copy_roots_table`, whose roots are the
    /// smallest id of each group) on both views.
    #[test]
    fn segment_walk_matches_copy_roots_table() {
        use crate::view::IndexView;
        let cases = [(classical2(), 3), (no_copy(), 3), (decoding_copy(), 5)];
        for (base, max_r) in &cases {
            for r in 1..=*max_r {
                let g = build_cdag(base, r);
                let view = IndexView::from_base(base, r);
                let (want, at) = (g.copy_roots_table(), format!("{} r={r}", base.name()));
                assert_eq!(view.copy_roots_table(), want, "{at}");
                assert_eq!(MetaVertices::compute(&g).root, want, "{at}");
                assert_eq!(MetaVertices::compute_view(&view).root, want, "{at}");
            }
        }
        // The decoding walk had copies to follow.
        let g = build_cdag(&decoding_copy(), 2);
        let meta = MetaVertices::compute(&g);
        assert!(g
            .segment(Layer::Dec, 2)
            .any(|v| meta.meta_of(v) != MetaId(v.0)));
    }
}
