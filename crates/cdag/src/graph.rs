//! The ranked recursive CDAG `G_r` and its vertex addressing scheme.

use crate::base::BaseGraph;
use crate::index;
use crate::view::{CdagView, IndexView};
use mmio_matrix::Rational;
use std::fmt;

/// A vertex of a [`Cdag`], identified by a dense `u32`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VertexId(pub u32);

impl VertexId {
    /// The dense index as `usize`.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Which of the three structural layers of `G_r` a vertex belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Layer {
    /// The encoding graph of `A` (encoding ranks `0..=r`).
    EncA,
    /// The encoding graph of `B` (encoding ranks `0..=r`).
    EncB,
    /// The decoding graph (decoding ranks `0..=r`; rank 0 holds the product
    /// vertices, rank `r` the outputs).
    Dec,
}

impl Layer {}

/// Structured address of a `G_r` vertex.
///
/// For encoding layers, `level = t ∈ 0..=r` is the encoding rank: the vertex
/// holds the partial combination addressed by multiplication prefix
/// `mul ∈ [b^t]` (digits coarsest-first) and block-entry suffix
/// `entry ∈ [a^{r-t}]` (digits coarsest-first).
///
/// For the decoding layer, `level = k ∈ 0..=r` is the decoding rank: the
/// vertex is addressed by `mul ∈ [b^{r-k}]` and output-entry suffix
/// `entry ∈ [a^k]` whose digits are the *deepest* `k` output coordinates,
/// coarsest-of-them first.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct VertexRef {
    /// Structural layer.
    pub layer: Layer,
    /// Encoding rank `t` or decoding rank `k`.
    pub level: u32,
    /// Packed multiplication prefix.
    pub mul: u64,
    /// Packed entry suffix.
    pub entry: u64,
}

/// The computation DAG `G_r` of a Strassen-like algorithm applied to
/// `n₀^r × n₀^r` matrices, with explicit bidirectional adjacency.
///
/// The graph itself is defined once, in closed form, by [`IndexView`];
/// this type adds the materialized predecessor and successor CSR that
/// [`crate::build::build_cdag`] collects from it, and delegates layout,
/// addressing, coefficients and copy structure to the view.
///
/// Vertices are laid out segment-by-segment: `EncA` levels `0..=r`, then
/// `EncB` levels `0..=r`, then `Dec` levels `0..=r`. Within a segment the
/// index is `mul · a^{suffix_len} + entry`, so identifiers in increasing
/// order form a topological order of the DAG.
pub struct Cdag {
    base: BaseGraph,
    view: IndexView,
    pred_off: Vec<u32>,
    pred_tgt: Vec<VertexId>,
    succ_off: Vec<u32>,
    succ_tgt: Vec<VertexId>,
}

impl Cdag {
    pub(crate) fn from_parts(
        base: BaseGraph,
        view: IndexView,
        pred_off: Vec<u32>,
        pred_tgt: Vec<VertexId>,
        succ_off: Vec<u32>,
        succ_tgt: Vec<VertexId>,
    ) -> Cdag {
        Cdag {
            base,
            view,
            pred_off,
            pred_tgt,
            succ_off,
            succ_tgt,
        }
    }

    /// The base graph `G₁` this CDAG recurses on.
    pub fn base(&self) -> &BaseGraph {
        &self.base
    }

    /// The closed-form definition this graph was materialized from.
    pub(crate) fn view(&self) -> &IndexView {
        &self.view
    }

    /// The number of recursion levels `r` (input side is `n₀^r`).
    pub fn r(&self) -> u32 {
        self.view.r()
    }

    /// The matrix side `n = n₀^r`.
    pub fn n(&self) -> u64 {
        index::pow(self.base.n0(), self.r())
    }

    /// Total number of vertices.
    pub fn n_vertices(&self) -> usize {
        self.view.n_vertices() as usize
    }

    /// Total number of directed edges.
    pub fn n_edges(&self) -> usize {
        self.pred_tgt.len()
    }

    /// Number of vertices in segment `(layer, level)`:
    /// `b^t·a^{r-t}` for encoding rank `t`, `b^{r-k}·a^k` for decoding rank `k`.
    pub fn segment_len(&self, layer: Layer, level: u32) -> u64 {
        let seg = self.view.segment(layer, level);
        seg.end - seg.start
    }

    /// `a^{entry_len}` — the entry-suffix width of segment `(layer, level)`.
    pub fn entry_width(&self, layer: Layer, level: u32) -> u64 {
        self.view.entry_width(layer, level)
    }

    /// Dense id of a structured reference.
    ///
    /// # Panics
    /// Panics if the reference is out of range.
    pub fn id(&self, vref: VertexRef) -> VertexId {
        VertexId(self.view.id(vref).expect("vertex address out of range"))
    }

    /// Structured reference of a dense id.
    ///
    /// # Panics
    /// Panics if `v` is not a vertex of this graph.
    pub fn vref(&self, v: VertexId) -> VertexRef {
        self.view.vref(v.0).expect("vertex id out of range")
    }

    /// The paper's global rank of a vertex: encoding rank `t` maps to rank
    /// `t`; decoding rank `k` maps to rank `r+1+k`. Ranks run `0..=2r+1`.
    pub fn rank(&self, v: VertexId) -> u32 {
        self.view.rank_of(v).expect("vertex id out of range")
    }

    /// Direct predecessors of `v` (the values `v`'s computation reads).
    pub fn preds(&self, v: VertexId) -> &[VertexId] {
        let i = v.idx();
        // audit: safe — CSR invariant: pred_off has n+1 monotone entries bounding pred_tgt
        &self.pred_tgt[self.pred_off[i] as usize..self.pred_off[i + 1] as usize]
    }

    /// Edge coefficients aligned with [`Cdag::preds`]: the generating base
    /// row's nonzeros. Product vertices have coefficient 1 on both operands.
    pub fn pred_coeffs(&self, v: VertexId) -> &[Rational] {
        self.view.pred_coeffs(self.vref(v))
    }

    /// Direct successors of `v` (the computations reading `v`).
    pub fn succs(&self, v: VertexId) -> &[VertexId] {
        let i = v.idx();
        &self.succ_tgt[self.succ_off[i] as usize..self.succ_off[i + 1] as usize]
    }

    /// All vertices of segment `(layer, level)` in dense order.
    pub fn segment(&self, layer: Layer, level: u32) -> impl Iterator<Item = VertexId> + '_ {
        self.view.segment(layer, level).map(|i| VertexId(i as u32))
    }

    /// The `2a^r` input vertices (entries of `A` then entries of `B`).
    pub fn inputs(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.segment(Layer::EncA, 0)
            .chain(self.segment(Layer::EncB, 0))
    }

    /// The `a^r` output vertices (entries of `C`), decoding rank `r`.
    pub fn outputs(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.segment(Layer::Dec, self.r())
    }

    /// The `b^r` multiplication (product) vertices, decoding rank 0.
    pub fn products(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.segment(Layer::Dec, 0)
    }

    /// All vertices in dense (topological) order.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.n_vertices() as u32).map(VertexId)
    }

    /// Whether `v` is an input of the whole CDAG (encoding level 0 of
    /// either side), as the closed form defines it: the combination vertex
    /// of an all-zero encoding row has no predecessors but is computed.
    pub fn is_input(&self, v: VertexId) -> bool {
        self.view.is_input(v.0)
    }

    /// Whether `v` is an output of the whole CDAG.
    pub fn is_output(&self, v: VertexId) -> bool {
        self.view.is_output(v.0)
    }

    /// If `v` is a copy (its generating base row is trivial: one nonzero
    /// coefficient, equal to 1), its single predecessor; `None` otherwise.
    pub fn copy_parent(&self, v: VertexId) -> Option<VertexId> {
        self.view.copy_parent_of(v.0).map(VertexId)
    }

    /// The input vertex holding `A[(row, col)]`.
    pub fn input_a(&self, row: usize, col: usize) -> VertexId {
        self.input_entry(Layer::EncA, row, col)
    }

    /// The input vertex holding `B[(row, col)]`.
    pub fn input_b(&self, row: usize, col: usize) -> VertexId {
        self.input_entry(Layer::EncB, row, col)
    }

    fn input_entry(&self, layer: Layer, row: usize, col: usize) -> VertexId {
        let digits =
            mmio_matrix::block::entry_to_digits(row, col, self.base.n0(), self.r() as usize);
        self.id(VertexRef {
            layer,
            level: 0,
            mul: 0,
            entry: index::pack(&digits, self.base.a()),
        })
    }

    /// The output vertex holding `C[(row, col)]`.
    pub fn output(&self, row: usize, col: usize) -> VertexId {
        let digits =
            mmio_matrix::block::entry_to_digits(row, col, self.base.n0(), self.r() as usize);
        self.id(VertexRef {
            layer: Layer::Dec,
            level: self.r(),
            mul: 0,
            entry: index::pack(&digits, self.base.a()),
        })
    }
}

impl fmt::Debug for Cdag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Cdag({}, r={}, |V|={}, |E|={})",
            self.base.name(),
            self.r(),
            self.n_vertices(),
            self.n_edges()
        )
    }
}
