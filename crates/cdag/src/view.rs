//! [`CdagView`] and [`IndexView`]: the one closed-form definition of `G_r`.
//!
//! Fact 1 plus the copy isomorphism make the whole graph computable from
//! pure mixed-radix index arithmetic over the base matrices: the segment
//! layout (EncA levels `0..=r`, EncB `0..=r`, Dec `0..=r`), the dense-id ↔
//! structured-address bijection, predecessors with their coefficients,
//! successors, the copy grouping, and the Fact-1 lift of a `G_k` vertex into
//! any of the `b^{r-k}` copies inside `G_r`.
//!
//! This module defines:
//!
//! - [`CdagView`], the trait the routing, analysis, and pebble engines are
//!   generic over, with the Fact-1 lift as [`CdagView::lift_from`];
//! - [`IndexView`], the closed form: `O(a·b)` memory regardless of `r`,
//!   every query answered by arithmetic. It is the *only* place `G_r` is
//!   defined — its edges are one block rule per segment and direction,
//!   [`crate::build::build_cdag`] materializes a [`Cdag`] by filling both
//!   CSR halves from those rules, and the `Cdag` reads its layout,
//!   addressing and coefficients back from the view. The
//!   certificate verifier consumes the same implementation through a
//!   re-export in `mmio-cert::view`, so its trust base is `mmio-cdag`.
//!
//! Everything in [`IndexView`] is checked: malformed shapes and id-space
//! overflows surface as `Err`/`None`, never as panics, because certificate
//! input is untrusted.

use crate::base::{check_shape, max_indegree, BaseGraph, Side};
use crate::graph::{Cdag, Layer, VertexId, VertexRef};
use crate::hits::UnionFind;
use mmio_matrix::{Matrix, Rational};
use std::fmt;
use std::ops::Range;

/// Why a view could not be constructed — split so the verifier can map
/// shape defects and parameter/size defects to distinct reject codes.
#[derive(Clone, Debug)]
pub enum ViewError {
    /// The embedded coefficient matrices have inconsistent dimensions.
    Shape(String),
    /// The requested parameters are out of the verifiable range (`r == 0`,
    /// or the implied graph overflows the dense id space).
    Params(String),
}

impl fmt::Display for ViewError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViewError::Shape(s) | ViewError::Params(s) => f.write_str(s),
        }
    }
}

/// `base^exp` without panicking on overflow, in `O(log exp)` steps (an
/// untrusted `r` may be huge when `base` is 1).
pub fn checked_pow(base: u64, exp: u32) -> Option<u64> {
    base.checked_pow(exp)
}

/// The segments of `G_r` for a base with parameters `(a, b)`, in EncA,
/// EncB, Dec order with levels ascending: each segment's entry-suffix width
/// `a^{entry_len}` and its vertex count (`b^t·a^{r-t}` at encoding rank
/// `t`, `b^{r-k}·a^k` at decoding rank `k`). `None` on `u64` overflow.
/// The one place segment sizes are computed.
fn segments(a: u64, b: u64, r: u32) -> impl Iterator<Item = Option<(u64, u64)>> {
    // audit: safe — r < 2^32, so 3(r+1) cannot overflow u64
    let (levels, count) = (r as u64 + 1, 3 * (r as u64 + 1));
    (0..count).map(move |s| {
        // audit: safe — levels ≥ 1; the level s mod levels is at most r
        let (side, level) = (s / levels, (s % levels) as u32);
        let rest = r - level; // audit: safe — level ≤ r
        let (mul_len, entry_len) = if side < 2 {
            (level, rest)
        } else {
            (rest, level)
        };
        let width = checked_pow(a, entry_len)?;
        Some((width, checked_pow(b, mul_len)?.checked_mul(width)?))
    })
}

/// Closed-form vertex count of `G_r` for a base with parameters `(a, b)`:
/// `Σ_t 2·b^t·a^{r-t} + Σ_k b^{r-k}·a^k`. `None` on `u64` overflow — the
/// caller should treat that as "too big for any budget".
pub fn count_vertices(a: u64, b: u64, r: u32) -> Option<u64> {
    segments(a, b, r).try_fold(0u64, |total, seg| total.checked_add(seg?.1))
}

/// The deepest `G_r` of the 1×1 one-product base, a chain of `3(r+1)`
/// vertices that never outgrows `u32` ids.
const UNIT_MAX_DEPTH: u32 = 32;

/// Whether `G_r` of a base with parameters `(a, b)` can be laid out: its
/// vertices fit dense `u32` ids, and the 1×1 one-product base stays within
/// `r = 32`. The depth rule of [`IndexView::new`] and `build_cdag`, checked
/// without building anything.
pub fn fits_ids(a: u64, b: u64, r: u32) -> bool {
    !(a == 1 && b == 1 && r > UNIT_MAX_DEPTH)
        && count_vertices(a, b, r).is_some_and(|n| n <= u64::from(u32::MAX))
}

/// Uniform lazy access to the structure of `G_r`.
///
/// Implemented by the materialized [`Cdag`] and by the closed-form
/// [`IndexView`]. The contract is exact structural equivalence: for the
/// same base and `r`, every method must return identical results across
/// implementations (property-tested in `mmio-integration`), including the
/// *order* of appended predecessors and successors — engines rely on it for
/// deterministic output.
///
/// Methods taking a [`VertexId`] assume `v.idx() < n_vertices()` unless
/// documented otherwise; `preds_into`/`succs_into` report out-of-range ids
/// by returning `false`.
pub trait CdagView {
    /// Recursion depth `r ≥ 1`.
    fn r(&self) -> u32;
    /// `a = n₀²`.
    fn a(&self) -> usize;
    /// `b`: multiplications per recursion step.
    fn b(&self) -> usize;
    /// Total vertex count of `G_r`.
    fn n_vertices(&self) -> usize;
    /// Dense id of a structured address, or `None` if out of range.
    fn try_id(&self, v: VertexRef) -> Option<VertexId>;
    /// Structured address of a dense id, or `None` if out of range.
    fn try_vref(&self, v: VertexId) -> Option<VertexRef>;
    /// `a^{entry_len}` — the entry-suffix width of segment `(layer, level)`.
    fn entry_width(&self, layer: Layer, level: u32) -> u64;
    /// Appends `v`'s predecessors (in dense-id order) to `out`; `false` if
    /// `v` is out of range. Does not clear `out`.
    fn preds_into(&self, v: VertexId, out: &mut Vec<VertexId>) -> bool;
    /// Appends `v`'s successors (in dense-id order) to `out`; `false` if
    /// `v` is out of range. Does not clear `out`.
    fn succs_into(&self, v: VertexId, out: &mut Vec<VertexId>) -> bool;
    /// Appends `v`'s predecessors and then its successors to `out`, as
    /// [`CdagView::preds_into`] and [`CdagView::succs_into`] would, and
    /// returns the number of predecessors. An out-of-range `v` appends
    /// nothing and returns 0. Does not clear `out`.
    fn adj_into(&self, v: VertexId, out: &mut Vec<VertexId>) -> usize {
        let before = out.len();
        self.preds_into(v, out);
        let n_preds = out.len() - before;
        self.succs_into(v, out);
        n_preds
    }
    /// Whether `v` is an input (encoding level 0 of either side).
    fn is_input(&self, v: VertexId) -> bool;
    /// Whether `v` is an output (decoding level `r`).
    fn is_output(&self, v: VertexId) -> bool;
    /// The paper's global rank (`0..=2r+1`), or `None` if out of range.
    fn rank_of(&self, v: VertexId) -> Option<u32>;
    /// Maximum in-degree over `G_r`.
    fn max_indegree(&self) -> usize;
    /// If `v` is a copy (its generating base row is trivial: one nonzero
    /// coefficient, equal to 1), its single predecessor; `None` otherwise.
    fn copy_parent(&self, v: VertexId) -> Option<VertexId>;
    /// The closed form of the viewed graph: the [`IndexView`] itself, or the
    /// one a [`Cdag`] was materialized from.
    fn closed_form(&self) -> &IndexView;

    /// The copy grouping as a flat root table (`roots[v]` = representative
    /// of `v`'s meta-vertex). `O(n_vertices)` memory by nature.
    // audit: safe — the per-vertex union-find oracle of MetaVertices, run by the integration crate's proptest_views.rs on both views of every registry base
    fn copy_roots_table(&self) -> Vec<u32> {
        let n = self.n_vertices();
        let mut uf = UnionFind::new(n);
        for i in 0..n as u32 {
            if let Some(p) = self.copy_parent(VertexId(i)) {
                uf.union(i, p.0);
            }
        }
        uf.roots()
    }

    /// **Fact 1**: for `0 ≤ k ≤ r`, the middle `2(k+1)` levels of `G_r`
    /// (encoding ranks `r-k..=r` of both sides and decoding ranks `0..=k`)
    /// are `b^{r-k}` vertex-disjoint copies of `G_k`, the copy `G_k^i` being
    /// the vertices whose multiplication prefix starts with `i`. This lift
    /// maps vertex `v` of the standalone `G_k` (viewed by `local`) into the
    /// copy selected by `prefix ∈ [b^{r-k}]`; it is how routings built once
    /// on `G_k` are transported into every subcomputation of `G_r`. `None`
    /// when the views are incompatible or anything is out of range.
    fn lift_from<V: CdagView + ?Sized>(
        &self,
        local: &V,
        prefix: u64,
        v: VertexId,
    ) -> Option<VertexId> {
        self.try_id(self.lift_vref(local, prefix, local.try_vref(v)?)?)
    }

    /// [`CdagView::lift_from`] on structured addresses: the address in
    /// copy `prefix` of `vr`, an address of the standalone `G_k` viewed by
    /// `local`. Callers that lift one vertex into many copies decode it
    /// once. `None` when the views are incompatible, the prefix is out of
    /// range or the lifted index overflows; the result is checked against
    /// this view only by [`CdagView::try_id`].
    fn lift_vref<V: CdagView + ?Sized>(
        &self,
        local: &V,
        prefix: u64,
        vr: VertexRef,
    ) -> Option<VertexRef> {
        let (r, k) = (self.r(), local.r());
        if local.a() != self.a() || local.b() != self.b() || k > r {
            return None;
        }
        // audit: safe — k ≤ r was checked above
        let copies = checked_pow(self.b() as u64, r - k)?;
        if prefix >= copies {
            return None;
        }
        Some(match vr.layer {
            // Local encoding level t' sits at global level r-k+t', with the
            // prefix prepended to the t'-digit multiplication index.
            Layer::EncA | Layer::EncB => VertexRef {
                layer: vr.layer,
                // audit: safe — k ≤ r was checked above
                level: (r - k).checked_add(vr.level)?,
                mul: prefix
                    .checked_mul(checked_pow(self.b() as u64, vr.level)?)?
                    .checked_add(vr.mul)?,
                entry: vr.entry,
            },
            // Local decoding level k' keeps its global level, with the
            // prefix prepended to the (k-k')-digit multiplication index.
            Layer::Dec => VertexRef {
                layer: Layer::Dec,
                level: vr.level,
                mul: prefix
                    .checked_mul(checked_pow(self.b() as u64, k.checked_sub(vr.level)?)?)?
                    .checked_add(vr.mul)?,
                entry: vr.entry,
            },
        })
    }
}

impl CdagView for Cdag {
    fn r(&self) -> u32 {
        Cdag::r(self)
    }
    fn a(&self) -> usize {
        self.base().a()
    }
    fn b(&self) -> usize {
        self.base().b()
    }
    fn n_vertices(&self) -> usize {
        Cdag::n_vertices(self)
    }
    fn try_id(&self, v: VertexRef) -> Option<VertexId> {
        self.view().id(v).map(VertexId)
    }
    fn try_vref(&self, v: VertexId) -> Option<VertexRef> {
        self.view().vref(v.0)
    }
    fn entry_width(&self, layer: Layer, level: u32) -> u64 {
        Cdag::entry_width(self, layer, level)
    }
    fn preds_into(&self, v: VertexId, out: &mut Vec<VertexId>) -> bool {
        if v.idx() >= Cdag::n_vertices(self) {
            return false;
        }
        out.extend_from_slice(self.preds(v));
        true
    }
    fn succs_into(&self, v: VertexId, out: &mut Vec<VertexId>) -> bool {
        if v.idx() >= Cdag::n_vertices(self) {
            return false;
        }
        out.extend_from_slice(self.succs(v));
        true
    }
    fn adj_into(&self, v: VertexId, out: &mut Vec<VertexId>) -> usize {
        if v.idx() >= Cdag::n_vertices(self) {
            return 0;
        }
        let preds = self.preds(v);
        out.extend_from_slice(preds);
        out.extend_from_slice(self.succs(v));
        preds.len()
    }
    fn is_input(&self, v: VertexId) -> bool {
        Cdag::is_input(self, v)
    }
    fn is_output(&self, v: VertexId) -> bool {
        Cdag::is_output(self, v)
    }
    fn rank_of(&self, v: VertexId) -> Option<u32> {
        self.view().rank_of(v)
    }
    fn max_indegree(&self) -> usize {
        self.view().max_indegree()
    }
    fn copy_parent(&self, v: VertexId) -> Option<VertexId> {
        Cdag::copy_parent(self, v)
    }
    fn closed_form(&self) -> &IndexView {
        self.view()
    }
}

/// One coefficient matrix, row-sparse: per-row nonzero columns and their
/// coefficients (for predecessor queries), per-column nonzero rows (for
/// successor queries), and per trivial row (exactly one nonzero, equal to
/// 1 — the condition for copy-group membership) its one column.
#[derive(Clone)]
struct RowTable {
    cols: Vec<Vec<usize>>,
    coeffs: Vec<Vec<Rational>>,
    rows_of_col: Vec<Vec<usize>>,
    copy_col: Vec<Option<usize>>,
}

impl RowTable {
    fn new(m: &Matrix<Rational>) -> RowTable {
        let mut table = RowTable {
            cols: Vec::with_capacity(m.rows()),
            coeffs: Vec::with_capacity(m.rows()),
            rows_of_col: vec![Vec::new(); m.cols()],
            copy_col: Vec::with_capacity(m.rows()),
        };
        for row in 0..m.rows() {
            // audit: safe — row and c range over m's own dimensions
            let nz: Vec<usize> = (0..m.cols()).filter(|&c| !m[(row, c)].is_zero()).collect();
            for &c in &nz {
                table.rows_of_col[c].push(row); // audit: safe — c < m.cols(), the table size
            }
            // audit: safe — row and c range over m's own dimensions
            let coeffs: Vec<Rational> = nz.iter().map(|&c| m[(row, c)]).collect();
            let trivial = coeffs.len() == 1 && coeffs[0].is_one(); // audit: safe — len checked first
            table.copy_col.push(nz.first().copied().filter(|_| trivial));
            table.coeffs.push(coeffs);
            table.cols.push(nz);
        }
        table
    }

    /// Number of columns touched by at least one row.
    fn used_cols(&self) -> u64 {
        self.rows_of_col.iter().filter(|r| !r.is_empty()).count() as u64
    }

    fn max_row_len(&self) -> usize {
        self.cols.iter().map(Vec::len).max().unwrap_or(0)
    }
}

/// The coefficients a product vertex applies to its two operands.
static PRODUCT_COEFFS: [Rational; 2] = [Rational::ONE, Rational::ONE];

/// Index of the predecessor [`Rule`] in [`IndexView::rules`].
const PRED: usize = 0;
/// Index of the successor [`Rule`] in [`IndexView::rules`].
const SUCC: usize = 1;

/// Every base-row list the rules read, flattened: list `i` is
/// `items[starts[i]..starts[i + 1]]`, ascending.
#[derive(Clone)]
struct RowLists {
    starts: Vec<u32>,
    items: Vec<u32>,
}

impl RowLists {
    fn new() -> RowLists {
        RowLists {
            starts: vec![0],
            items: Vec::new(),
        }
    }

    /// Appends `rows` as consecutive lists and returns the first one's
    /// index. Entries are base-matrix indices, below `a` or `b`.
    fn push<'a>(&mut self, rows: impl IntoIterator<Item = &'a [usize]>) -> u32 {
        let first = self.starts.len() as u32 - 1; // audit: safe — starts begins with one entry
        for row in rows {
            self.items.extend(row.iter().map(|&x| x as u32));
            self.starts.push(self.items.len() as u32);
        }
        first
    }

    /// List `i`.
    fn get(&self, i: u32) -> &[u32] {
        let i = i as usize;
        // audit: safe — rules index lists below their family's length, checked at layout
        let (start, end) = (self.starts[i], self.starts[i + 1]);
        &self.items[start as usize..end as usize] // audit: safe — starts ascend within items
    }
}

/// The edges of one segment in one direction, as block arithmetic. The
/// segment's ids fall into blocks of `run` consecutive vertices that share
/// one base row: block `j` reads list `rows + (j mod q)`, and its vertex
/// at offset `e` has the neighbours `target + (j div q)·span + e +
/// x·stride` for the `x` of that list, ascending. The layout checks once
/// per rule that every neighbour lies in the target segment, so a fetch
/// is `u32` arithmetic without further checks.
#[derive(Clone, Copy)]
struct Rule {
    target: u32,
    run: u32,
    q: u32,
    span: u32,
    stride: u32,
    rows: u32,
}

impl Rule {
    /// The rule of a segment of `len` vertices into the segment `to`, or
    /// `None` if its blocks do not tile the segment or some neighbour
    /// would leave `to`.
    fn checked(
        lists: &RowLists,
        len: u64,
        to: Range<u64>,
        [run, q, span, stride]: [u64; 4],
        rows: u32,
    ) -> Option<Rule> {
        let cycles = len.checked_div(run)?.checked_div(q)?;
        if cycles.checked_mul(q)?.checked_mul(run)? != len {
            return None;
        }
        let rows_end = u64::from(rows).checked_add(q)?;
        if rows_end >= lists.starts.len() as u64 {
            return None;
        }
        let max_x = (u64::from(rows)..rows_end)
            .filter_map(|i| lists.get(i as u32).last())
            .max();
        if let (Some(&x), Some(last_cycle)) = (max_x, cycles.checked_sub(1)) {
            let last = to
                .start
                .checked_add(last_cycle.checked_mul(span)?)?
                .checked_add(run.checked_sub(1)?)?
                .checked_add(u64::from(x).checked_mul(stride)?)?;
            if last >= to.end {
                return None;
            }
        }
        let fit = |x: u64| u32::try_from(x).ok();
        Some(Rule {
            target: fit(to.start)?,
            run: fit(run)?,
            q: fit(q)?,
            span: fit(span)?,
            stride: fit(stride)?,
            rows,
        })
    }
}

/// One segment of `G_r`, as [`IndexView::segments`] yields it: the
/// vertices of one `(layer, level)`, a contiguous range of dense ids.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Segment {
    /// The segment's layer.
    pub layer: Layer,
    /// Its level within the layer, `0..=r`.
    pub level: u32,
    /// The paper's global rank of every vertex in it, `0..=2r+1`.
    pub rank: u32,
    /// Its dense ids.
    pub ids: Range<u32>,
    /// `a^{entry_len}`, the entry-suffix width: each run of `width`
    /// consecutive ids shares one multiplication index `mul`.
    pub width: u64,
}

/// The closed-form view of `G_r` for one base algorithm: `O(a·b)` memory
/// regardless of `r`. See the module docs for what it derives and why.
///
/// The inherent API works on raw `u32` ids (it predates the trait and the
/// certificate verifier depends on exactly this surface); the [`CdagView`]
/// impl wraps it in [`VertexId`]s.
#[derive(Clone)]
pub struct IndexView {
    r: u32,
    a: usize,
    b: usize,
    /// `3(r+1)+1` cumulative segment offsets, in EncA/EncB/Dec order.
    seg_offsets: Vec<u64>,
    /// Per-segment entry-suffix width `a^{entry_len}`, precomputed so
    /// [`IndexView::id`] and [`IndexView::vref`] — the innermost loop of
    /// every routing construction and verification — never evaluate a
    /// power.
    seg_width: Vec<u64>,
    /// Per segment, its predecessor and successor [`Rule`] (`None` for
    /// the inputs' predecessors and the outputs' successors).
    rules: Vec<[Option<Rule>; 2]>,
    /// The base-row lists the rules read.
    lists: RowLists,
    enc_a: RowTable,
    enc_b: RowTable,
    dec: RowTable,
}

impl IndexView {
    /// Builds the view from raw base matrices, validating shapes and the id
    /// space. Rejects (never panics) on inconsistent matrix dimensions,
    /// `r == 0`, or a graph that would not fit dense `u32` ids.
    pub fn new(
        n0: usize,
        enc_a: &Matrix<Rational>,
        enc_b: &Matrix<Rational>,
        dec: &Matrix<Rational>,
        r: u32,
    ) -> Result<IndexView, ViewError> {
        let a = check_shape(n0, enc_a, enc_b, dec).map_err(ViewError::Shape)?;
        if r == 0 {
            return Err(ViewError::Params(
                "recursion depth r must be at least 1".into(),
            ));
        }
        IndexView::with_tables(
            r,
            a,
            RowTable::new(enc_a),
            RowTable::new(enc_b),
            RowTable::new(dec),
        )
    }

    /// Lays out `G_r` over already-shaped row tables; any `r ≥ 0`.
    fn with_tables(
        r: u32,
        a: usize,
        enc_a: RowTable,
        enc_b: RowTable,
        dec: RowTable,
    ) -> Result<IndexView, ViewError> {
        let b = enc_a.cols.len();
        // Every base with a·b ≥ 2 runs out of u32 ids before r = 32. Only
        // the 1×1 one-product base goes on, as a chain of 3(r+1) vertices
        // with one table row per segment; an untrusted r must not grow
        // the tables with it.
        if a == 1 && b == 1 && r > UNIT_MAX_DEPTH {
            return Err(ViewError::Params(format!(
                "a 1×1 base with one product is viewable up to r = {UNIT_MAX_DEPTH}, not r = {r}"
            )));
        }
        let mut seg_offsets = vec![0u64];
        let mut seg_width = Vec::new();
        let mut total: u64 = 0;
        for seg in segments(a as u64, b as u64, r) {
            let (width, size) =
                seg.ok_or_else(|| ViewError::Params("segment size overflows u64".into()))?;
            total = total
                .checked_add(size)
                .ok_or_else(|| ViewError::Params("vertex count overflows u64".into()))?;
            // Past u32 ids the view is rejected below, but the scan goes on
            // (a later segment may overflow u64 instead); the tables stop
            // growing there.
            if total <= u32::MAX as u64 {
                seg_offsets.push(total);
                seg_width.push(width);
            }
        }
        if total > u32::MAX as u64 {
            return Err(ViewError::Params(format!(
                "G_r has {total} vertices, exceeding u32 ids"
            )));
        }
        let mut view = IndexView {
            r,
            a,
            b,
            seg_offsets,
            seg_width,
            rules: Vec::new(),
            lists: RowLists::new(),
            enc_a,
            enc_b,
            dec,
        };
        view.lay_rules()?;
        Ok(view)
    }

    /// Lays out the predecessor and successor [`Rule`] of every segment,
    /// with the base-row lists they read. Predecessors: an encoding child
    /// drops its last multiplication digit τ and reads the columns of
    /// row τ; a decoding child drops its leading entry digit υ and reads
    /// the columns of decoding row υ; a product reads the rank-`r`
    /// combinations of its own `mul` on both sides. Successors invert
    /// these through the column→row transposes. `Err` only if a rule
    /// fails its range check.
    fn lay_rules(&mut self) -> Result<(), ViewError> {
        let mut lists = RowLists::new();
        let tables = [&self.enc_a, &self.enc_b, &self.dec];
        let cols = tables.map(|t| lists.push(t.cols.iter().map(Vec::as_slice)));
        let rows_of_col = tables.map(|t| lists.push(t.rows_of_col.iter().map(Vec::as_slice)));
        let operands = lists.push([[0, 1].as_slice()]);
        let product = lists.push([[0].as_slice()]);
        let (a, b, r) = (self.a as u64, self.b as u64, self.r);
        let (enc_a_r, enc_b_r) = (self.segment(Layer::EncA, r), self.segment(Layer::EncB, r));
        let mut rules = Vec::new();
        for (t, layer) in [Layer::EncA, Layer::EncB, Layer::Dec]
            .into_iter()
            .enumerate()
        {
            let width = |level| self.entry_width(layer, level);
            for level in 0..=r {
                let seg = self.segment(layer, level);
                let rule = |to: Range<u64>, shape: [u64; 4], rows: u32| {
                    // audit: safe — offsets ascend
                    Rule::checked(&lists, seg.end - seg.start, to, shape, rows).ok_or_else(|| {
                        ViewError::Params(format!("the {layer:?} {level} rule leaves its target"))
                    })
                };
                // Below, levels stay in 0..=r, and b·w is at most the size
                // of the segment whose width is w (so below 2^32).
                let pred = match layer {
                    Layer::Dec if level == 0 => {
                        let stride = enc_b_r.start - enc_a_r.start; // audit: safe — offsets ascend
                        Some(rule(
                            enc_a_r.start..enc_b_r.end,
                            [1, 1, 1, stride],
                            operands,
                        )?)
                    }
                    _ if level == 0 => None,
                    // Block `mul·a + υ` reads row υ over parents `mul·b + τ`.
                    Layer::Dec => {
                        let w = width(level - 1); // audit: safe — see above
                        let to = self.segment(layer, level - 1); // audit: safe — see above
                        Some(rule(to, [w, a, b * w, w], cols[t])?) // audit: safe — see above
                    }
                    // Block `mul` reads row `mul mod b` over parent `mul div b`.
                    _ => {
                        let (w, span) = (width(level), width(level - 1)); // audit: safe — see above
                        let to = self.segment(layer, level - 1); // audit: safe — see above
                        Some(rule(to, [w, b, span, w], cols[t])?)
                    }
                };
                let succ = match layer {
                    Layer::Dec if level == r => None,
                    _ if level == r => Some(rule(self.segment(Layer::Dec, 0), [1; 4], product)?),
                    // Block `mul` reads column `mul mod b` over child `mul div b`.
                    Layer::Dec => {
                        let (w, span) = (width(level), width(level + 1)); // audit: safe — see above
                        let to = self.segment(layer, level + 1); // audit: safe — see above
                        Some(rule(to, [w, b, span, w], rows_of_col[t])?)
                    }
                    // Block `mul·a + x` reads column x over children `mul·b + τ`.
                    _ => {
                        let w = width(level + 1); // audit: safe — see above
                        let to = self.segment(layer, level + 1); // audit: safe — see above
                        Some(rule(to, [w, a, b * w, w], rows_of_col[t])?) // audit: safe — see above
                    }
                };
                rules.push([pred, succ]);
            }
        }
        (self.lists, self.rules) = (lists, rules);
        Ok(())
    }

    /// The view of `G_r` for a trusted [`BaseGraph`] at any depth,
    /// including the degenerate `G_0` that [`IndexView::new`] rejects.
    pub(crate) fn of_base(base: &BaseGraph, r: u32) -> Result<IndexView, ViewError> {
        IndexView::with_tables(
            r,
            base.a(),
            RowTable::new(base.enc(Side::A)),
            RowTable::new(base.enc(Side::B)),
            RowTable::new(base.dec()),
        )
    }

    /// Builds the view of `G_r` for a trusted [`BaseGraph`].
    ///
    /// # Panics
    /// Panics if `r == 0` or the graph does not fit dense `u32` ids
    /// (`BaseGraph` shapes are valid by construction, so only `Params`
    /// errors remain).
    pub fn from_base(base: &BaseGraph, r: u32) -> IndexView {
        match IndexView::new(
            base.n0(),
            base.enc(Side::A),
            base.enc(Side::B),
            base.dec(),
            r,
        ) {
            Ok(v) => v,
            Err(e) => panic!("G_{r} of '{}' is not viewable: {e}", base.name()),
        }
    }

    /// The view of the standalone `G_k` over the same base, sharing no
    /// state with `self`. `k` must be in `1..=r`.
    #[cfg(test)]
    pub fn subview(&self, k: u32) -> IndexView {
        assert!(
            k >= 1 && k <= self.r,
            "subview depth {k} not in 1..={}",
            self.r
        );
        IndexView::with_tables(
            k,
            self.a,
            self.enc_a.clone(),
            self.enc_b.clone(),
            self.dec.clone(),
        )
        // Cannot fail: every G_k segment is no larger than a G_r segment.
        .expect("G_k fits wherever G_r does")
    }

    /// The recursion depth `r` of the viewed graph.
    pub fn r(&self) -> u32 {
        self.r
    }

    /// `a = n₀²`.
    pub fn a(&self) -> usize {
        self.a
    }

    /// `b`: multiplications per recursion step.
    pub fn b(&self) -> usize {
        self.b
    }

    /// Total vertex count of `G_r`.
    pub fn n_vertices(&self) -> u32 {
        // audit: safe — seg_offsets is built with 3(r+1)+1 entries, never empty
        *self.seg_offsets.last().unwrap() as u32
    }

    fn seg_index(&self, layer: Layer, level: u32) -> usize {
        let l = match layer {
            Layer::EncA => 0,
            Layer::EncB => 1,
            Layer::Dec => 2,
        };
        // audit: safe — level ≤ r at every caller: below 3(r+1) segments, each ≥ 1 vertex, ≤ u32::MAX
        l * (self.r as usize + 1) + level as usize
    }

    /// The dense ids of segment `(layer, level)`, `level ≤ r`.
    pub(crate) fn segment(&self, layer: Layer, level: u32) -> Range<u64> {
        let si = self.seg_index(layer, level);
        // audit: safe — si + 1 ≤ 3(r+1) for level ≤ r, within the 3(r+1)+1 offsets
        self.seg_offsets[si]..self.seg_offsets[si + 1]
    }

    /// `a^{entry_len}` — the entry-suffix width of segment `(layer, level)`,
    /// `level ≤ r`.
    pub fn entry_width(&self, layer: Layer, level: u32) -> u64 {
        self.seg_width[self.seg_index(layer, level)] // audit: safe — seg_index < 3(r+1) for level ≤ r
    }

    /// Every segment of `G_r` in dense id order: EncA levels `0..=r`,
    /// then EncB, then Dec. The one walk by which hot paths turn ids into
    /// ranks, a range at a time instead of one [`IndexView::vref`] per id.
    /// It decodes each segment itself: [`IndexView::vref`] and
    /// [`CdagView::rank_of`] stay the per-vertex rules it is tested against.
    pub fn segments(&self) -> impl Iterator<Item = Segment> + '_ {
        let levels = self.r as usize + 1;
        // A view holds all 3(r+1) segments, each ending at most u32::MAX.
        (0..self.seg_width.len()).map(move |si| {
            let (side, level) = (si / levels, (si % levels) as u32);
            let (layer, rank) = match side {
                0 => (Layer::EncA, level),
                1 => (Layer::EncB, level),
                _ => (Layer::Dec, self.r + 1 + level),
            };
            Segment {
                layer,
                level,
                rank,
                ids: self.seg_offsets[si] as u32..self.seg_offsets[si + 1] as u32,
                width: self.seg_width[si],
            }
        })
    }

    /// The dense id of a structured address, or `None` if out of range.
    pub fn id(&self, v: VertexRef) -> Option<u32> {
        if v.level > self.r {
            return None;
        }
        let si = self.seg_index(v.layer, v.level);
        let width = self.seg_width[si]; // audit: safe — si < 3(r+1) for level ≤ r
        if v.entry >= width {
            return None;
        }
        let local = v.mul.checked_mul(width)?.checked_add(v.entry)?;
        // audit: safe — si + 1 ≤ 3(r+1), within the 3(r+1)+1 offsets
        let (start, end) = (self.seg_offsets[si], self.seg_offsets[si + 1]);
        // audit: safe — offsets ascend and end at most u32::MAX, so neither overflows
        (local < end - start).then(|| (start + local) as u32)
    }

    /// The segment holding `id` and `id`'s offset in it, or `None` if `id`
    /// is out of range.
    fn locate(&self, id: u32) -> Option<(usize, u32)> {
        let id = id as u64;
        // The offsets start at 0, so some offset is at most `id`.
        let si = self
            .seg_offsets
            .partition_point(|&off| off <= id)
            .checked_sub(1)?;
        // Past the last segment (id ≥ n_vertices) there is no width.
        self.seg_width.get(si)?;
        let start = self.seg_offsets[si]; // audit: safe — si < 3(r+1), checked by the width lookup
        Some((si, (id - start) as u32)) // audit: safe — start ≤ id by the partition point
    }

    /// The structured address of a dense id, or `None` if out of range.
    pub fn vref(&self, id: u32) -> Option<VertexRef> {
        let (si, local) = self.locate(id)?;
        // audit: safe — locate returns si < 3(r+1)
        let (local, width) = (local as u64, self.seg_width[si]);
        // audit: safe — r < 2^32, so r + 1 fits usize on 64-bit hosts
        let levels = self.r as usize + 1;
        // audit: safe — levels ≥ 1
        let layer = match si / levels {
            0 => Layer::EncA,
            1 => Layer::EncB,
            _ => Layer::Dec,
        };
        Some(VertexRef {
            layer,
            level: (si % levels) as u32, // audit: safe — levels ≥ 1
            mul: local / width,          // audit: safe — widths are at least 1
            entry: local % width,        // audit: safe — widths are at least 1
        })
    }

    /// The coefficient rows of `layer`'s base matrix.
    fn table(&self, layer: Layer) -> &RowTable {
        match layer {
            Layer::EncA => &self.enc_a,
            Layer::EncB => &self.enc_b,
            Layer::Dec => &self.dec,
        }
    }

    /// The neighbours of the vertex at `(segment, offset)` under its
    /// `dir` rule ([`PRED`] or [`SUCC`]), in dense-id order.
    fn neighbours(&self, (si, local): (usize, u32), dir: usize) -> impl Iterator<Item = u32> + '_ {
        // Rule::checked admitted only rules whose every neighbour is in
        // its target segment, with run and q at least 1, so none of the
        // arithmetic below overflows or divides by zero.
        // audit: safe — si comes from locate, and dir is PRED or SUCC
        let (list, base, stride): (&[u32], u32, u32) = match self.rules[si][dir] {
            Some(rule) => {
                let (j, e) = (local / rule.run, local % rule.run); // audit: safe — see above
                let (c, i) = (j / rule.q, j % rule.q); // audit: safe — see above
                let list = self.lists.get(rule.rows + i); // audit: safe — see above
                (list, rule.target + c * rule.span + e, rule.stride) // audit: safe — see above
            }
            None => (&[], 0, 0),
        };
        list.iter().map(move |&x| base + x * stride) // audit: safe — see above
    }

    /// The base row generating a combination vertex (encoding level `> 0`:
    /// the encoding row `τ` of its last multiplication digit; decoding
    /// level `> 0`: the decoding row `υ` of its leading entry digit), or
    /// `None` for inputs and product vertices.
    fn row_of(&self, v: VertexRef) -> Option<(&RowTable, usize)> {
        match v.layer {
            _ if v.level == 0 => None,
            Layer::EncA | Layer::EncB => {
                let row = v.mul % self.b as u64; // audit: safe — b ≥ 1 by construction
                Some((self.table(v.layer), row as usize))
            }
            Layer::Dec => {
                // audit: safe — level > 0 past the first arm; widths are at least 1
                let row = v.entry / self.entry_width(Layer::Dec, v.level - 1);
                Some((&self.dec, row as usize))
            }
        }
    }

    /// Predecessors of a structured address, pushed in dense-id order, one
    /// neighbour address at a time: the per-vertex oracle of the rules.
    #[cfg(test)]
    pub(crate) fn preds_of(&self, v: VertexRef, push: &mut impl FnMut(u32)) {
        match v.layer {
            Layer::EncA | Layer::EncB => {
                if v.level == 0 {
                    return;
                }
                // Parent at level t-1 drops the mul's least-significant
                // digit τ and gains the encoded column as the entry's
                // most-significant digit.
                let tau = (v.mul % self.b as u64) as usize;
                let m_parent = v.mul / self.b as u64;
                let width = self.entry_width(v.layer, v.level);
                for &x in &self.table(v.layer).cols[tau] {
                    let e_parent = (x as u64) * width + v.entry;
                    push(
                        self.id(VertexRef {
                            layer: v.layer,
                            level: v.level - 1,
                            mul: m_parent,
                            entry: e_parent,
                        })
                        .expect("derived parent address is in range"),
                    );
                }
            }
            Layer::Dec => {
                if v.level == 0 {
                    // Product vertex: the two rank-r encoding combinations.
                    for layer in [Layer::EncA, Layer::EncB] {
                        push(
                            self.id(VertexRef {
                                layer,
                                level: self.r,
                                mul: v.mul,
                                entry: 0,
                            })
                            .expect("rank-r encoding address is in range"),
                        );
                    }
                } else {
                    let width = self.entry_width(Layer::Dec, v.level - 1);
                    let upsilon = (v.entry / width) as usize;
                    let e_rest = v.entry % width;
                    for &tau in &self.dec.cols[upsilon] {
                        let m_parent = v.mul * self.b as u64 + tau as u64;
                        push(
                            self.id(VertexRef {
                                layer: Layer::Dec,
                                level: v.level - 1,
                                mul: m_parent,
                                entry: e_rest,
                            })
                            .expect("derived parent address is in range"),
                        );
                    }
                }
            }
        }
    }

    /// The edge coefficients of `v`, aligned with its predecessors: the
    /// generating base row's nonzeros, 1 on both operands of a product
    /// vertex, and nothing for an input.
    pub(crate) fn pred_coeffs(&self, v: VertexRef) -> &[Rational] {
        match self.row_of(v) {
            Some((rows, row)) => &rows.coeffs[row],
            None if v.layer == Layer::Dec => &PRODUCT_COEFFS,
            None => &[],
        }
    }

    /// Appends the predecessors of `id` (dense ids) to `out`. Returns
    /// `false` if `id` is out of range. Encoding level-0 vertices (the
    /// inputs) have no predecessors.
    pub fn preds_into(&self, id: u32, out: &mut Vec<u32>) -> bool {
        let Some(at) = self.locate(id) else {
            return false;
        };
        out.extend(self.neighbours(at, PRED));
        true
    }

    /// Closed-form edge count of `G_r`: a segment's blocks cycle through
    /// the `q` lists of its predecessor rule, and a block contributes its
    /// list's length `run` times.
    pub(crate) fn n_edges(&self) -> u64 {
        let lens = self.seg_offsets.windows(2).map(|w| w[1] - w[0]);
        self.rules
            .iter()
            .zip(lens)
            .filter_map(|(rules, len)| {
                let rule = rules[PRED]?;
                let cycle: u64 = (rule.rows..rule.rows + rule.q)
                    .map(|i| self.lists.get(i).len() as u64)
                    .sum();
                Some(len / u64::from(rule.q) * cycle)
            })
            .sum()
    }

    /// Appends one half of `G_r`'s CSR adjacency to the empty `off` and
    /// `tgt`: every vertex's predecessors, or its successors if `succs`, in
    /// dense order, rule by rule. Allocates nothing when their capacities
    /// are `n_vertices + 1` and [`IndexView::n_edges`].
    pub(crate) fn fill_csr(&self, succs: bool, off: &mut Vec<u32>, tgt: &mut Vec<VertexId>) {
        let dir = if succs { SUCC } else { PRED };
        off.push(0u32);
        let lens = self.seg_offsets.windows(2).map(|w| w[1] - w[0]);
        for (rules, len) in self.rules.iter().zip(lens) {
            let Some(rule) = rules[dir] else {
                off.resize(off.len() + len as usize, tgt.len() as u32);
                continue;
            };
            // The blocks tile the segment in `cycles` runs of q lists.
            let cycles = len as u32 / (rule.run * rule.q);
            for c in 0..cycles {
                let cycle = rule.target + c * rule.span;
                for list in rule.rows..rule.rows + rule.q {
                    let list = self.lists.get(list);
                    for base in cycle..cycle + rule.run {
                        tgt.extend(list.iter().map(|&x| VertexId(base + x * rule.stride)));
                        off.push(tgt.len() as u32);
                    }
                }
            }
        }
        debug_assert_eq!(tgt.len() as u64, self.n_edges());
    }

    /// Whether `(u, v)` is an edge of `G_r` in either direction.
    pub fn is_edge(&self, u: u32, v: u32) -> bool {
        match (self.vref(u), self.vref(v)) {
            (Some(u), Some(v)) => self.is_pred(u, v) || self.is_pred(v, u),
            _ => false,
        }
    }

    /// [`IndexView::is_edge`] on two structured addresses. An address
    /// outside `G_r` (one [`IndexView::id`] rejects) is on no edge.
    pub fn is_edge_vref(&self, u: VertexRef, v: VertexRef) -> bool {
        // Only an in-range parent passes `is_pred` for an in-range child,
        // so checking each child covers both addresses.
        (self.id(v).is_some() && self.is_pred(u, v)) || (self.id(u).is_some() && self.is_pred(v, u))
    }

    /// Whether `p` is one of `c`'s predecessors, tested on the two
    /// addresses directly instead of through `c`'s rule: the parent
    /// fields must be the child's with one digit moved, and the moved
    /// digit must be a nonzero column of the child's generating row.
    /// `c` must be in range; `p` need not be.
    fn is_pred(&self, p: VertexRef, c: VertexRef) -> bool {
        let b = self.b as u64;
        match c.layer {
            Layer::EncA | Layer::EncB if c.level == 0 => false, // inputs
            Layer::EncA | Layer::EncB => {
                // Parent (mul / b, x·width + entry) for x in row mul mod b.
                let width = self.entry_width(c.layer, c.level);
                p.layer == c.layer
                    && p.level == c.level - 1 // audit: safe — level ≥ 1 in this arm
                    && p.mul == c.mul / b // audit: safe — b ≥ 1 by construction
                    && p.entry % width == c.entry // audit: safe — widths are at least 1
                    // audit: safe — mul % b < b, the row count
                    && self.table(c.layer).cols[(c.mul % b) as usize]
                        .contains(&((p.entry / width) as usize)) // audit: safe — widths are at least 1
            }
            // A product reads the two rank-r encoding combinations.
            Layer::Dec if c.level == 0 => {
                p.layer != Layer::Dec && p.level == self.r && p.mul == c.mul && p.entry == 0
            }
            Layer::Dec => {
                // Parent (mul·b + τ, entry mod width) for τ in row
                // entry / width.
                let width = self.entry_width(Layer::Dec, c.level - 1); // audit: safe — level ≥ 1 in this arm
                p.layer == Layer::Dec
                    && p.level == c.level - 1 // audit: safe — level ≥ 1 in this arm
                    && p.mul / b == c.mul // audit: safe — b ≥ 1 by construction
                    && p.entry == c.entry % width // audit: safe — widths are at least 1
                    // audit: safe — entry / width < a, the row count
                    && self.dec.cols[(c.entry / width) as usize]
                        .contains(&((p.mul % b) as usize)) // audit: safe — b ≥ 1 by construction
            }
        }
    }

    /// Whether `id` is an input (encoding level 0 of either side).
    pub fn is_input(&self, id: u32) -> bool {
        self.input_ord(id).is_some()
    }

    /// Whether `id` is an output (decoding level `r`).
    pub fn is_output(&self, id: u32) -> bool {
        self.segment(Layer::Dec, self.r).contains(&(id as u64))
    }

    /// Number of inputs, `2a^r`.
    pub fn inputs_count(&self) -> u64 {
        // audit: safe — the 2a^r inputs have u32 ids in a built view, so the u64 count cannot wrap
        2 * self.entry_width(Layer::EncA, 0)
    }

    /// Dense ordinal of an input among all `2a^r` inputs (`A` side first),
    /// or `None` if `id` is not an input.
    pub fn input_ord(&self, id: u32) -> Option<u64> {
        let idu = id as u64;
        let a_side = self.segment(Layer::EncA, 0);
        if a_side.contains(&idu) {
            return Some(idu);
        }
        let b_side = self.segment(Layer::EncB, 0);
        b_side
            .contains(&idu)
            // audit: safe — idu ≥ b_side.start by `contains`, and every sum stays below 2^32
            .then(|| a_side.end + (idu - b_side.start))
    }

    /// Dense ordinal of an output among the `a^r` outputs, or `None` if
    /// `id` is not an output.
    pub fn output_ord(&self, id: u32) -> Option<u64> {
        let outputs = self.segment(Layer::Dec, self.r);
        let idu = id as u64;
        // audit: safe — `contains` guarantees idu ≥ outputs.start
        outputs.contains(&idu).then(|| idu - outputs.start)
    }

    /// Number of outputs, `a^r`.
    pub fn outputs_count(&self) -> u64 {
        self.entry_width(Layer::Dec, self.r)
    }

    /// Inputs with at least one successor: `(used columns of enc) · a^{r-1}`
    /// per side. Every such input must be loaded by any complete schedule.
    pub fn used_inputs(&self) -> u64 {
        let per_entry = self.entry_width(Layer::EncA, 1);
        // audit: safe — at most the 2a^r inputs, whose ids are below 2^32 in a built view
        (self.enc_a.used_cols() + self.enc_b.used_cols()) * per_entry
    }

    /// Maximum in-degree over `G_r`, in closed form
    /// ([`crate::base::max_indegree`]).
    pub fn max_indegree(&self) -> usize {
        let widest = [&self.enc_a, &self.enc_b, &self.dec]
            .map(RowTable::max_row_len)
            .into_iter()
            .max();
        max_indegree(self.r, widest.unwrap_or(0))
    }

    /// If `id` is a copy (its generating row is trivial), its single
    /// predecessor; `None` otherwise (including out of range).
    pub fn copy_parent_of(&self, id: u32) -> Option<u32> {
        let (rows, row) = self.row_of(self.vref(id)?)?;
        // audit: safe — row_of returns a row index below the table's row count
        rows.copy_col[row]?; // only a trivial row makes a copy
        self.neighbours(self.locate(id)?, PRED).next()
    }

    /// The copy grouping as a flat root table (`roots[v]` = representative
    /// of `v`'s group), derived from row triviality: a vertex merges with
    /// its sole predecessor iff its encoding/decoding row has exactly one
    /// nonzero coefficient, equal to 1.
    pub fn copy_roots(&self) -> Vec<u32> {
        let n = self.n_vertices();
        let mut uf = UnionFind::new(n as usize);
        for id in 0..n {
            if let Some(p) = self.copy_parent_of(id) {
                uf.union(id, p);
            }
        }
        uf.roots()
    }

    /// The copy grouping as a root table (`roots[v]` = the smallest id in
    /// `v`'s meta-vertex), by one walk over the segments in dense order.
    /// All vertices of a block share their generating row: a `mul` block
    /// of `a^{r-t}` entries at encoding level `t`, a `υ` block of
    /// `a^{k-1}` entries at decoding level `k`. So the row is tested once
    /// per block, and a trivial row copies the roots of one contiguous
    /// parent block, which one level down and earlier in dense order are
    /// already final.
    pub(crate) fn meta_roots(&self) -> Vec<u32> {
        // Ids and block offsets stay below n_vertices ≤ u32::MAX, levels
        // start at 1, and a, b and every width are at least 1, so none of
        // the arithmetic below can overflow or divide by zero.
        let mut roots: Vec<u32> = (0..self.n_vertices()).collect();
        let (a, b) = (self.a as u64, self.b as u64);
        for layer in [Layer::EncA, Layer::EncB] {
            let rows = self.table(layer);
            for t in 1..=self.r {
                let parent = self.segment(layer, t - 1);
                let width = self.entry_width(layer, t);
                // Block `mul` reads column x of row `mul mod b`: entries
                // `x·width..(x+1)·width` of parent `mul / b`, which is
                // block `(mul / b)·a + x` of this width at level t - 1.
                copy_blocks(&mut roots, self.segment(layer, t), width, |mul| {
                    let x = rows.copy_col[(mul % b) as usize]?;
                    Some(parent.start + ((mul / b) * a + x as u64) * width)
                });
            }
        }
        for k in 1..=self.r {
            let parent = self.segment(Layer::Dec, k - 1);
            let width = self.entry_width(Layer::Dec, k - 1);
            // Block `mul·a + υ` reads column τ of row υ: block `mul·b + τ`
            // of level k - 1.
            copy_blocks(&mut roots, self.segment(Layer::Dec, k), width, |block| {
                let tau = self.dec.copy_col[(block % a) as usize]?;
                Some(parent.start + ((block / a) * b + tau as u64) * width)
            });
        }
        roots
    }
}

/// For each `width`-sized block `j` of the id range `seg` whose `src(j)` is
/// `Some(s)`, copies the roots of `s..s + width` onto the block.
fn copy_blocks(roots: &mut [u32], seg: Range<u64>, width: u64, src: impl Fn(u64) -> Option<u64>) {
    for block in 0..(seg.end - seg.start) / width {
        if let Some(s) = src(block) {
            let (s, dst) = (s as usize, (seg.start + block * width) as usize);
            roots.copy_within(s..s + width as usize, dst);
        }
    }
}

impl CdagView for IndexView {
    fn r(&self) -> u32 {
        self.r
    }
    fn a(&self) -> usize {
        self.a
    }
    fn b(&self) -> usize {
        self.b
    }
    fn n_vertices(&self) -> usize {
        IndexView::n_vertices(self) as usize
    }
    fn try_id(&self, v: VertexRef) -> Option<VertexId> {
        IndexView::id(self, v).map(VertexId)
    }
    fn try_vref(&self, v: VertexId) -> Option<VertexRef> {
        IndexView::vref(self, v.0)
    }
    fn entry_width(&self, layer: Layer, level: u32) -> u64 {
        IndexView::entry_width(self, layer, level)
    }
    fn preds_into(&self, v: VertexId, out: &mut Vec<VertexId>) -> bool {
        let Some(at) = self.locate(v.0) else {
            return false;
        };
        out.extend(self.neighbours(at, PRED).map(VertexId));
        true
    }
    fn succs_into(&self, v: VertexId, out: &mut Vec<VertexId>) -> bool {
        let Some(at) = self.locate(v.0) else {
            return false;
        };
        out.extend(self.neighbours(at, SUCC).map(VertexId));
        true
    }
    fn adj_into(&self, v: VertexId, out: &mut Vec<VertexId>) -> usize {
        let Some(at) = self.locate(v.0) else {
            return 0;
        };
        let before = out.len();
        out.extend(self.neighbours(at, PRED).map(VertexId));
        let n_preds = out.len() - before;
        out.extend(self.neighbours(at, SUCC).map(VertexId));
        n_preds
    }
    fn is_input(&self, v: VertexId) -> bool {
        IndexView::is_input(self, v.0)
    }
    fn is_output(&self, v: VertexId) -> bool {
        IndexView::is_output(self, v.0)
    }
    fn rank_of(&self, v: VertexId) -> Option<u32> {
        let vr = IndexView::vref(self, v.0)?;
        Some(match vr.layer {
            Layer::EncA | Layer::EncB => vr.level,
            Layer::Dec => self.r + 1 + vr.level,
        })
    }
    fn max_indegree(&self) -> usize {
        IndexView::max_indegree(self)
    }
    fn copy_parent(&self, v: VertexId) -> Option<VertexId> {
        self.copy_parent_of(v.0).map(VertexId)
    }
    fn closed_form(&self) -> &IndexView {
        self
    }
}

/// Re-checks the matrix-multiplication tensor identity
/// `Σ_m dec[y][m]·enc_a[m][x]·enc_b[m][z] = T(x, z, y)` directly on raw
/// coefficients (shapes must already be consistent — build an
/// [`IndexView`] first). Returns the first violated triple.
pub fn check_tensor(
    n0: usize,
    enc_a: &Matrix<Rational>,
    enc_b: &Matrix<Rational>,
    dec: &Matrix<Rational>,
) -> Result<(), String> {
    let b = enc_a.rows();
    for i in 0..n0 {
        for k in 0..n0 {
            for k2 in 0..n0 {
                for j in 0..n0 {
                    for i2 in 0..n0 {
                        for j2 in 0..n0 {
                            // audit: safe — each index is below n0² = a, which a built view bounds
                            let (x, z, y) = (i * n0 + k, k2 * n0 + j, i2 * n0 + j2);
                            let got: Rational = (0..b)
                                // audit: safe — indices range over the documented shape precondition
                                .map(|m| dec[(y, m)] * enc_a[(m, x)] * enc_b[(m, z)])
                                .sum();
                            let want = if i == i2 && j == j2 && k == k2 {
                                Rational::ONE
                            } else {
                                Rational::ZERO
                            };
                            if got != want {
                                return Err(format!(
                                    "tensor mismatch at a({i},{k})·b({k2},{j})→c({i2},{j2}): \
                                     got {got}, want {want}"
                                ));
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_cdag;
    use crate::fixtures::classical2;

    fn view_of(g: &BaseGraph, r: u32) -> IndexView {
        IndexView::from_base(g, r)
    }

    /// Predecessors and successors of `v` by the fused fetch, and the
    /// split it returned, appended after a marker the fetch must keep.
    fn fused<V: CdagView>(g: &V, v: VertexId) -> (Vec<VertexId>, usize) {
        let mut out = vec![VertexId(u32::MAX)];
        let n_preds = g.adj_into(v, &mut out);
        assert_eq!(
            out.remove(0),
            VertexId(u32::MAX),
            "adj_into cleared its buffer"
        );
        (out, n_preds)
    }

    /// The view and the block-built `Cdag` against the per-vertex build
    /// (per-vertex predecessor rule, counting-sort successors) on every
    /// vertex, the fused fetch included.
    fn check_against_builder(g: &BaseGraph, r: u32) {
        let view = view_of(g, r);
        let cdag = build_cdag(g, r);
        let oracle = crate::build::build_per_vertex(g, r);
        assert_eq!(view.n_vertices() as usize, Cdag::n_vertices(&oracle));
        let ids = |vs: &[VertexId]| vs.iter().map(|v| v.0).collect::<Vec<u32>>();
        let mut preds = Vec::new();
        let mut succs = Vec::new();
        for v in oracle.vertices() {
            let at = format!("{} in {} at r={r}", v.0, g.name());
            preds.clear();
            succs.clear();
            assert!(view.preds_into(v.0, &mut preds));
            assert!(CdagView::succs_into(&view, v, &mut succs));
            assert_eq!(preds, ids(oracle.preds(v)), "preds of {at}");
            assert_eq!(succs, oracle.succs(v), "succs of {at}");
            let both = [oracle.preds(v), oracle.succs(v)].concat();
            let want = (both, oracle.preds(v).len());
            assert_eq!(fused(&view, v), want, "view adjacency of {at}");
            assert_eq!(fused(&cdag, v), want, "Cdag adjacency of {at}");
            assert_eq!(
                view.is_input(v.0),
                oracle.preds(v).is_empty(),
                "input status of {}",
                v.0
            );
            // Round-trip the structured address.
            let vr = view.vref(v.0).unwrap();
            assert_eq!(view.id(vr), Some(v.0));
        }
        assert_eq!(
            (0..view.n_vertices())
                .filter(|&v| view.is_output(v))
                .count() as u64,
            view.outputs_count()
        );
        let max_in = cdag.vertices().map(|v| cdag.preds(v).len()).max().unwrap();
        assert_eq!(view.max_indegree(), max_in);
        // A copy is a vertex whose one predecessor has coefficient 1.
        for v in oracle.vertices() {
            let copy = oracle.pred_coeffs(v) == [Rational::ONE];
            let want = copy.then(|| oracle.preds(v)[0].0);
            assert_eq!(view.copy_parent_of(v.0), want, "copy parent of {}", v.0);
        }
    }

    #[test]
    fn matches_builder_classical2() {
        let g = classical2();
        check_against_builder(&g, 1);
        check_against_builder(&g, 2);
    }

    #[test]
    fn matches_builder_without_and_with_decoding_copies() {
        use crate::fixtures::{decoding_copy, no_copy};
        for r in 1..=4 {
            check_against_builder(&no_copy(), r);
            check_against_builder(&decoding_copy(), r);
        }
    }

    /// The segment walk tiles `0..n` in dense order, and every id of a
    /// segment has the segment's layer, level, rank and `mul` run width by
    /// the per-vertex rules; also on the 1×1 one-product chain at r = 32.
    #[test]
    fn segment_walk_matches_per_vertex_rules() {
        use crate::fixtures::{decoding_copy, no_copy};
        let one = || Matrix::from_vec(1, 1, vec![Rational::ONE]);
        let unit = BaseGraph::new("unit", 1, one(), one(), one());
        let mut cases: Vec<(BaseGraph, u32)> = [classical2(), no_copy(), decoding_copy()]
            .into_iter()
            .flat_map(|g| (0..=4).map(move |r| (g.clone(), r)))
            .collect();
        cases.push((unit, 32));
        for (g, r) in &cases {
            let view = IndexView::of_base(g, *r).unwrap();
            let mut next = 0;
            for seg in view.segments() {
                assert_eq!(seg.ids.start, next, "{} r={r}", g.name());
                next = seg.ids.end;
                for id in seg.ids.clone() {
                    let vr = view.vref(id).unwrap();
                    let local = u64::from(id - seg.ids.start);
                    assert_eq!((vr.layer, vr.level), (seg.layer, seg.level));
                    assert_eq!((vr.mul, vr.entry), (local / seg.width, local % seg.width));
                    assert_eq!(view.rank_of(VertexId(id)), Some(seg.rank));
                }
            }
            assert_eq!(next, view.n_vertices(), "{} r={r}", g.name());
        }
    }

    #[test]
    fn count_vertices_matches_view() {
        let g = classical2();
        for r in 1..=3 {
            let view = view_of(&g, r);
            assert_eq!(
                count_vertices(g.a() as u64, g.b() as u64, r),
                Some(view.n_vertices() as u64)
            );
        }
    }

    #[test]
    fn rejects_bad_shapes_and_zero_r() {
        let g = classical2();
        assert!(IndexView::new(g.n0(), g.enc(Side::A), g.enc(Side::B), g.dec(), 0).is_err());
        // enc shapes no longer match n0².
        assert!(IndexView::new(3, g.enc(Side::A), g.enc(Side::B), g.dec(), 2).is_err());
    }

    #[test]
    fn oversized_r_is_a_typed_error() {
        let g = classical2();
        let (ea, eb, d) = (g.enc(Side::A), g.enc(Side::B), g.dec());
        let err = IndexView::new(g.n0(), ea, eb, d, 40).err().unwrap();
        assert_eq!(err.to_string(), "segment size overflows u64");
        let err = IndexView::new(g.n0(), ea, eb, d, 12).err().unwrap();
        assert_eq!(
            err.to_string(),
            "G_r has 412266528768 vertices, exceeding u32 ids"
        );
    }

    #[test]
    fn trivial_base_is_refused_past_depth_32() {
        let g = crate::fixtures::no_copy();
        let (ea, eb, d) = (g.enc(Side::A), g.enc(Side::B), g.dec());
        assert_eq!(IndexView::new(1, ea, eb, d, 32).unwrap().n_vertices(), 99);
        let err = IndexView::new(1, ea, eb, d, 33).err().unwrap();
        assert_eq!(
            err.to_string(),
            "a 1×1 base with one product is viewable up to r = 32, not r = 33"
        );
        assert!(IndexView::new(1, ea, eb, d, u32::MAX).is_err());
    }

    #[test]
    fn out_of_range_ids_are_none_not_panics() {
        let g = classical2();
        let view = view_of(&g, 2);
        let n = view.n_vertices();
        assert!(view.vref(n).is_none());
        assert!(view.vref(u32::MAX).is_none());
        let mut preds = Vec::new();
        assert!(!view.preds_into(n, &mut preds));
        assert!(!CdagView::succs_into(&view, VertexId(n), &mut Vec::new()));
        assert!(preds.is_empty());
        let cdag = build_cdag(&g, 2);
        for id in [n, u32::MAX] {
            assert_eq!(fused(&view, VertexId(id)), (Vec::new(), 0));
            assert_eq!(fused(&cdag, VertexId(id)), (Vec::new(), 0));
        }
        assert!(!view.is_edge(n, 0));
        assert!(view.copy_parent_of(n).is_none());
    }

    /// The Fact-1 image of a `G_k` address in copy `prefix`, spelled out
    /// digit by digit: the prefix's `r-k` digits are prepended to the
    /// local multiplication digits, encoding levels shift up by `r-k`.
    fn lifted_by_digits(b: usize, r: u32, k: u32, prefix: u64, vr: VertexRef) -> VertexRef {
        let (level, mul_len) = match vr.layer {
            Layer::EncA | Layer::EncB => (r - k + vr.level, vr.level),
            Layer::Dec => (vr.level, k - vr.level),
        };
        let mut digits = crate::index::unpack(prefix, b, (r - k) as usize);
        digits.extend(crate::index::unpack(vr.mul, b, mul_len as usize));
        VertexRef {
            layer: vr.layer,
            level,
            mul: crate::index::pack(&digits, b),
            entry: vr.entry,
        }
    }

    #[test]
    fn lift_lands_in_subcomputation_copies() {
        let g = classical2();
        let (r, k) = (3u32, 1u32);
        let rv = view_of(&g, r);
        let kv = view_of(&g, k);
        let gr = build_cdag(&g, r);
        let gk = build_cdag(&g, k);
        let subs = checked_pow(g.b() as u64, r - k).unwrap();
        for prefix in [0, 1, subs - 1] {
            for v in gk.vertices() {
                let want = gr.id(lifted_by_digits(g.b(), r, k, prefix, gk.vref(v)));
                let got = rv.lift_from(&kv, prefix, v);
                assert_eq!(got, Some(want), "lift of {} at prefix {prefix}", v.0);
                // The generic lift over the explicit pair agrees.
                assert_eq!(gr.lift_from(&gk, prefix, v), Some(want));
            }
        }
        // Out-of-range prefix must be rejected.
        assert!(rv.lift_from(&kv, subs, VertexId(0)).is_none());
    }

    #[test]
    fn subview_matches_fresh_view() {
        let g = classical2();
        let rv = view_of(&g, 3);
        let sub = rv.subview(2);
        let fresh = view_of(&g, 2);
        assert_eq!(sub.n_vertices(), fresh.n_vertices());
        let mut a = Vec::new();
        let mut b = Vec::new();
        for id in 0..sub.n_vertices() {
            a.clear();
            b.clear();
            sub.preds_into(id, &mut a);
            fresh.preds_into(id, &mut b);
            assert_eq!(a, b, "preds of {id}");
        }
    }

    #[test]
    fn copy_roots_match_materialized_meta_grouping() {
        let g = classical2();
        let r = 2;
        let view = view_of(&g, r);
        let roots = view.copy_roots();
        let cdag = build_cdag(&g, r);
        let meta = crate::MetaVertices::compute(&cdag);
        for v in cdag.vertices() {
            for w in cdag.vertices() {
                let same_meta = meta.meta_of(v) == meta.meta_of(w);
                let same_root = roots[v.idx()] == roots[w.idx()];
                assert_eq!(same_meta, same_root, "grouping of ({}, {})", v.0, w.0);
            }
        }
        // And the trait's default table agrees on both implementations.
        assert_eq!(roots, CdagView::copy_roots_table(&view));
        assert_eq!(roots, CdagView::copy_roots_table(&cdag));
    }

    #[test]
    fn used_inputs_counts_columns_with_successors() {
        let g = classical2();
        let view = view_of(&g, 2);
        let cdag = build_cdag(&g, 2);
        let used = cdag
            .vertices()
            .filter(|&v| cdag.preds(v).is_empty() && !cdag.succs(v).is_empty())
            .count() as u64;
        assert_eq!(view.used_inputs(), used);
    }

    #[test]
    fn tensor_check_accepts_real_and_rejects_corrupt() {
        let g = classical2();
        assert!(check_tensor(g.n0(), g.enc(Side::A), g.enc(Side::B), g.dec()).is_ok());
        let mut dec = g.dec().clone();
        let flipped = if dec[(0, 0)].is_zero() {
            Rational::ONE
        } else {
            Rational::ZERO
        };
        dec[(0, 0)] = flipped;
        assert!(check_tensor(g.n0(), g.enc(Side::A), g.enc(Side::B), &dec).is_err());
    }
}
