//! [`CdagView`]: lazy, closed-form access to `G_r` — the engines' way past
//! the `b^r` materialization wall.
//!
//! `build_cdag` materializes every vertex and edge of `G_r`, which caps all
//! engines at r ≈ 4. But Fact 1 plus the copy isomorphism make the whole
//! graph computable from pure mixed-radix index arithmetic over the base
//! matrices: the segment layout (EncA levels `0..=r`, EncB `0..=r`, Dec
//! `0..=r`), the dense-id ↔ structured-address bijection, predecessors and
//! successors, the copy grouping, and the Fact-1 lift of a `G_k` vertex into
//! any of the `b^{r-k}` copies inside `G_r`.
//!
//! This module defines:
//!
//! - [`CdagView`], the trait the routing, analysis, and pebble engines are
//!   generic over;
//! - [`IndexView`], the implicit implementation: `O(a·b)` memory regardless
//!   of `r`, every query answered by closed-form arithmetic (originally the
//!   certificate verifier's model in `mmio-cert`, promoted here so engines
//!   and verifier share one audited implementation — `mmio-cert::view`
//!   re-exports it, keeping the verifier's trust base unchanged);
//! - [`ExplicitView`], a zero-cost wrapper over a materialized [`Cdag`]
//!   (the `Cdag` itself also implements [`CdagView`] directly).
//!
//! Everything in [`IndexView`] is checked: malformed shapes and id-space
//! overflows surface as `Err`/`None`, never as panics, because certificate
//! input is untrusted.

use crate::base::{BaseGraph, Side};
use crate::graph::{Cdag, Layer, VertexId, VertexRef};
use crate::hits::UnionFind;
use mmio_matrix::{Matrix, Rational};
use std::fmt;

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

/// `base^exp` without panicking on overflow.
pub fn checked_pow(base: u64, exp: u32) -> Option<u64> {
    let mut acc: u64 = 1;
    for _ in 0..exp {
        acc = acc.checked_mul(base)?;
    }
    Some(acc)
}

/// Closed-form vertex count of `G_r` for a base with parameters `(a, b)`:
/// `Σ_t 2·b^t·a^{r-t} + Σ_k b^{r-k}·a^k`. `None` on `u64` overflow — the
/// caller should treat that as "too big for any budget".
pub fn count_vertices(a: u64, b: u64, r: u32) -> Option<u64> {
    let mut total: u64 = 0;
    for t in 0..=r {
        let enc = checked_pow(b, t)?.checked_mul(checked_pow(a, r - t)?)?;
        total = total.checked_add(enc.checked_mul(2)?)?;
        let dec = checked_pow(b, r - t)?.checked_mul(checked_pow(a, t)?)?;
        total = total.checked_add(dec)?;
    }
    Some(total)
}

/// Uniform lazy access to the structure of `G_r`.
///
/// Implemented by the materialized [`Cdag`] (and [`ExplicitView`]) and by
/// the closed-form [`IndexView`]. The contract is exact structural
/// equivalence: for the same base and `r`, every method must return
/// identical results across implementations (property-tested in
/// `mmio-integration`), including the *order* of appended predecessors and
/// successors — engines rely on it for deterministic output.
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

    /// The copy grouping as a flat root table (`roots[v]` = representative
    /// of `v`'s meta-vertex). `O(n_vertices)` memory by nature.
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

    /// The Fact-1 lift: maps vertex `v` of the standalone `G_k` (viewed by
    /// `local`) into the copy of `G_k` inside this `G_r` selected by
    /// multiplication `prefix ∈ [b^{r-k}]`. `None` when the views are
    /// incompatible or anything is out of range.
    fn lift_from<V: CdagView + ?Sized>(
        &self,
        local: &V,
        prefix: u64,
        v: VertexId,
    ) -> Option<VertexId> {
        let (r, k) = (self.r(), local.r());
        if local.a() != self.a() || local.b() != self.b() || k > r {
            return None;
        }
        let copies = checked_pow(self.b() as u64, r - k)?;
        if prefix >= copies {
            return None;
        }
        let vr = local.try_vref(v)?;
        let lifted = match vr.layer {
            // Local encoding level t' sits at global level r-k+t', with the
            // prefix prepended to the t'-digit multiplication index.
            Layer::EncA | Layer::EncB => VertexRef {
                layer: vr.layer,
                level: r - k + vr.level,
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
                    .checked_mul(checked_pow(self.b() as u64, k - vr.level)?)?
                    .checked_add(vr.mul)?,
                entry: vr.entry,
            },
        };
        self.try_id(lifted)
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
        if v.level > Cdag::r(self) {
            return None;
        }
        let width = Cdag::entry_width(self, v.layer, v.level);
        if v.entry >= width {
            return None;
        }
        let local = v.mul.checked_mul(width)?.checked_add(v.entry)?;
        if local >= self.segment_len(v.layer, v.level) {
            return None;
        }
        Some(VertexId(
            (self.segment_start(v.layer, v.level) + local) as u32,
        ))
    }
    fn try_vref(&self, v: VertexId) -> Option<VertexRef> {
        (v.idx() < Cdag::n_vertices(self)).then(|| self.vref(v))
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
    fn is_input(&self, v: VertexId) -> bool {
        Cdag::is_input(self, v)
    }
    fn is_output(&self, v: VertexId) -> bool {
        Cdag::is_output(self, v)
    }
    fn rank_of(&self, v: VertexId) -> Option<u32> {
        (v.idx() < Cdag::n_vertices(self)).then(|| self.rank(v))
    }
    fn max_indegree(&self) -> usize {
        self.vertices()
            .map(|v| self.preds(v).len())
            .max()
            .unwrap_or(0)
    }
    fn copy_parent(&self, v: VertexId) -> Option<VertexId> {
        Cdag::copy_parent(self, v)
    }
}

/// A zero-cost [`CdagView`] borrowing a materialized [`Cdag`]. The `Cdag`
/// itself implements the trait; this wrapper exists for call sites that
/// want to name the explicit implementation symmetrically with
/// [`IndexView`].
#[derive(Clone, Copy)]
pub struct ExplicitView<'a>(pub &'a Cdag);

impl CdagView for ExplicitView<'_> {
    fn r(&self) -> u32 {
        Cdag::r(self.0)
    }
    fn a(&self) -> usize {
        self.0.base().a()
    }
    fn b(&self) -> usize {
        self.0.base().b()
    }
    fn n_vertices(&self) -> usize {
        Cdag::n_vertices(self.0)
    }
    fn try_id(&self, v: VertexRef) -> Option<VertexId> {
        CdagView::try_id(self.0, v)
    }
    fn try_vref(&self, v: VertexId) -> Option<VertexRef> {
        CdagView::try_vref(self.0, v)
    }
    fn entry_width(&self, layer: Layer, level: u32) -> u64 {
        Cdag::entry_width(self.0, layer, level)
    }
    fn preds_into(&self, v: VertexId, out: &mut Vec<VertexId>) -> bool {
        CdagView::preds_into(self.0, v, out)
    }
    fn succs_into(&self, v: VertexId, out: &mut Vec<VertexId>) -> bool {
        CdagView::succs_into(self.0, v, out)
    }
    fn is_input(&self, v: VertexId) -> bool {
        Cdag::is_input(self.0, v)
    }
    fn is_output(&self, v: VertexId) -> bool {
        Cdag::is_output(self.0, v)
    }
    fn rank_of(&self, v: VertexId) -> Option<u32> {
        CdagView::rank_of(self.0, v)
    }
    fn max_indegree(&self) -> usize {
        CdagView::max_indegree(self.0)
    }
    fn copy_parent(&self, v: VertexId) -> Option<VertexId> {
        Cdag::copy_parent(self.0, v)
    }
}

/// Sparsity pattern of one coefficient matrix: per-row nonzero columns
/// (for predecessor queries), per-column nonzero rows (for successor
/// queries), and per-row triviality (exactly one nonzero, equal to 1 —
/// the condition for copy-group membership).
#[derive(Clone)]
struct RowTable {
    cols: Vec<Vec<usize>>,
    rows_of_col: Vec<Vec<usize>>,
    trivial: Vec<bool>,
}

impl RowTable {
    fn new(m: &Matrix<Rational>) -> RowTable {
        let mut cols = Vec::with_capacity(m.rows());
        let mut trivial = Vec::with_capacity(m.rows());
        let mut rows_of_col: Vec<Vec<usize>> = vec![Vec::new(); m.cols()];
        for row in 0..m.rows() {
            // audit: safe — row and c range over m's own dimensions
            let nz: Vec<usize> = (0..m.cols()).filter(|&c| !m[(row, c)].is_zero()).collect();
            for &c in &nz {
                rows_of_col[c].push(row); // audit: safe — c < m.cols(), the table size
            }
            // audit: safe — nz[0] exists when nz.len() == 1; && short-circuits
            trivial.push(nz.len() == 1 && m[(row, nz[0])].is_one());
            cols.push(nz);
        }
        RowTable {
            cols,
            rows_of_col,
            trivial,
        }
    }

    /// Number of columns touched by at least one row.
    fn used_cols(&self) -> u64 {
        self.rows_of_col.iter().filter(|r| !r.is_empty()).count() as u64
    }

    fn max_row_len(&self) -> usize {
        self.cols.iter().map(Vec::len).max().unwrap_or(0)
    }
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
        if n0 < 1 {
            return Err(ViewError::Shape("n0 must be at least 1".into()));
        }
        let a = n0
            .checked_mul(n0)
            .ok_or_else(|| ViewError::Shape("n0² overflows".into()))?;
        let b = enc_a.rows();
        if b < 1 {
            return Err(ViewError::Shape("enc_a must have at least one row".into()));
        }
        if enc_a.cols() != a
            || enc_b.rows() != b
            || enc_b.cols() != a
            || dec.rows() != a
            || dec.cols() != b
        {
            return Err(ViewError::Shape(format!(
                "inconsistent shapes: enc_a {}x{}, enc_b {}x{}, dec {}x{} for n0 = {}",
                enc_a.rows(),
                enc_a.cols(),
                enc_b.rows(),
                enc_b.cols(),
                dec.rows(),
                dec.cols(),
                n0
            )));
        }
        if r == 0 {
            return Err(ViewError::Params(
                "recursion depth r must be at least 1".into(),
            ));
        }
        let (au, bu) = (a as u64, b as u64);
        let mut seg_offsets = Vec::with_capacity(3 * (r as usize + 1) + 1);
        let mut total: u64 = 0;
        seg_offsets.push(0);
        let push_seg = |total: &mut u64, size: Option<u64>| -> Result<u64, ViewError> {
            let size =
                size.ok_or_else(|| ViewError::Params("segment size overflows u64".into()))?;
            *total = total
                .checked_add(size)
                .ok_or_else(|| ViewError::Params("vertex count overflows u64".into()))?;
            Ok(*total)
        };
        for _side in 0..2 {
            for t in 0..=r {
                let size = checked_pow(bu, t).and_then(|p| p.checked_mul(checked_pow(au, r - t)?));
                seg_offsets.push(push_seg(&mut total, size)?);
            }
        }
        for k in 0..=r {
            let size = checked_pow(bu, r - k).and_then(|p| p.checked_mul(checked_pow(au, k)?));
            seg_offsets.push(push_seg(&mut total, size)?);
        }
        if total > u32::MAX as u64 {
            return Err(ViewError::Params(format!(
                "G_r has {total} vertices, exceeding u32 ids"
            )));
        }
        Ok(IndexView {
            r,
            a,
            b,
            seg_offsets,
            enc_a: RowTable::new(enc_a),
            enc_b: RowTable::new(enc_b),
            dec: RowTable::new(dec),
        })
    }

    /// Builds the view of `G_r` for a trusted [`BaseGraph`].
    ///
    /// # Panics
    /// Panics if the graph does not fit dense `u32` ids (`BaseGraph` shapes
    /// are valid by construction, so only `Params` errors remain).
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
    pub fn subview(&self, k: u32) -> IndexView {
        assert!(
            k >= 1 && k <= self.r,
            "subview depth {k} not in 1..={}",
            self.r
        );
        let (au, bu) = (self.a as u64, self.b as u64);
        let mut seg_offsets = Vec::with_capacity(3 * (k as usize + 1) + 1);
        let mut total: u64 = 0;
        seg_offsets.push(0);
        for _side in 0..2 {
            for t in 0..=k {
                // Cannot overflow: every G_k segment divides a G_r segment.
                total += checked_pow(bu, t).unwrap() * checked_pow(au, k - t).unwrap();
                seg_offsets.push(total);
            }
        }
        for j in 0..=k {
            total += checked_pow(bu, k - j).unwrap() * checked_pow(au, j).unwrap();
            seg_offsets.push(total);
        }
        IndexView {
            r: k,
            a: self.a,
            b: self.b,
            seg_offsets,
            enc_a: self.enc_a.clone(),
            enc_b: self.enc_b.clone(),
            dec: self.dec.clone(),
        }
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
        l * (self.r as usize + 1) + level as usize
    }

    /// `a^{entry_len}` — the entry-suffix width of segment `(layer, level)`.
    pub fn entry_width(&self, layer: Layer, level: u32) -> u64 {
        let suffix_len = match layer {
            Layer::EncA | Layer::EncB => self.r - level,
            Layer::Dec => level,
        };
        // audit: safe — cannot overflow: bounded by a segment size already checked in new()
        checked_pow(self.a as u64, suffix_len).unwrap()
    }

    /// The dense id of a structured address, or `None` if out of range.
    pub fn id(&self, v: VertexRef) -> Option<u32> {
        if v.level > self.r {
            return None;
        }
        let si = self.seg_index(v.layer, v.level);
        let width = self.entry_width(v.layer, v.level);
        // audit: safe — si = seg_index(..) < 3(r+1); the table has 3(r+1)+1 offsets
        let seg_size = self.seg_offsets[si + 1] - self.seg_offsets[si];
        if v.entry >= width {
            return None;
        }
        let local = v.mul.checked_mul(width)?.checked_add(v.entry)?;
        if local >= seg_size {
            return None;
        }
        Some((self.seg_offsets[si] + local) as u32) // audit: safe — si bounded as above
    }

    /// The structured address of a dense id, or `None` if out of range.
    pub fn vref(&self, id: u32) -> Option<VertexRef> {
        let id = id as u64;
        // audit: safe — offsets never empty
        if id >= *self.seg_offsets.last().unwrap() {
            return None;
        }
        // 3(r+1) segments: a linear scan is fine at certificate scales.
        // audit: safe — seg_offsets[0] = 0 ≤ id, so some position matches
        let si = self.seg_offsets.iter().rposition(|&off| off <= id).unwrap();
        let levels = self.r as usize + 1;
        let (layer, level) = match si / levels {
            0 => (Layer::EncA, si % levels),
            1 => (Layer::EncB, si % levels),
            _ => (Layer::Dec, si % levels),
        };
        let width = self.entry_width(layer, level as u32);
        let local = id - self.seg_offsets[si]; // audit: safe — si is from rposition over this table
        Some(VertexRef {
            layer,
            level: level as u32,
            mul: local / width,
            entry: local % width,
        })
    }

    fn enc_rows(&self, layer: Layer) -> &RowTable {
        match layer {
            Layer::EncA => &self.enc_a,
            Layer::EncB => &self.enc_b,
            // audit: safe — callers match on the encoding layers before calling
            Layer::Dec => unreachable!("enc_rows is only called for encoding layers"),
        }
    }

    /// Predecessors of a structured address, pushed in dense-id order.
    fn preds_of(&self, v: VertexRef, push: &mut dyn FnMut(u32)) {
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
                // audit: safe — tau = mul % b < b, the encoding matrices' row count
                for &x in &self.enc_rows(v.layer).cols[tau] {
                    let e_parent = (x as u64) * width + v.entry;
                    push(
                        self.id(VertexRef {
                            layer: v.layer,
                            level: v.level - 1,
                            mul: m_parent,
                            entry: e_parent,
                        })
                        // audit: safe — parent address is derived from a valid child address
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
                            // audit: safe — (level r, mul, entry 0) exists for every product vertex
                            .expect("rank-r encoding address is in range"),
                        );
                    }
                } else {
                    let width = self.entry_width(Layer::Dec, v.level - 1);
                    let upsilon = (v.entry / width) as usize;
                    let e_rest = v.entry % width;
                    // audit: safe — upsilon = entry / width < a, the dec row count
                    for &tau in &self.dec.cols[upsilon] {
                        let m_parent = v.mul * self.b as u64 + tau as u64;
                        push(
                            self.id(VertexRef {
                                layer: Layer::Dec,
                                level: v.level - 1,
                                mul: m_parent,
                                entry: e_rest,
                            })
                            // audit: safe — parent address is derived from a valid child address
                            .expect("derived parent address is in range"),
                        );
                    }
                }
            }
        }
    }

    /// Successors of a structured address, pushed in dense-id order —
    /// the inverse of [`IndexView::preds_of`] through the column→row
    /// transposes. Matches the builder's successor CSR exactly: within one
    /// target segment, ascending `τ`/`υ` means ascending dense id.
    fn succs_of(&self, v: VertexRef, push: &mut dyn FnMut(u32)) {
        match v.layer {
            Layer::EncA | Layer::EncB => {
                if v.level == self.r {
                    // Rank-r combination feeds exactly its product vertex.
                    push(
                        self.id(VertexRef {
                            layer: Layer::Dec,
                            level: 0,
                            mul: v.mul,
                            entry: 0,
                        })
                        .expect("product address is in range"),
                    );
                    return;
                }
                // Child at level t+1 consumes this vertex as encoded column
                // x (the entry's most-significant digit) of every row τ
                // whose encoding touches x.
                let width = self.entry_width(v.layer, v.level + 1);
                let x = (v.entry / width) as usize;
                let e_rest = v.entry % width;
                for &tau in &self.enc_rows(v.layer).rows_of_col[x] {
                    push(
                        self.id(VertexRef {
                            layer: v.layer,
                            level: v.level + 1,
                            mul: v.mul * self.b as u64 + tau as u64,
                            entry: e_rest,
                        })
                        .expect("derived child address is in range"),
                    );
                }
            }
            Layer::Dec => {
                if v.level == self.r {
                    return; // outputs have no successors
                }
                // Child at level k+1 drops the mul's least-significant digit
                // τ and gains decode row υ as the entry's most-significant
                // digit, for every υ whose decode row reads column τ.
                let tau = (v.mul % self.b as u64) as usize;
                let m_child = v.mul / self.b as u64;
                let width = self.entry_width(Layer::Dec, v.level);
                for &upsilon in &self.dec.rows_of_col[tau] {
                    push(
                        self.id(VertexRef {
                            layer: Layer::Dec,
                            level: v.level + 1,
                            mul: m_child,
                            entry: (upsilon as u64) * width + v.entry,
                        })
                        .expect("derived child address is in range"),
                    );
                }
            }
        }
    }

    /// Appends the predecessors of `id` (dense ids) to `out`. Returns
    /// `false` if `id` is out of range. Encoding level-0 vertices (the
    /// inputs) have no predecessors.
    pub fn preds_into(&self, id: u32, out: &mut Vec<u32>) -> bool {
        let Some(v) = self.vref(id) else {
            return false;
        };
        self.preds_of(v, &mut |p| out.push(p));
        true
    }

    /// Appends the successors of `id` (dense ids) to `out`. Returns `false`
    /// if `id` is out of range. Outputs have no successors.
    pub fn succs_into(&self, id: u32, out: &mut Vec<u32>) -> bool {
        let Some(v) = self.vref(id) else {
            return false;
        };
        self.succs_of(v, &mut |s| out.push(s));
        true
    }

    /// Whether `(u, v)` is an edge of `G_r` in either direction.
    /// Allocation-free: walks the predecessors with a comparing closure.
    pub fn is_edge(&self, u: u32, v: u32) -> bool {
        let has_pred = |id: u32, p: u32| {
            self.vref(id).is_some_and(|vr| {
                let mut found = false;
                self.preds_of(vr, &mut |q| found |= q == p);
                found
            })
        };
        has_pred(v, u) || has_pred(u, v)
    }

    /// Whether `id` is an input (encoding level 0 of either side).
    pub fn is_input(&self, id: u32) -> bool {
        let id = id as u64;
        let enc_b0 = self.seg_index(Layer::EncB, 0);
        let a_side = self.seg_offsets[1]; // audit: safe — the table always has ≥ 2 entries
                                          // audit: safe — enc_b0 + 1 ≤ 3(r+1), within the 3(r+1)+1 offsets
        let (lo, hi) = (self.seg_offsets[enc_b0], self.seg_offsets[enc_b0 + 1]);
        id < a_side || (lo..hi).contains(&id)
    }

    /// Whether `id` is an output (decoding level `r`).
    pub fn is_output(&self, id: u32) -> bool {
        let last = self.seg_offsets.len() - 2;
        // audit: safe — last + 1 is the final index of the offsets table
        (self.seg_offsets[last]..self.seg_offsets[last + 1]).contains(&(id as u64))
    }

    /// Number of inputs, `2a^r`.
    pub fn inputs_count(&self) -> u64 {
        2 * self.entry_width(Layer::EncA, 0)
    }

    /// Dense ordinal of an input among all `2a^r` inputs (`A` side first),
    /// or `None` if `id` is not an input.
    pub fn input_ord(&self, id: u32) -> Option<u64> {
        let idu = id as u64;
        let a_r = self.seg_offsets[1]; // audit: safe — the table always has ≥ 2 entries
        if idu < a_r {
            return Some(idu);
        }
        let enc_b0 = self.seg_index(Layer::EncB, 0);
        // audit: safe — enc_b0 + 1 ≤ 3(r+1), within the 3(r+1)+1 offsets
        let (lo, hi) = (self.seg_offsets[enc_b0], self.seg_offsets[enc_b0 + 1]);
        (lo..hi).contains(&idu).then(|| a_r + (idu - lo))
    }

    /// Dense ordinal of an output among the `a^r` outputs, or `None` if
    /// `id` is not an output.
    pub fn output_ord(&self, id: u32) -> Option<u64> {
        let last = self.seg_offsets.len() - 2;
        // audit: safe — last + 1 is the final index of the offsets table
        let (lo, hi) = (self.seg_offsets[last], self.seg_offsets[last + 1]);
        (lo..hi).contains(&(id as u64)).then(|| id as u64 - lo)
    }

    /// Number of outputs, `a^r`.
    pub fn outputs_count(&self) -> u64 {
        self.entry_width(Layer::Dec, self.r)
    }

    /// Inputs with at least one successor: `(used columns of enc) · a^{r-1}`
    /// per side. Every such input must be loaded by any complete schedule.
    pub fn used_inputs(&self) -> u64 {
        let per_entry = self.entry_width(Layer::EncA, 1);
        (self.enc_a.used_cols() + self.enc_b.used_cols()) * per_entry
    }

    /// Maximum in-degree over `G_r` (products always have 2; combination
    /// vertices have their row's nonzero count).
    pub fn max_indegree(&self) -> usize {
        [
            2,
            self.enc_a.max_row_len(),
            self.enc_b.max_row_len(),
            self.dec.max_row_len(),
        ]
        .into_iter()
        .max()
        .unwrap() // audit: safe — max of a nonempty array literal
    }

    /// If `id` is a copy (its generating row is trivial), its single
    /// predecessor; `None` otherwise (including out of range).
    pub fn copy_parent_of(&self, id: u32) -> Option<u32> {
        let v = self.vref(id)?;
        let trivial = match v.layer {
            Layer::EncA | Layer::EncB => {
                // audit: safe — mul % b < b, the per-row triviality table size
                v.level > 0 && self.enc_rows(v.layer).trivial[(v.mul % self.b as u64) as usize]
            }
            Layer::Dec => {
                v.level > 0 && {
                    let width = self.entry_width(Layer::Dec, v.level - 1);
                    // audit: safe — entry / width < a, the dec row count
                    self.dec.trivial[(v.entry / width) as usize]
                }
            }
        };
        if !trivial {
            return None;
        }
        let mut parent = None;
        self.preds_of(v, &mut |p| {
            debug_assert!(parent.is_none(), "a trivial row has exactly one nonzero");
            parent = Some(p);
        });
        parent
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

    /// The Fact-1 lift: maps vertex `v_local` of the standalone `G_k`
    /// (viewed by `local`) into the copy of `G_k` inside this `G_r`
    /// selected by multiplication `prefix ∈ [b^{r-k}]`. Returns `None` when
    /// the views are incompatible or anything is out of range.
    pub fn lift(&self, local: &IndexView, prefix: u64, v_local: u32) -> Option<u32> {
        self.lift_from(local, prefix, VertexId(v_local))
            .map(|v| v.0)
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
        let Some(vr) = IndexView::vref(self, v.0) else {
            return false;
        };
        self.preds_of(vr, &mut |p| out.push(VertexId(p)));
        true
    }
    fn succs_into(&self, v: VertexId, out: &mut Vec<VertexId>) -> bool {
        let Some(vr) = IndexView::vref(self, v.0) else {
            return false;
        };
        self.succs_of(vr, &mut |s| out.push(VertexId(s)));
        true
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
                            let x = i * n0 + k;
                            let z = k2 * n0 + j;
                            let y = i2 * n0 + j2;
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

    fn view_of(g: &BaseGraph, r: u32) -> IndexView {
        IndexView::from_base(g, r)
    }

    fn check_against_builder(g: &BaseGraph, r: u32) {
        let view = view_of(g, r);
        let cdag = build_cdag(g, r);
        assert_eq!(view.n_vertices() as usize, Cdag::n_vertices(&cdag));
        let mut preds = Vec::new();
        let mut succs = Vec::new();
        for v in cdag.vertices() {
            preds.clear();
            succs.clear();
            assert!(view.preds_into(v.0, &mut preds));
            assert!(view.succs_into(v.0, &mut succs));
            let want: Vec<u32> = cdag.preds(v).iter().map(|p| p.0).collect();
            assert_eq!(preds, want, "preds of {} in {} at r={r}", v.0, g.name());
            let want_s: Vec<u32> = cdag.succs(v).iter().map(|s| s.0).collect();
            assert_eq!(succs, want_s, "succs of {} in {} at r={r}", v.0, g.name());
            assert_eq!(
                view.is_input(v.0),
                cdag.preds(v).is_empty(),
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
        // The Cdag's own trait impl agrees with the closed form.
        let mut tp = Vec::new();
        for v in cdag.vertices() {
            tp.clear();
            assert!(CdagView::succs_into(&cdag, v, &mut tp));
            let got: Vec<u32> = tp.iter().map(|s| s.0).collect();
            succs.clear();
            view.succs_into(v.0, &mut succs);
            assert_eq!(got, succs);
            assert_eq!(
                CdagView::copy_parent(&cdag, v).map(|p| p.0),
                view.copy_parent_of(v.0),
                "copy parent of {}",
                v.0
            );
        }
    }

    fn tiny_base(name: &str) -> BaseGraph {
        // classical 2×2: every row trivial, dense copy structure.
        let n0 = 2;
        let mut enc_a = Matrix::zeros(8, 4);
        let mut enc_b = Matrix::zeros(8, 4);
        let mut dec = Matrix::zeros(4, 8);
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
        BaseGraph::new(name, n0, enc_a, enc_b, dec)
    }

    #[test]
    fn matches_builder_classical2() {
        let g = tiny_base("classical2");
        check_against_builder(&g, 1);
        check_against_builder(&g, 2);
    }

    #[test]
    fn count_vertices_matches_view() {
        let g = tiny_base("classical2");
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
        let g = tiny_base("classical2");
        assert!(IndexView::new(g.n0(), g.enc(Side::A), g.enc(Side::B), g.dec(), 0).is_err());
        // enc shapes no longer match n0².
        assert!(IndexView::new(3, g.enc(Side::A), g.enc(Side::B), g.dec(), 2).is_err());
    }

    #[test]
    fn out_of_range_ids_are_none_not_panics() {
        let g = tiny_base("classical2");
        let view = view_of(&g, 2);
        let n = view.n_vertices();
        assert!(view.vref(n).is_none());
        assert!(view.vref(u32::MAX).is_none());
        let mut preds = Vec::new();
        assert!(!view.preds_into(n, &mut preds));
        assert!(!view.succs_into(n, &mut preds));
        assert!(!view.is_edge(n, 0));
        assert!(view.copy_parent_of(n).is_none());
    }

    #[test]
    fn lift_lands_in_subcomputation_copies() {
        // Cross-check the closed-form lift against crate::fact1.
        let g = tiny_base("classical2");
        let (r, k) = (3u32, 1u32);
        let rv = view_of(&g, r);
        let kv = view_of(&g, k);
        let gr = build_cdag(&g, r);
        let gk = build_cdag(&g, k);
        let subs = crate::fact1::Subcomputation::count(&gr, k);
        assert_eq!(subs, checked_pow(g.b() as u64, r - k).unwrap());
        for prefix in [0, 1, subs - 1] {
            let sub = crate::fact1::Subcomputation::new(&gr, k, prefix);
            for v in gk.vertices() {
                let want = sub.local_to_global(gk.vref(v));
                let got = rv.lift(&kv, prefix, v.0);
                assert_eq!(got, Some(want.0), "lift of {} at prefix {prefix}", v.0);
                // The generic lift over the explicit pair agrees.
                assert_eq!(gr.lift_from(&gk, prefix, v), Some(want));
            }
        }
        // Out-of-range prefix must be rejected.
        assert!(rv.lift(&kv, subs, 0).is_none());
    }

    #[test]
    fn subview_matches_fresh_view() {
        let g = tiny_base("classical2");
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
        let g = tiny_base("classical2");
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
        let g = tiny_base("classical2");
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
        let g = tiny_base("classical2");
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
