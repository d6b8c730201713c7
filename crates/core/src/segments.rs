//! The segment argument (Sections 5 and 6): partition any computation
//! order into segments with enough *counted* vertices, show each segment
//! has a large meta-boundary, and convert boundary size into an I/O
//! certificate.
//!
//! Counted vertices (the set `S̄`) are those on decoding rank `k` and
//! encoding rank `r-k` (both sides) lying in the chosen mutually
//! input-disjoint subcomputations. The paper chooses `k` as the smallest
//! integer with `a^k ≥ 72M` and segments with `|S̄| = 36M`, then proves
//! `|δ'(S')| ≥ |S̄|/12 ≥ 3M`, of which at most `2M` can be free (already in
//! cache / allowed to stay), so each complete segment costs at least `M`
//! I/Os.

use mmio_cdag::meta::MetaId;
use mmio_cdag::{index, Cdag, CdagView, Layer, MetaClosure, MetaVertices, VertexId, VertexRef};
use mmio_parallel::Pool;
use serde::Serialize;
use std::sync::{Mutex, PoisonError};

/// The paper's choice of subcomputation depth for cache size `m`
/// (Section 6): smallest `k` with `a^k ≥ multiplier·m`, clamped into
/// `[1, r-2]` (the clamp is reported so callers can tell when `m` was too
/// large for this `r` and the asymptotic regime is not yet reached).
///
/// The paper uses `multiplier = 72` and notes it "did not optimize for the
/// constant factor"; smaller multipliers give certificates at smaller
/// scales (experiment E8c sweeps this).
pub fn choose_k<V: CdagView>(g: &V, m: u64, multiplier: u64) -> (u32, bool) {
    // Saturating: a target past `u64::MAX` is reached only by a saturated
    // power, whose `k` is far beyond `r - 2`, so it reports infeasible.
    let target = multiplier.saturating_mul(m);
    let a = g.a() as u64;
    let mut k = 1u32;
    while a.saturating_pow(k) < target && k < 63 {
        k += 1;
    }
    if g.r() >= 3 && k <= g.r() - 2 {
        (k, true)
    } else {
        (1.min(g.r()), false)
    }
}

/// Membership mask of the counted ranks: encoding rank `r-k` (both sides)
/// and decoding rank `k`, restricted to subcomputations in `chosen`.
///
/// The counted vertices of subcomputation `i` are written in closed form
/// (the Fact-1 copy's `2a^k` inputs on encoding rank `r-k` and `a^k`
/// outputs on decoding rank `k`, `mul = i`), so this works over any
/// [`CdagView`] without materializing the graph.
pub fn counted_mask<V: CdagView>(g: &V, k: u32, chosen: &[u64]) -> Vec<bool> {
    let mut mask = vec![false; g.n_vertices()];
    let ak = index::pow(g.a(), k);
    let r = g.r();
    for &prefix in chosen {
        for layer in [Layer::EncA, Layer::EncB] {
            for entry in 0..ak {
                let v = g
                    .try_id(VertexRef {
                        layer,
                        level: r - k,
                        mul: prefix,
                        entry,
                    })
                    .expect("subcomputation input in range");
                mask[v.idx()] = true;
            }
        }
        for entry in 0..ak {
            let v = g
                .try_id(VertexRef {
                    layer: Layer::Dec,
                    level: k,
                    mul: prefix,
                    entry,
                })
                .expect("subcomputation output in range");
            mask[v.idx()] = true;
        }
    }
    mask
}

/// One segment's report.
#[derive(Clone, Debug, Serialize)]
pub struct SegmentReport {
    /// Segment bounds as indices into the compute order (`start..end`).
    pub start: usize,
    /// Exclusive end index.
    pub end: usize,
    /// `|S̄|`: counted vertices computed in this segment.
    pub counted: u64,
    /// `|δ'(S')|`: meta-vertices adjacent to the segment's meta-closure
    /// (the paper's Equation 2 quantity).
    pub meta_boundary: u64,
    /// `|R'(S')|`: meta-vertices outside the closure feeding it — each must
    /// be in cache during the segment (≤ M free, the rest loaded).
    pub read_metas: u64,
    /// `|W°(S')|`: meta-vertices *created* in this segment (root computed
    /// here) and needed after it — each must survive the segment (≤ M may
    /// stay cached, the rest stored). Disjoint across segments, so the
    /// per-segment charges sum soundly.
    pub write_metas: u64,
    /// Whether the segment is complete (reached the threshold).
    pub complete: bool,
}

/// Whole-run segment analysis.
#[derive(Clone, Debug, Serialize)]
pub struct SegmentAnalysis {
    /// Depth `k` used for counting.
    pub k: u32,
    /// Cache size the analysis certifies against.
    pub m: u64,
    /// Segment threshold `|S̄| ≥ 36M` (or caller-chosen).
    pub threshold: u64,
    /// Per-segment reports.
    pub segments: Vec<SegmentReport>,
    /// Number of complete segments.
    pub complete_segments: u64,
    /// The certified I/O lower bound
    /// `Σ_segments max(0, |R'| − M) + max(0, |W°| − M)`.
    pub certified_io: u64,
}

/// One segment of the order: `start..end`, its counted-vertex count, and
/// whether it reached the threshold.
type Bounds = (usize, usize, u64, bool);

/// Position sentinel for vertices the order never computes (the inputs).
const NOT_COMPUTED: u32 = u32::MAX;

/// Finds the segment boundaries: a serial scan of the order, since the
/// running counted-vertex counter is inherently sequential. A vertex
/// counts every not-yet-counted counted-rank member of its meta-vertex.
fn segment_bounds(
    meta: &MetaVertices,
    order: &[VertexId],
    counted: &[bool],
    threshold: u64,
) -> Vec<Bounds> {
    let mut bounds = Vec::new();
    let mut start = 0usize;
    let mut counted_in_segment = 0u64;
    let mut counted_seen = vec![false; counted.len()];
    for (i, &v) in order.iter().enumerate() {
        for &w in meta.members(v) {
            if counted[w.idx()] && !counted_seen[w.idx()] {
                counted_seen[w.idx()] = true;
                counted_in_segment += 1;
            }
        }
        if counted_in_segment >= threshold {
            bounds.push((start, i + 1, counted_in_segment, true));
            start = i + 1;
            counted_in_segment = 0;
        }
    }
    if start < order.len() {
        bounds.push((start, order.len(), counted_in_segment, false));
    }
    bounds
}

/// Each vertex's position in `order`, [`NOT_COMPUTED`] for the rest.
fn positions(n: usize, order: &[VertexId]) -> Vec<u32> {
    let mut pos = vec![NOT_COMPUTED; n];
    for (i, &v) in order.iter().enumerate() {
        pos[v.idx()] = u32::try_from(i).expect("order fits the u32 id space");
    }
    pos
}

/// Flag of an outside meta-vertex adjacent to the closure (`δ'`).
const BOUNDARY: u32 = 1;
/// Flag of an outside meta-vertex feeding a vertex computed in the
/// segment (`R'`).
const READ: u32 = 2;

/// Scratch for [`segment_report`], reused across the segments of a chunk:
/// the segment's sparse meta-closure and an adjacency buffer.
struct Scratch {
    closure: MetaClosure,
    adj: Vec<VertexId>,
}

impl Scratch {
    fn new(closure: MetaClosure) -> Scratch {
        Scratch {
            closure,
            adj: Vec::new(),
        }
    }
}

/// One segment's boundary and I/O quantities, in one walk over its
/// meta-closure: each member's predecessors and successors are fetched
/// once, by one [`CdagView::adj_into`], and all three counts are read off
/// that fetch. Distinct outside meta-vertices are counted by flags the
/// closure stamps on their roots ([`BOUNDARY`], [`READ`]). `pos` maps
/// every vertex to its position in `order` ([`NOT_COMPUTED`] for inputs).
fn segment_report<V: CdagView>(
    g: &V,
    meta: &MetaVertices,
    pos: &[u32],
    order: &[VertexId],
    (start, end, counted_n, complete): Bounds,
    scratch: &mut Scratch,
) -> SegmentReport {
    let Scratch { closure, adj } = scratch;
    closure.reset();
    for &v in &order[start..end] {
        closure.insert(meta, v);
    }
    let in_segment = |v: VertexId| {
        let p = pos[v.idx()];
        p != NOT_COMPUTED && (start..end).contains(&(p as usize))
    };
    let later = |s: &VertexId| {
        let p = pos[s.idx()];
        p != NOT_COMPUTED && p as usize >= end
    };
    let (mut boundary, mut read_metas, mut write_metas) = (0u64, 0u64, 0u64);
    // W°(S'): metas whose root is computed in this segment and that are
    // used after it (some member has a successor computed at position
    // ≥ end) or contain an output (which must eventually be stored). A
    // meta enters the closure whole, root first, so its members are one
    // block and the test is decided once per block.
    let (mut created, mut needed_later) = (false, false);
    for i in 0..closure.members().len() {
        let w = closure.members()[i];
        let computed_here = in_segment(w);
        if meta.meta_of(w) == MetaId(w.0) {
            write_metas += u64::from(created && needed_later);
            (created, needed_later) = (computed_here, false);
        }
        adj.clear();
        let n_preds = g.adj_into(w, adj);
        // R'(S'): outside metas feeding vertices *computed in this
        // segment*. (Not the whole closure: a closure member computed in
        // an earlier segment needed its operands then, not now — charging
        // them again here would double-count loads and break soundness.)
        let pred_flags = if computed_here {
            BOUNDARY | READ
        } else {
            BOUNDARY
        };
        for (j, &x) in adj.iter().enumerate() {
            if closure.includes(x) {
                continue;
            }
            // δ'(S'): outside metas adjacent in either direction
            // (Equation 2).
            let gained = closure.flag(
                meta.meta_of(x),
                if j < n_preds { pred_flags } else { BOUNDARY },
            );
            boundary += u64::from(gained & BOUNDARY != 0);
            read_metas += u64::from(gained & READ != 0);
        }
        if created && !needed_later {
            needed_later = g.is_output(w) || adj[n_preds..].iter().any(later);
        }
    }
    write_metas += u64::from(created && needed_later);
    SegmentReport {
        start,
        end,
        counted: counted_n,
        meta_boundary: boundary,
        read_metas,
        write_metas,
        complete,
    }
}

/// Partitions `order` into minimal segments each containing `threshold`
/// counted vertices (meta-closure included in `S`), computes `δ'(S')`,
/// `R'(S')`, and `W°(S')` per segment over `pool`, and accumulates the
/// I/O certificate.
///
/// The certificate charges, per segment: every meta-vertex read from
/// outside the closure beyond the `M` that may already sit in cache (one
/// load each), and every meta-vertex created in the segment and needed
/// later beyond the `M` that may remain in cache (one store each —
/// creation segments are unique per meta, so the charges are disjoint
/// I/O events).
///
/// Two phases: the segment *boundaries* come from a serial scan of the
/// order, and then each segment's report — sparse meta-closure, `δ'(S')`,
/// `R'(S')`, `W°(S')`, the expensive part — is computed independently.
/// Segments are split into a few contiguous chunks per worker. One
/// `Scratch` (a `|V|`-sized stamp array) per worker is allocated up front
/// and handed from chunk to chunk, so the pass is `O(|V| + Σ closure
/// sizes)` per worker rather than `O(segments · |V|)`. [`Pool::map`]
/// returns chunks in order, so the analysis is byte-identical to the
/// serial path at any thread count.
#[allow(clippy::too_many_arguments)]
pub fn analyze_with<V: CdagView + Sync>(
    g: &V,
    meta: &MetaVertices,
    order: &[VertexId],
    counted: &[bool],
    m: u64,
    threshold: u64,
    k: u32,
    pool: &Pool,
) -> SegmentAnalysis {
    let n = g.n_vertices();
    let pos = positions(n, order);
    let bounds = segment_bounds(meta, order, counted, threshold);
    let chunks = (pool.threads() * 4).min(bounds.len()).max(1);
    // One scratch per worker, allocated here and passed from chunk to
    // chunk: a closure's result does not depend on its stamp generation.
    let new_scratch = || Scratch::new(MetaClosure::new(n));
    let spare = Mutex::new(Vec::from_iter(
        (0..pool.threads().min(chunks)).map(|_| new_scratch()),
    ));
    let per_chunk: Vec<Vec<SegmentReport>> = pool.map(chunks, |c| {
        let (lo, hi) = (bounds.len() * c / chunks, bounds.len() * (c + 1) / chunks);
        let taken = spare.lock().unwrap_or_else(PoisonError::into_inner).pop();
        let mut scratch = taken.unwrap_or_else(new_scratch);
        let reports = bounds[lo..hi]
            .iter()
            .map(|&b| segment_report(g, meta, &pos, order, b, &mut scratch))
            .collect();
        spare
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(scratch);
        reports
    });
    let segments: Vec<SegmentReport> = per_chunk.into_iter().flatten().collect();

    let complete_segments = segments.iter().filter(|s| s.complete).count() as u64;
    let certified_io = segments
        .iter()
        .map(|s| s.read_metas.saturating_sub(m) + s.write_metas.saturating_sub(m))
        .sum();
    SegmentAnalysis {
        k,
        m,
        threshold,
        segments,
        complete_segments,
        certified_io,
    }
}

/// Convenience: the number of counted-rank vertices available in total
/// (`3·a^k·b^{r-k}` before restriction, less after).
pub fn counted_total(counted: &[bool]) -> u64 {
    counted.iter().filter(|&&c| c).count() as u64
}

/// The Section 5 variant of the argument, exactly as stated for Strassen:
/// count only decoding-rank-`k` vertices (no subcomputation restriction
/// needed — the decoding graph has no copying, Lemma 2), segment at
/// `|S̄| = threshold`, and lower-bound the *vertex-level* boundary
/// `|δ(S)| ≥ |S̄|/22` per complete segment (Equation 1 with the paper's
/// constants; the 1/22 comes from the `11·7^k` routing).
///
/// Returns per-segment `(counted, |δ(S)|)` pairs for complete segments.
pub fn analyze_section5(g: &Cdag, order: &[VertexId], k: u32, threshold: u64) -> Vec<(u64, u64)> {
    // Counted mask: decoding rank k.
    let mut counted = vec![false; g.n_vertices()];
    for v in g.segment(Layer::Dec, k) {
        counted[v.idx()] = true;
    }
    let mut out = Vec::new();
    let mut segment: Vec<VertexId> = Vec::new();
    let mut counted_in_segment = 0u64;
    for &v in order {
        segment.push(v);
        if counted[v.idx()] {
            counted_in_segment += 1;
        }
        if counted_in_segment >= threshold {
            let mask = crate::boundary::mask_of(g, &segment);
            let delta = crate::boundary::boundary_size(g, &mask) as u64;
            out.push((counted_in_segment, delta));
            segment.clear();
            counted_in_segment = 0;
        }
    }
    out
}

/// Section 5's choice of `k` for Strassen-like graphs: smallest `k` with
/// `a^k ≥ multiplier·m` (the paper uses 132 = 2·66).
pub fn choose_k_section5(g: &Cdag, m: u64, multiplier: u64) -> u32 {
    let target = multiplier.saturating_mul(m);
    let a = g.base().a() as u64;
    let mut k = 1u32;
    while a.saturating_pow(k) < target && k < g.r() {
        k += 1;
    }
    k.min(g.r())
}

/// Sanity helper: all counted vertices must lie on the three counted ranks.
pub fn counted_ranks_only<V: CdagView>(g: &V, k: u32, counted: &[bool]) -> bool {
    (0..g.n_vertices() as u32).all(|i| {
        if !counted[i as usize] {
            return true;
        }
        let vr: VertexRef = g.try_vref(VertexId(i)).expect("id in range");
        match vr.layer {
            Layer::EncA | Layer::EncB => vr.level == g.r() - k,
            Layer::Dec => vr.level == k,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lemma1::select_input_disjoint;
    use crate::theorem1::{certify_with, CertifyParams};
    use mmio_algos::classical::classical;
    use mmio_algos::strassen::{strassen, winograd};
    use mmio_algos::synthetic::with_duplicated_combination;
    use mmio_cdag::build::build_cdag;
    use mmio_cdag::IndexView;
    use mmio_pebble::orders;
    use std::collections::HashSet;

    /// The dense segment pass the sparse one replaced, kept as its named
    /// oracle: per segment, a `|V|`-sized closure mask, a `δ'` scan over
    /// all of `V`, and a `HashSet` for each of `δ'`, `R'` and `W°`.
    fn dense_analyze<V: CdagView>(
        g: &V,
        meta: &MetaVertices,
        order: &[VertexId],
        counted: &[bool],
        m: u64,
        threshold: u64,
        k: u32,
    ) -> SegmentAnalysis {
        let n = g.n_vertices();
        let mut pos = vec![u64::MAX; n];
        for (i, &v) in order.iter().enumerate() {
            pos[v.idx()] = i as u64;
        }
        let mut bounds: Vec<Bounds> = Vec::new();
        let mut start = 0usize;
        let mut counted_in_segment = 0u64;
        let mut counted_seen = vec![false; n];
        for (i, &v) in order.iter().enumerate() {
            for &w in meta.members(v) {
                if counted[w.idx()] && !counted_seen[w.idx()] {
                    counted_seen[w.idx()] = true;
                    counted_in_segment += 1;
                }
            }
            if counted_in_segment >= threshold {
                bounds.push((start, i + 1, counted_in_segment, true));
                start = i + 1;
                counted_in_segment = 0;
            }
        }
        if start < order.len() {
            bounds.push((start, order.len(), counted_in_segment, false));
        }
        let segments: Vec<SegmentReport> = bounds
            .iter()
            .map(|&b| dense_segment_report(g, meta, &pos, &order[b.0..b.1], b))
            .collect();
        let complete_segments = segments.iter().filter(|s| s.complete).count() as u64;
        let certified_io = segments
            .iter()
            .map(|s| s.read_metas.saturating_sub(m) + s.write_metas.saturating_sub(m))
            .sum();
        SegmentAnalysis {
            k,
            m,
            threshold,
            segments,
            complete_segments,
            certified_io,
        }
    }

    fn dense_segment_report<V: CdagView>(
        g: &V,
        meta: &MetaVertices,
        pos: &[u64],
        vs: &[VertexId],
        (start, end, counted_n, complete): Bounds,
    ) -> SegmentReport {
        let mut in_closure = vec![false; g.n_vertices()];
        for &v in vs {
            for &w in meta.members(v) {
                in_closure[w.idx()] = true;
            }
        }
        let mut adj: Vec<VertexId> = Vec::new();
        let mut boundary = HashSet::new();
        for i in 0..in_closure.len() as u32 {
            if !in_closure[i as usize] {
                continue;
            }
            adj.clear();
            g.preds_into(VertexId(i), &mut adj);
            g.succs_into(VertexId(i), &mut adj);
            for &w in &adj {
                if !in_closure[w.idx()] {
                    boundary.insert(meta.meta_of(w));
                }
            }
        }
        let mut read_roots = HashSet::new();
        for &v in vs {
            adj.clear();
            g.preds_into(v, &mut adj);
            for &p in &adj {
                if !in_closure[p.idx()] {
                    read_roots.insert(meta.meta_of(p));
                }
            }
        }
        let end_pos = end as u64;
        let mut write_roots = HashSet::new();
        for &v in vs {
            let root = meta.root_vertex(meta.meta_of(v));
            let rp = pos[root.idx()];
            if rp == u64::MAX || rp < start as u64 || rp >= end_pos {
                continue;
            }
            let needed_later = meta.members(root).iter().any(|&member| {
                if g.is_output(member) {
                    return true;
                }
                adj.clear();
                g.succs_into(member, &mut adj);
                adj.iter()
                    .any(|&s| pos[s.idx()] != u64::MAX && pos[s.idx()] >= end_pos)
            });
            if needed_later {
                write_roots.insert(meta.meta_of(root));
            }
        }
        SegmentReport {
            start,
            end,
            counted: counted_n,
            meta_boundary: boundary.len() as u64,
            read_metas: read_roots.len() as u64,
            write_metas: write_roots.len() as u64,
            complete,
        }
    }

    fn setup(r: u32, k: u32) -> (Cdag, MetaVertices, Vec<bool>) {
        let g = build_cdag(&strassen(), r);
        let meta = MetaVertices::compute(&g);
        let chosen = select_input_disjoint(&g, &meta, k);
        let counted = counted_mask(&g, k, &chosen);
        (g, meta, counted)
    }

    #[test]
    fn counted_mask_is_on_counted_ranks() {
        let (g, _meta, counted) = setup(3, 1);
        assert!(counted_ranks_only(&g, 1, &counted));
        assert!(counted_total(&counted) > 0);
    }

    #[test]
    fn segments_partition_the_order() {
        let (g, meta, counted) = setup(3, 1);
        let order = orders::recursive_order(&g);
        let analysis = analyze_with(&g, &meta, &order, &counted, 2, 24, 1, &Pool::serial());
        // Segments tile the order.
        let mut expected_start = 0;
        for s in &analysis.segments {
            assert_eq!(s.start, expected_start);
            assert!(s.end > s.start);
            expected_start = s.end;
        }
        assert_eq!(expected_start, order.len());
        // All but possibly the last are complete with exactly-threshold
        // counted vertices (meta closure can overshoot only when one step
        // adds several counted vertices at once).
        for s in &analysis.segments[..analysis.segments.len() - 1] {
            assert!(s.complete);
            assert!(s.counted >= 24);
        }
    }

    #[test]
    fn paper_inequality_delta_ge_counted_over_12() {
        // Equation 2: |δ'(S')| ≥ |S̄|/12 for every segment, any order.
        let (g, meta, counted) = setup(3, 1);
        for order in [orders::recursive_order(&g), orders::rank_order(&g)] {
            let analysis = analyze_with(&g, &meta, &order, &counted, 2, 24, 1, &Pool::serial());
            for s in analysis.segments.iter().filter(|s| s.complete) {
                assert!(
                    s.meta_boundary * 12 >= s.counted,
                    "segment {}..{}: δ'={} < {}/12",
                    s.start,
                    s.end,
                    s.meta_boundary,
                    s.counted
                );
            }
        }
    }

    #[test]
    fn parallel_analysis_is_thread_count_invariant() {
        let (g, meta, counted) = setup(3, 1);
        let order = orders::recursive_order(&g);
        let serial = analyze_with(&g, &meta, &order, &counted, 2, 24, 1, &Pool::serial());
        for threads in [2, 8] {
            let pool = Pool::new(threads);
            let par = analyze_with(&g, &meta, &order, &counted, 2, 24, 1, &pool);
            assert_eq!(
                serde_json::to_string(&serial).unwrap(),
                serde_json::to_string(&par).unwrap(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn certificate_nonnegative_and_monotone_in_segments() {
        let (g, meta, counted) = setup(3, 1);
        let order = orders::recursive_order(&g);
        let coarse = analyze_with(&g, &meta, &order, &counted, 2, 48, 1, &Pool::serial());
        let fine = analyze_with(&g, &meta, &order, &counted, 2, 24, 1, &Pool::serial());
        assert!(fine.complete_segments >= coarse.complete_segments);
    }

    #[test]
    fn section5_boundaries_satisfy_equation1() {
        // Strassen, any order: |δ(S)| ≥ |S̄|/22 per complete segment.
        let g = build_cdag(&strassen(), 4);
        for order in [orders::recursive_order(&g), orders::rank_order(&g)] {
            let k = choose_k_section5(&g, 1, 4); // a^k ≥ 4
            let segments = analyze_section5(&g, &order, k, 8);
            assert!(!segments.is_empty());
            for (counted, delta) in segments {
                assert!(
                    delta * 22 >= counted,
                    "Equation 1 violated: δ={delta} counted={counted}"
                );
            }
        }
    }

    #[test]
    fn section5_k_choice() {
        let g = build_cdag(&strassen(), 6);
        // a=4, M=1, multiplier 132: 4^4 = 256 ≥ 132 > 64.
        assert_eq!(choose_k_section5(&g, 1, 132), 4);
    }

    #[test]
    fn choose_k_matches_formula() {
        let g = build_cdag(&strassen(), 6);
        // a=4: a^k ≥ 72M. M=1 → 72 → k=4 (4^4=256 ≥ 72 > 64=4^3).
        let (k, ok) = choose_k(&g, 1, 72);
        assert!(ok);
        assert_eq!(k, 4);
        // M large: k would exceed r-2, fallback flagged.
        let (_k2, ok2) = choose_k(&g, 1_000_000, 72);
        assert!(!ok2);
        // Smaller multiplier admits smaller graphs.
        let g2 = build_cdag(&strassen(), 3);
        let (k3, ok3) = choose_k(&g2, 2, 2);
        assert!(ok3);
        assert_eq!(k3, 1);
    }

    #[test]
    fn sparse_pass_matches_dense_oracle() {
        let bases = [
            strassen(),
            winograd(),
            classical(2),
            with_duplicated_combination(&strassen()),
        ];
        for base in &bases {
            for r in [3, 4] {
                let g = build_cdag(base, r);
                let view = IndexView::from_base(base, r);
                let meta = MetaVertices::compute(&g);
                let view_meta = MetaVertices::compute_view(&view);
                let chosen = select_input_disjoint(&g, &meta, 1);
                let counted = counted_mask(&g, 1, &chosen);
                for order in [orders::recursive_order(&g), orders::rank_order(&g)] {
                    for threshold in [8, 24, 64] {
                        let oracle = dense_analyze(&g, &meta, &order, &counted, 2, threshold, 1);
                        let want = format!("{oracle:?}");
                        for threads in [1, 2, 8] {
                            let pool = Pool::new(threads);
                            let on_graph =
                                analyze_with(&g, &meta, &order, &counted, 2, threshold, 1, &pool);
                            let on_view = analyze_with(
                                &view, &view_meta, &order, &counted, 2, threshold, 1, &pool,
                            );
                            let at =
                                format!("{} r={r} S̄={threshold} threads={threads}", base.name());
                            assert_eq!(format!("{on_graph:?}"), want, "Cdag, {at}");
                            assert_eq!(format!("{on_view:?}"), want, "IndexView, {at}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn stamp_wraparound_matches_dense_oracle() {
        // One scratch across every segment, its generation starting one
        // step of 8 below the top: the first segment stamps members and
        // flags outside roots at the top generation, and the marks must be
        // cleared when the counter wraps before the second, or stale
        // stamps and flags would alias into a later closure.
        let (g, meta, counted) = setup(3, 1);
        let order = orders::recursive_order(&g);
        let bounds = segment_bounds(&meta, &order, &counted, 8);
        assert!(bounds.len() >= 4, "the wrap must fall mid-run");
        let pos = positions(g.n_vertices(), &order);
        let start = u32::MAX - 2 * mmio_cdag::meta::FLAG_MASK - 1;
        let mut scratch = Scratch::new(MetaClosure::starting_at(g.n_vertices(), start));
        let sparse: Vec<SegmentReport> = bounds
            .iter()
            .map(|&b| segment_report(&g, &meta, &pos, &order, b, &mut scratch))
            .collect();
        let oracle = dense_analyze(&g, &meta, &order, &counted, 2, 8, 1);
        assert_eq!(format!("{sparse:?}"), format!("{:?}", oracle.segments));
    }

    #[test]
    fn huge_cache_is_infeasible_and_completes_no_segment() {
        // multiplier·M and threshold_multiplier·M overflow u64 for these M:
        // they saturate instead of wrapping or panicking.
        let g = build_cdag(&strassen(), 3);
        let order = orders::recursive_order(&g);
        for m in [1u64 << 62, 1 << 63, u64::MAX] {
            assert_eq!(choose_k(&g, m, 2), (1, false), "M = {m}");
            assert_eq!(choose_k(&g, m, 72), (1, false), "M = {m}");
            assert_eq!(choose_k_section5(&g, m, 132), g.r(), "M = {m}");
            let cert = certify_with(&g, m, &order, CertifyParams::SMALL);
            assert_eq!((cert.k, cert.k_feasible), (1, false), "M = {m}");
            assert_eq!(cert.analysis.threshold, u64::MAX, "M = {m}");
            assert_eq!(cert.analysis.complete_segments, 0, "M = {m}");
            assert_eq!(cert.analysis.certified_io, 0, "M = {m}");
        }
    }
}
