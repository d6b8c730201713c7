//! Property-based equivalence of the two [`CdagView`] implementations:
//! random probes must see the identical graph through a materialized
//! `Cdag` and [`IndexView`] (closed-form). Both CSR halves of the `Cdag`
//! are filled from `IndexView`'s block rules, so the successor rule is
//! checked separately, against a counting-sort inversion of the
//! predecessor CSR (`successors_are_the_inverted_predecessors`).
//!
//! The probes exercise every trait method the generic engines consume —
//! id/address round-trips, adjacency, input/output/rank classification,
//! copy structure, and the Fact-1 lift — across the whole algorithm
//! registry, so a divergence anywhere in the implicit arithmetic fails
//! here before it can corrupt a certificate.
//!
//! All observations go through a generic `V: CdagView` helper:
//! `IndexView`'s inherent `u32`-based accessors would otherwise shadow the
//! trait methods under test.

use mmio_algos::classical::classical;
use mmio_algos::registry::all_base_graphs;
use mmio_algos::strassen::strassen;
use mmio_algos::synthetic::with_duplicated_combination;
use mmio_cdag::base::Side;
use mmio_cdag::build::build_cdag;
use mmio_cdag::view::count_vertices;
use mmio_cdag::{
    BaseGraph, Cdag, CdagView, IndexView, Layer, MetaVertices, VertexId, VertexRef, ViewError,
};
use mmio_matrix::{Matrix, Rational};
use proptest::prelude::*;

/// Registry bases with a depth cap keeping `G_r` small enough to
/// materialize inside a proptest case (wide tensor-square bases stop at 2).
fn cases() -> Vec<(BaseGraph, u32)> {
    all_base_graphs()
        .into_iter()
        .map(|b| {
            let max_r = if b.b() > 30 { 2 } else { 3 };
            (b, max_r)
        })
        .collect()
}

/// Strategy: (base index, r, probe fraction in thousandths of the id
/// space). The vendored proptest shim draws integers only, so fractions
/// are fixed-point.
fn probe() -> impl Strategy<Value = (usize, u32, u64)> {
    let n_bases = cases().len();
    (0..n_bases, 1u32..=3, 0u64..1000)
}

fn pick_vertex(n: usize, frac: u64) -> VertexId {
    VertexId(((n as u64 * frac / 1000) as usize).min(n - 1) as u32)
}

/// Everything the generic engines can observe about one vertex.
#[derive(Debug, PartialEq, Eq)]
struct VertexObs {
    vref: VertexRef,
    roundtrip: Option<VertexId>,
    entry_width: u64,
    preds: Vec<VertexId>,
    succs: Vec<VertexId>,
    /// `adj_into`'s list and split: checked against `preds ++ succs`.
    fused: (Vec<VertexId>, usize),
    is_input: bool,
    is_output: bool,
    rank: Option<u32>,
    copy_parent: Option<VertexId>,
}

fn observe<V: CdagView>(g: &V, v: VertexId) -> VertexObs {
    let vr = g.try_vref(v).expect("probe id in range");
    let (mut preds, mut succs) = (Vec::new(), Vec::new());
    assert!(g.preds_into(v, &mut preds));
    assert!(g.succs_into(v, &mut succs));
    let fused = fused(g, v);
    assert_eq!(fused, ([&preds[..], &succs[..]].concat(), preds.len()));
    VertexObs {
        vref: vr,
        roundtrip: g.try_id(vr),
        entry_width: g.entry_width(vr.layer, vr.level),
        preds,
        succs,
        fused,
        is_input: g.is_input(v),
        is_output: g.is_output(v),
        rank: g.rank_of(v),
        copy_parent: g.copy_parent(v),
    }
}

/// `v`'s neighbours by the fused fetch, and the predecessor count it
/// returned.
fn fused<V: CdagView>(g: &V, v: VertexId) -> (Vec<VertexId>, usize) {
    let mut out = Vec::new();
    let n_preds = g.adj_into(v, &mut out);
    (out, n_preds)
}

fn shape<V: CdagView>(g: &V) -> (u32, usize, usize, usize) {
    (g.r(), g.a(), g.b(), g.n_vertices())
}

fn lift<V: CdagView, L: CdagView>(g: &V, local: &L, prefix: u64, v: VertexId) -> Option<VertexId> {
    g.lift_from(local, prefix, v)
}

fn n_of<V: CdagView>(g: &V) -> usize {
    g.n_vertices()
}

proptest! {
    #[test]
    fn views_agree_on_probes((bi, r, frac) in probe()) {
        let (base, max_r) = cases().swap_remove(bi);
        let r = r.min(max_r);
        let g = build_cdag(&base, r);
        let iv = IndexView::from_base(&base, r);

        prop_assert_eq!(shape(&g), shape(&iv));
        let v = pick_vertex(n_of(&g), frac);
        let eo = observe(&g, v);
        prop_assert_eq!(eo.roundtrip, Some(v));
        prop_assert_eq!(eo, observe(&iv, v));
    }

    #[test]
    fn views_agree_on_fact1_lift((bi, r, frac) in probe(), k in 1u32..=2, pfrac in 0u64..1000) {
        let (base, max_r) = cases().swap_remove(bi);
        let r = r.min(max_r);
        let k = k.min(r);
        let g = build_cdag(&base, r);
        let gk = build_cdag(&base, k);
        let iv = IndexView::from_base(&base, r);
        let lk = IndexView::from_base(&base, k);

        let copies = mmio_cdag::index::pow(base.b(), r - k);
        let prefix = (copies * pfrac / 1000).min(copies - 1);
        let v = pick_vertex(gk.n_vertices(), frac);

        let lifted = lift(&g, &gk, prefix, v);
        prop_assert!(lifted.is_some(), "every G_k vertex lifts into G_r");
        prop_assert_eq!(lift(&iv, &gk, prefix, v), lifted);
        prop_assert_eq!(lift(&iv, &lk, prefix, v), lifted);
        // Out-of-range prefixes are rejected by both.
        prop_assert_eq!(lift(&g, &gk, copies, v), None);
        prop_assert_eq!(lift(&iv, &gk, copies, v), None);
    }
}

/// Exhaustive (non-random) sweep at small depth: every vertex of every
/// registry base agrees between views, including the copy-root table and
/// maximum in-degree the meta-vertex and scheduler machinery consume.
#[test]
fn full_sweep_small_depth() {
    for base in all_base_graphs() {
        let r = if base.b() > 30 { 1 } else { 2 };
        let g = build_cdag(&base, r);
        let iv = IndexView::from_base(&base, r);
        assert_eq!(shape(&g), shape(&iv), "{}", base.name());
        for i in 0..n_of(&g) as u32 {
            let v = VertexId(i);
            assert_eq!(
                observe(&g, v),
                observe(&iv, v),
                "{} vertex {i}",
                base.name()
            );
        }
        fn roots<V: CdagView>(g: &V) -> Vec<u32> {
            g.copy_roots_table()
        }
        fn indeg<V: CdagView>(g: &V) -> usize {
            g.max_indegree()
        }
        assert_eq!(roots(&g), roots(&iv), "{} copy roots", base.name());
        assert_eq!(indeg(&g), indeg(&iv), "{} max indegree", base.name());
    }
}

/// The meta-vertex root walk against the per-vertex `copy_parent`
/// union-find it replaced (`CdagView::copy_roots_table`, whose roots are
/// the smallest id of each group), on both views: the same root for every
/// vertex, and for every meta-vertex the member list grouped here from
/// that table, root first. Every registry base through `G_4`, the wider
/// bases (`a ≥ 9`) through `G_2`, and Strassen with a duplicated
/// combination; `classical(2)` brings the multiple copying.
#[test]
fn meta_walk_matches_copy_roots_table() {
    fn check<V: CdagView>(g: &V, at: &str) {
        let n = g.n_vertices();
        let roots = g.copy_roots_table();
        let mut members: Vec<Vec<VertexId>> = vec![Vec::new(); n];
        for (i, &rt) in roots.iter().enumerate() {
            members[rt as usize].push(VertexId(i as u32));
        }
        let meta = MetaVertices::compute_view(g);
        for i in 0..n as u32 {
            let v = VertexId(i);
            assert_eq!(meta.meta_of(v).0, roots[i as usize], "{at}: root of {i}");
            if roots[i as usize] == i {
                assert_eq!(
                    meta.members(v),
                    &members[i as usize][..],
                    "{at}: members of {i}"
                );
            }
        }
    }
    let mut bases = all_base_graphs();
    bases.push(with_duplicated_combination(&strassen()));
    for base in &bases {
        let max_r = if base.a() == 4 { 4 } else { 2 };
        for r in 1..=max_r {
            let at = format!("{} r={r}", base.name());
            check(&build_cdag(base, r), &format!("{at} Cdag"));
            check(&IndexView::from_base(base, r), &format!("{at} IndexView"));
        }
    }
    let g = build_cdag(&classical(2), 2);
    assert!(MetaVertices::compute_view(&g).has_multiple_copying(&g));
}

/// The overflow frontier: for every registry base, the largest `r` whose
/// vertex count fits `u32` ids builds a view whose segments' first and
/// last ids round-trip through `try_vref`/`try_id`, and `r + 1` is a typed
/// error rather than a wrapped id.
#[test]
fn overflow_frontier_round_trips_and_beyond_is_typed() {
    fn try_id<V: CdagView>(g: &V, v: VertexRef) -> Option<VertexId> {
        g.try_id(v)
    }
    fn try_vref<V: CdagView>(g: &V, v: VertexId) -> Option<VertexRef> {
        g.try_vref(v)
    }
    for base in all_base_graphs() {
        let fits = |r| {
            count_vertices(base.a() as u64, base.b() as u64, r)
                .is_some_and(|n| n <= u32::MAX as u64)
        };
        let r = (1..).take_while(|&r| fits(r)).last().expect("G_1 fits");
        let view = IndexView::from_base(&base, r);
        let segments: Vec<(Layer, u32)> = [Layer::EncA, Layer::EncB, Layer::Dec]
            .into_iter()
            .flat_map(|layer| (0..=r).map(move |level| (layer, level)))
            .collect();
        let starts: Vec<u64> = segments
            .iter()
            .map(|&(layer, level)| {
                let first = VertexRef {
                    layer,
                    level,
                    mul: 0,
                    entry: 0,
                };
                try_id(&view, first).expect("segment start").0 as u64
            })
            .chain([n_of(&view) as u64])
            .collect();
        assert_eq!(starts[0], 0, "{} r={r}", base.name());
        for (i, &(layer, level)) in segments.iter().enumerate() {
            let (first, last) = (starts[i], starts[i + 1] - 1);
            assert!(first <= last, "{} r={r}: empty segment {i}", base.name());
            for id in [first, last] {
                let v = VertexId(id as u32);
                let vr = try_vref(&view, v).expect("id in range");
                assert_eq!(
                    (vr.layer, vr.level),
                    (layer, level),
                    "{} r={r} id {id}",
                    base.name()
                );
                assert_eq!(try_id(&view, vr), Some(v), "{} r={r} id {id}", base.name());
            }
        }
        let beyond = IndexView::new(
            base.n0(),
            base.enc(Side::A),
            base.enc(Side::B),
            base.dec(),
            r + 1,
        );
        assert!(
            matches!(beyond, Err(ViewError::Params(_))),
            "{} r={}: expected a typed Params error",
            base.name(),
            r + 1
        );
    }
}

/// `c = a·b` over a 1×1 base with three products, one decoding row
/// copying product 1: the only shape with a trivial decoding row (for
/// `n₀ ≥ 2` no single product equals an output).
fn decoding_copy() -> BaseGraph {
    let r_ = Rational::integer;
    BaseGraph::new(
        "decoding-copy",
        1,
        Matrix::from_vec(3, 1, vec![r_(2), r_(1), r_(1)]),
        Matrix::from_vec(3, 1, vec![r_(1), r_(1), r_(5)]),
        Matrix::from_vec(1, 3, vec![r_(0), r_(1), r_(0)]),
    )
}

/// The successor CSR of `g` by counting sort over its predecessor CSR:
/// count into the shifted offsets, prefix-sum, then scatter in dense
/// order, so every list is ascending.
fn inverted_preds(g: &Cdag) -> (Vec<usize>, Vec<VertexId>) {
    let n = g.n_vertices();
    let mut off = vec![0usize; n + 1];
    for v in g.vertices() {
        for p in g.preds(v) {
            off[p.idx() + 1] += 1;
        }
    }
    for i in 0..n {
        off[i + 1] += off[i];
    }
    let mut tgt = vec![VertexId(0); off[n]];
    let mut cursor = off.clone();
    for v in g.vertices() {
        for p in g.preds(v) {
            tgt[cursor[p.idx()]] = v;
            cursor[p.idx()] += 1;
        }
    }
    (off, tgt)
}

/// Both CSR halves of `build_cdag` come from the closed form's block
/// rules, one rule per direction, so the successor rule is checked here
/// against a counting-sort inversion of the predecessor CSR: every
/// registry base with `a = 4` through `G_4`, the `a ≥ 9` bases through
/// `G_2`, and the 1×1 base with a trivial decoding row through `G_5`
/// (`classical(2)` and Strassen without copies are registry bases). On
/// the same graphs, the fused fetch of both views is `preds ++ succs`
/// with the predecessor count as its split, and an out-of-range id
/// appends nothing.
#[test]
fn successors_are_the_inverted_predecessors() {
    let mut bases = all_base_graphs();
    bases.push(decoding_copy());
    for base in &bases {
        let max_r = match base.a() {
            1 => 5,
            4 => 4,
            _ => 2,
        };
        for r in 1..=max_r {
            let at = format!("{} r={r}", base.name());
            let g = build_cdag(base, r);
            let iv = IndexView::from_base(base, r);
            let (off, tgt) = inverted_preds(&g);
            for v in g.vertices() {
                let want = &tgt[off[v.idx()]..off[v.idx() + 1]];
                assert_eq!(g.succs(v), want, "{at}: succs of {}", v.0);
                let want = ([g.preds(v), want].concat(), g.preds(v).len());
                assert_eq!(fused(&g, v), want, "{at}: Cdag fused fetch of {}", v.0);
                assert_eq!(fused(&iv, v), want, "{at}: view fused fetch of {}", v.0);
            }
            for id in [n_of(&g) as u32, u32::MAX] {
                assert_eq!(fused(&g, VertexId(id)), (Vec::new(), 0), "{at}");
                assert_eq!(fused(&iv, VertexId(id)), (Vec::new(), 0), "{at}");
            }
        }
    }
}
