//! Property-based equivalence of the two [`CdagView`] implementations:
//! random probes must see the identical graph through a materialized
//! `Cdag` and [`IndexView`] (closed-form). The `Cdag` is collected from
//! `IndexView`'s predecessor lists, but its successor lists come from the
//! builder's counting-sort inversion, so comparing `succs_into` here checks
//! that the closed-form `preds_of` and `succs_of` are inverses.
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

use mmio_algos::registry::all_base_graphs;
use mmio_cdag::build::build_cdag;
use mmio_cdag::{BaseGraph, CdagView, IndexView, VertexId, VertexRef};
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
    VertexObs {
        vref: vr,
        roundtrip: g.try_id(vr),
        entry_width: g.entry_width(vr.layer, vr.level),
        preds,
        succs,
        is_input: g.is_input(v),
        is_output: g.is_output(v),
        rank: g.rank_of(v),
        copy_parent: g.copy_parent(v),
    }
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
