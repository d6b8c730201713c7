//! Fact-1 memoized routing classes and their transport into `G_r`.
//!
//! Fact 1 says the middle `2(k+1)` levels of `G_r` decompose into `b^{r-k}`
//! vertex-disjoint copies of `G_k`, each isomorphic to the standalone `G_k`
//! built from the same base graph. Every lemma routing (Lemma 3 chains,
//! Lemma 4 concatenation, the Routing Theorem's `6a^k`-routing) is therefore
//! *one object per `(base graph, k)` class*, not one per copy: this module
//! constructs it once — Hall matchings, chain lifting, path enumeration —
//! stores the paths flat in a [`PathArena`], and transports them into every
//! copy through the Fact-1 lift [`CdagView::lift_from`] — pure index
//! arithmetic, so `G_r` may be a materialized [`Cdag`] or a closed-form
//! [`mmio_cdag::IndexView`] alike.
//!
//! ## Soundness of transported verification
//!
//! Per copy, the engine does two things:
//!
//! 1. **Global edge re-walk** — every transported path is re-walked hop by
//!    hop against `G_r`'s real adjacency (`preds_into`/`succs_into`). This
//!    is the part that could conceivably break if the isomorphism were
//!    wrong, so it is *never skipped*, only parallelized.
//! 2. **Hit counting in local coordinates** — the copies are vertex-disjoint
//!    (Fact 1; `fact1::tests::copies_are_vertex_disjoint_and_cover_middle`
//!    in `mmio_cdag`), so a global vertex's hit count equals its local
//!    preimage's count in its own copy, and the global maximum over the
//!    middle levels is the maximum over copies. Counting against the
//!    standalone `G_k` (same dense index space for every copy) is exactly
//!    the global count, copy by copy.
//!
//! Meta-vertex hits are counted against the *standalone* `G_k`'s
//! meta-vertices — the objects the Routing Theorem speaks about. (Inside
//! `G_r`, a copy chain may continue past the copy's boundary rank; those
//! longer global metas can only merge local ones and are audited
//! independently by `mmio-analyze`'s union-find re-verification.)

use crate::routing::{PathArena, RoutingStats, VertexHitCounter};
use crate::theorem2::InOutRouting;
use mmio_cdag::build::build_cdag;
use mmio_cdag::{BaseGraph, Cdag, CdagView, MetaVertices, VertexId};
use mmio_parallel::events::{self, SyncEvent};
use mmio_parallel::Pool;
use serde::Serialize;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One memoized routing class: the Routing Theorem's `6a^k`-routing built
/// once on a standalone `G_k`, ready to be transported into every copy of
/// `G_k` inside any `G_r` over the same base graph.
pub struct RoutingClass {
    /// The standalone `G_k` the class was built on.
    gk: Cdag,
    /// Its meta-vertices (the Routing Theorem's counting unit).
    meta: MetaVertices,
    /// Depth `k`.
    pub k: u32,
    /// All `2a^{2k}` paths, flat.
    paths: PathArena,
    /// The class's own verified statistics (vertex and meta hits on `G_k`).
    pub stats: RoutingStats,
    /// The Routing Theorem bound `6a^k`.
    pub bound: u64,
}

impl RoutingClass {
    /// Builds and verifies the class: Hall matchings, chain lifting, full
    /// path enumeration into the arena, then hit-count verification sharded
    /// over `pool`. `None` when the base graph admits no `n₀`-capacity Hall
    /// matching (the Routing Theorem's hypotheses fail).
    pub fn build(base: &BaseGraph, k: u32, pool: &Pool) -> Option<RoutingClass> {
        let gk = build_cdag(base, k);
        let meta = MetaVertices::compute(&gk);
        let (paths, bound) = {
            let routing = InOutRouting::new(&gk)?;
            (routing.collect_paths(), routing.theorem2_bound())
        };
        // Verify from the arena (not by re-deriving chains): shard the path
        // index space, merge shards in fixed chunk order.
        let n = paths.len();
        let chunks = (pool.threads() * 4).min(n.max(1));
        let shards = pool.map(chunks, |c| {
            let mut counter = VertexHitCounter::new(&gk, Some(&meta));
            for i in n * c / chunks..n * (c + 1) / chunks {
                counter.add_path(paths.path(i));
            }
            counter
        });
        let mut merged = VertexHitCounter::new(&gk, Some(&meta));
        for shard in &shards {
            merged.merge(shard);
        }
        let stats = merged.stats();
        Some(RoutingClass {
            gk,
            meta,
            k,
            paths,
            stats,
            bound,
        })
    }

    /// The standalone `G_k`.
    pub fn gk(&self) -> &Cdag {
        &self.gk
    }

    /// The class's paths (local vertex ids of [`RoutingClass::gk`]).
    pub fn paths(&self) -> &PathArena {
        &self.paths
    }
}

/// Process-wide cache of routing classes, keyed by the registry algorithm
/// id (the base graph's name) and depth `k`. Lookups are serialized on one
/// mutex — class construction is rare by design (that is the point of the
/// cache) and every workload after the first hit is read-only through the
/// returned [`Arc`].
#[derive(Default)]
pub struct RoutingMemo {
    classes: Mutex<ClassTable>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// The memo's storage: `(algorithm id, k)` → built class, with `None`
/// memoizing "no Hall matching at this capacity".
type ClassTable = HashMap<(String, u32), Option<Arc<RoutingClass>>>;

impl RoutingMemo {
    /// An empty cache.
    pub fn new() -> RoutingMemo {
        RoutingMemo::default()
    }

    /// The class for `(base, k)`, building (and verifying) it on first
    /// request. `None` is also memoized: a base graph without a Hall
    /// matching stays without one.
    pub fn class(&self, base: &BaseGraph, k: u32, pool: &Pool) -> Option<Arc<RoutingClass>> {
        let key = (base.name().to_string(), k);
        let ekey = events::memo_key(base.name(), k);
        // A panic inside `RoutingClass::build` (isolated by a caller's
        // `catch_unwind`, as the serve tier does per job) poisons this
        // mutex without ever leaving the table inconsistent — the insert
        // only happens after a successful build. Recover the guard so one
        // panicking request cannot permanently poison the memo for every
        // request after it.
        let mut classes = self
            .classes
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // Emitted while the lock is held, so the trace's lock/fill/unlock
        // triples nest correctly (see mmio-parallel's events module docs).
        events::emit(SyncEvent::MemoLock);
        if let Some(cached) = classes.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            events::emit(SyncEvent::MemoHit { key: ekey });
            events::emit(SyncEvent::MemoUnlock);
            return cached.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // The class is built *inside* the critical section: lost updates
        // and double-fills are impossible by construction, which is exactly
        // what mmio-check's model checker certifies (and what its buggy
        // check-then-act variant demonstrably violates).
        let built = RoutingClass::build(base, k, pool).map(Arc::new);
        classes.insert(key, built.clone());
        events::emit(SyncEvent::MemoFill { key: ekey });
        events::emit(SyncEvent::MemoUnlock);
        built
    }

    /// `(cache hits, cache misses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

/// The outcome of transporting one routing class into every copy of `G_k`
/// inside a `G_r` and re-verifying each copy.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct TransportReport {
    /// Depth of the transported class.
    pub k: u32,
    /// Number of copies `b^{r-k}` the class was transported into.
    pub copies: u64,
    /// Paths per copy (`2a^{2k}`).
    pub paths_per_copy: u64,
    /// The Routing Theorem bound `6a^k`.
    pub bound: u64,
    /// Max per-vertex hits over all copies (== the standalone class's, when
    /// the isomorphism is correct — asserted by `uniform`).
    pub max_vertex_hits: u64,
    /// Max per-meta hits over all copies (standalone-`G_k` metas).
    pub max_meta_hits: u64,
    /// Transported path hops that failed the global `G_r` edge re-walk.
    /// Any nonzero value means the transport (or Fact 1 itself) is broken.
    pub edge_violations: u64,
    /// Whether every copy produced identical hit statistics — the
    /// observable consequence of the copies being isomorphic.
    pub uniform: bool,
}

impl TransportReport {
    /// Whether every copy verified as a `bound`-routing with no edge
    /// violations.
    pub fn verified(&self) -> bool {
        self.edge_violations == 0
            && self.max_vertex_hits <= self.bound
            && self.max_meta_hits <= self.bound
    }
}

/// Per-copy verification summary (internal).
#[derive(Clone, Copy, PartialEq, Eq)]
struct CopyStats {
    max_vertex_hits: u64,
    max_meta_hits: u64,
    edge_violations: u64,
}

/// Transports `class` into every copy of `G_k` inside `gr` and re-verifies
/// each copy: the Fact-1 translation table from [`CdagView::lift_from`],
/// a global edge re-walk of every transported path against `gr`'s
/// adjacency, and per-copy hit counting (see the module docs for why local
/// counting is the global count). With an [`mmio_cdag::IndexView`], peak
/// memory is `O(|V(G_k)| + paths)` regardless of `r`, which is what lets
/// the transport argument be checked at `r ≥ 8` where `G_r` itself does
/// not fit. Copies are sharded over `pool` and merged in prefix order, so
/// the report is identical at any thread count and for every view of the
/// same `G_r`.
///
/// # Panics
/// Panics if `class.k > gr.r()`, or if `gr` is not over the class's base
/// graph — checked structurally, since a view carries no base name: the
/// first copy must reproduce `G_k`'s predecessor lists exactly.
pub fn verify_transported<V: CdagView + Sync>(
    gr: &V,
    class: &RoutingClass,
    pool: &Pool,
) -> TransportReport {
    assert!(class.k <= gr.r(), "transport requires k <= r");
    let gk = &class.gk;
    let lift0 = |v| gr.lift_from(gk, 0, v).expect("Fact-1 lift in range");
    let same_base = (gr.a(), gr.b()) == (gk.base().a(), gk.base().b()) && {
        let mut got = Vec::new();
        gk.vertices().filter(|&v| !gk.is_input(v)).all(|v| {
            got.clear();
            gr.preds_into(lift0(v), &mut got);
            got.iter()
                .copied()
                .eq(gk.preds(v).iter().map(|&p| lift0(p)))
        })
    };
    assert!(same_base, "class and graph must share a base graph");
    let copies = mmio_cdag::index::pow(gr.b(), gr.r() - class.k);
    let chunks = ((pool.threads() * 4).min(copies.max(1) as usize)).max(1);
    let per_chunk: Vec<Vec<CopyStats>> = pool.map(chunks, |c| {
        let start = copies * c as u64 / chunks as u64;
        let end = copies * (c as u64 + 1) / chunks as u64;
        // One translation table, one counter and two adjacency buffers,
        // reused across the chunk's copies.
        let mut table: Vec<VertexId> = Vec::with_capacity(gk.n_vertices());
        let mut counter = VertexHitCounter::new(gk, Some(&class.meta));
        let (mut preds, mut succs) = (Vec::new(), Vec::new());
        let mut out = Vec::with_capacity((end - start) as usize);
        for prefix in start..end {
            // The entire per-copy construction cost of a transported
            // routing: O(|V(G_k)|) index arithmetic, independent of the
            // number of paths.
            table.clear();
            table.extend(
                gk.vertices()
                    .map(|lv| gr.lift_from(gk, prefix, lv).expect("Fact-1 lift in range")),
            );
            counter.reset();
            let mut edge_violations = 0u64;
            for path in class.paths.iter() {
                counter.add_path(path);
                // Global re-walk: every transported hop must be a real edge
                // of G_r, in either direction.
                for w in path.windows(2) {
                    let (gu, gv) = (table[w[0].idx()], table[w[1].idx()]);
                    preds.clear();
                    succs.clear();
                    gr.preds_into(gv, &mut preds);
                    gr.succs_into(gv, &mut succs);
                    if !(preds.contains(&gu) || succs.contains(&gu)) {
                        edge_violations += 1;
                    }
                }
            }
            let stats = counter.stats();
            out.push(CopyStats {
                max_vertex_hits: stats.max_vertex_hits,
                max_meta_hits: stats.max_meta_hits,
                edge_violations,
            });
        }
        out
    });

    // Deterministic merge in prefix order (chunks are contiguous and
    // ordered; within a chunk, copies were pushed in prefix order).
    let mut merged = CopyStats {
        max_vertex_hits: 0,
        max_meta_hits: 0,
        edge_violations: 0,
    };
    let mut uniform = true;
    let mut first: Option<CopyStats> = None;
    for cs in per_chunk.iter().flatten() {
        merged.max_vertex_hits = merged.max_vertex_hits.max(cs.max_vertex_hits);
        merged.max_meta_hits = merged.max_meta_hits.max(cs.max_meta_hits);
        merged.edge_violations += cs.edge_violations;
        match &first {
            None => first = Some(*cs),
            Some(f) => uniform &= f == cs,
        }
    }
    TransportReport {
        k: class.k,
        copies,
        paths_per_copy: class.paths.len() as u64,
        bound: class.bound,
        max_vertex_hits: merged.max_vertex_hits,
        max_meta_hits: merged.max_meta_hits,
        edge_violations: merged.edge_violations,
        uniform,
    }
}

/// Emits a self-contained, portable routing certificate for `class`
/// transported into `G_r`: the base coefficients, all `2a^{2k}` paths in
/// local `G_k` ids, the claimed hit maxima against the `6a^k` bound, and
/// the full Fact-1 prefix set `[b^{r-k}]`. The standalone `mmio-cert`
/// verifier re-derives every edge, the copy grouping, the hit counts, and
/// the transport images from the certificate alone — none of this module
/// is in its trust base.
///
/// # Panics
/// Panics if `r < k` (there is no transport target).
pub fn emit_certificate(class: &RoutingClass, r: u32) -> mmio_cert::Certificate {
    use mmio_cert::format::{BaseSpec, Payload, RoutingPayload};
    assert!(class.k <= r, "transport requires k <= r");
    let base = class.gk().base();
    let copies = mmio_cdag::index::pow(base.b(), r - class.k);
    let arena = class.paths();
    #[allow(unused_mut)]
    let mut paths: Vec<Vec<u32>> = (0..arena.len())
        .map(|i| arena.path(i).iter().map(|v| v.0).collect())
        .collect();
    #[allow(unused_mut)]
    let mut copy_prefixes: Vec<u64> = (0..copies).collect();
    #[allow(unused_mut)]
    let mut max_vertex_hits = class.stats.max_vertex_hits;
    #[cfg(feature = "mutate")]
    {
        use std::sync::atomic::Ordering::SeqCst;
        if crate::mutate::DROP_LAST_PATH.load(SeqCst) {
            paths.pop();
        }
        if crate::mutate::UNDERCOUNT_VERTEX_HITS.load(SeqCst) {
            max_vertex_hits = max_vertex_hits.saturating_sub(1);
        }
        if crate::mutate::PREFIX_LIE.load(SeqCst) {
            if let Some(last) = copy_prefixes.last_mut() {
                *last = 0;
            }
        }
    }
    mmio_cert::Certificate::new(
        BaseSpec::from_base(base),
        Payload::Routing(RoutingPayload {
            k: class.k,
            r,
            bound: class.bound,
            max_vertex_hits,
            max_meta_hits: class.stats.max_meta_hits,
            paths,
            copy_prefixes,
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deps::{unpack_entry, DepSide};
    use mmio_algos::laderman::laderman;
    use mmio_algos::strassen::{strassen, winograd};
    use mmio_algos::synthetic::with_dummy_product;
    use mmio_cdag::{IndexView, Layer, VertexRef};

    /// The engine's oracle, the verification path it replaced: for every
    /// copy, rebuild `G_k`, re-derive the Hall matchings and chain router,
    /// materialize each path as its own `Vec`, lift it vertex by vertex,
    /// and re-walk the lifted hops against `g`.
    fn baseline_sweep<V: CdagView>(g: &V, base: &BaseGraph, k: u32) -> TransportReport {
        let copies = mmio_cdag::index::pow(base.b(), g.r() - k);
        let (mut max_v, mut max_m, mut violations) = (0u64, 0u64, 0u64);
        let (mut paths_per_copy, mut bound) = (0u64, 0u64);
        let mut uniform = true;
        let mut first = None;
        let (mut preds, mut succs) = (Vec::new(), Vec::new());
        for prefix in 0..copies {
            let gk = build_cdag(base, k);
            let routing = InOutRouting::new(&gk).expect("Hall matching exists");
            let meta = MetaVertices::compute(&gk);
            let mut counter = VertexHitCounter::new(&gk, Some(&meta));
            let mut copy_violations = 0u64;
            let (n0, ak) = (base.n0(), mmio_cdag::index::pow(base.a(), k));
            for side in [DepSide::A, DepSide::B] {
                for in_e in 0..ak {
                    for out_e in 0..ak {
                        let (ir, ic) = unpack_entry(in_e, n0, k);
                        let (or_, oc) = unpack_entry(out_e, n0, k);
                        let path = routing.path(side, ir, ic, or_, oc);
                        counter.add_path(&path);
                        let global: Vec<_> = path
                            .iter()
                            .map(|&v| g.lift_from(&gk, prefix, v).expect("lift in range"))
                            .collect();
                        for w in global.windows(2) {
                            preds.clear();
                            succs.clear();
                            g.preds_into(w[1], &mut preds);
                            g.succs_into(w[1], &mut succs);
                            if !(preds.contains(&w[0]) || succs.contains(&w[0])) {
                                copy_violations += 1;
                            }
                        }
                    }
                }
            }
            let stats = counter.stats();
            max_v = max_v.max(stats.max_vertex_hits);
            max_m = max_m.max(stats.max_meta_hits);
            violations += copy_violations;
            paths_per_copy = stats.paths;
            bound = routing.theorem2_bound();
            let copy = (stats.max_vertex_hits, stats.max_meta_hits, copy_violations);
            match first {
                None => first = Some(copy),
                Some(f) => uniform &= f == copy,
            }
        }
        TransportReport {
            k,
            copies,
            paths_per_copy,
            bound,
            max_vertex_hits: max_v,
            max_meta_hits: max_m,
            edge_violations: violations,
            uniform,
        }
    }

    /// `g` with the predecessor lists of `hidden` emptied, so every hop
    /// into a hidden vertex fails the edge re-walk.
    struct HidePreds<V> {
        g: V,
        hidden: Vec<VertexId>,
    }

    impl<V: CdagView> CdagView for HidePreds<V> {
        fn r(&self) -> u32 {
            self.g.r()
        }
        fn a(&self) -> usize {
            self.g.a()
        }
        fn b(&self) -> usize {
            self.g.b()
        }
        fn n_vertices(&self) -> usize {
            self.g.n_vertices()
        }
        fn try_id(&self, v: VertexRef) -> Option<VertexId> {
            self.g.try_id(v)
        }
        fn try_vref(&self, v: VertexId) -> Option<VertexRef> {
            self.g.try_vref(v)
        }
        fn entry_width(&self, layer: Layer, level: u32) -> u64 {
            self.g.entry_width(layer, level)
        }
        fn preds_into(&self, v: VertexId, out: &mut Vec<VertexId>) -> bool {
            self.hidden.contains(&v) || self.g.preds_into(v, out)
        }
        fn succs_into(&self, v: VertexId, out: &mut Vec<VertexId>) -> bool {
            self.g.succs_into(v, out)
        }
        fn is_input(&self, v: VertexId) -> bool {
            self.g.is_input(v)
        }
        fn is_output(&self, v: VertexId) -> bool {
            self.g.is_output(v)
        }
        fn rank_of(&self, v: VertexId) -> Option<u32> {
            self.g.rank_of(v)
        }
        fn max_indegree(&self) -> usize {
            self.g.max_indegree()
        }
        fn copy_parent(&self, v: VertexId) -> Option<VertexId> {
            self.g.copy_parent(v)
        }
    }

    #[test]
    fn class_matches_direct_routing() {
        let pool = Pool::serial();
        let class = RoutingClass::build(&strassen(), 2, &pool).unwrap();
        let gk = build_cdag(&strassen(), 2);
        let direct = InOutRouting::new(&gk).unwrap();
        let direct_stats = direct.verify();
        assert_eq!(class.stats.paths, direct_stats.paths);
        assert_eq!(class.stats.max_vertex_hits, direct_stats.max_vertex_hits);
        assert_eq!(class.stats.max_meta_hits, direct_stats.max_meta_hits);
        assert_eq!(class.bound, direct.theorem2_bound());
        assert_eq!(class.paths().len() as u64, direct.n_paths());
    }

    #[test]
    fn transported_copies_verify_and_are_uniform() {
        let pool = Pool::serial();
        let memo = RoutingMemo::new();
        for base in [strassen(), winograd()] {
            let class = memo.class(&base, 1, &pool).unwrap();
            let g = build_cdag(&base, 3);
            let report = verify_transported(&g, &class, &pool);
            assert_eq!(report.copies, 49); // b^{r-k} = 7²
            assert_eq!(report.paths_per_copy, 2 * 16); // 2a^{2k}
            assert!(report.verified(), "{report:?}");
            assert!(report.uniform);
            // The copy maxima coincide with the standalone class's.
            assert_eq!(report.max_vertex_hits, class.stats.max_vertex_hits);
            assert_eq!(report.max_meta_hits, class.stats.max_meta_hits);
            let oracle = baseline_sweep(&g, &base, 1);
            assert_eq!(
                format!("{report:?}"),
                format!("{oracle:?}"),
                "{}",
                base.name()
            );
        }
        // A broken hop in every copy but the first: the engine must visit
        // each copy, or its violation count or uniformity leaves the
        // oracle's.
        let base = strassen();
        let class = memo.class(&base, 1, &pool).unwrap();
        let view = IndexView::from_base(&base, 3);
        let target = class.paths().path(0)[1];
        let hidden = (1..49)
            .map(|p| view.lift_from(class.gk(), p, target).unwrap())
            .collect();
        let broken = HidePreds { g: view, hidden };
        let report = verify_transported(&broken, &class, &pool);
        let oracle = baseline_sweep(&broken, &base, 1);
        assert_eq!(format!("{report:?}"), format!("{oracle:?}"));
        assert!(oracle.edge_violations > 0 && !oracle.uniform, "{oracle:?}");
    }

    #[test]
    fn transport_is_thread_count_invariant() {
        let base = winograd();
        let g = build_cdag(&base, 3);
        let serial_pool = Pool::serial();
        let class = RoutingClass::build(&base, 1, &serial_pool).unwrap();
        let serial = verify_transported(&g, &class, &serial_pool);
        for threads in [2, 8] {
            let pool = Pool::new(threads);
            let par = verify_transported(&g, &class, &pool);
            assert_eq!(
                format!("{serial:?}"),
                format!("{par:?}"),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn memo_caches_per_algorithm_and_depth() {
        let pool = Pool::serial();
        let memo = RoutingMemo::new();
        let c1 = memo.class(&strassen(), 1, &pool).unwrap();
        let c2 = memo.class(&strassen(), 1, &pool).unwrap();
        assert!(Arc::ptr_eq(&c1, &c2), "same (algo, k) must share the class");
        let c3 = memo.class(&strassen(), 2, &pool).unwrap();
        assert!(!Arc::ptr_eq(&c1, &c3));
        let _ = memo.class(&laderman(), 1, &pool).unwrap();
        assert_eq!(memo.stats(), (1, 3)); // one hit, three builds
    }

    #[test]
    fn dummy_product_variant_transports_too() {
        // The paper's motivating pathology (disconnected decoding) breaks
        // Section 5, not the Routing Theorem — so transport must work.
        let pool = Pool::new(2);
        let base = with_dummy_product(&strassen());
        let class = RoutingClass::build(&base, 1, &pool).unwrap();
        let g = build_cdag(&base, 3);
        let report = verify_transported(&g, &class, &pool);
        assert!(report.verified(), "{report:?}");
        assert!(report.uniform);
    }

    #[test]
    fn laderman_k1_r2_transport() {
        let pool = Pool::serial();
        let base = laderman();
        let class = RoutingClass::build(&base, 1, &pool).unwrap();
        let g = build_cdag(&base, 2);
        let report = verify_transported(&g, &class, &pool);
        assert_eq!(report.copies, 23); // b^{r-k}
        assert!(report.verified(), "{report:?}");
    }

    #[test]
    fn view_transport_matches_explicit() {
        use mmio_cdag::IndexView;
        let base = strassen();
        let g = build_cdag(&base, 3);
        let view = IndexView::from_base(&base, 3);
        for threads in [1usize, 4] {
            let pool = if threads == 1 {
                Pool::serial()
            } else {
                Pool::new(threads)
            };
            let class = RoutingClass::build(&base, 1, &pool).unwrap();
            let explicit = verify_transported(&g, &class, &pool);
            // Same report whether G_r is materialized or purely
            // closed-form.
            let via_index = verify_transported(&view, &class, &pool);
            assert_eq!(format!("{explicit:?}"), format!("{via_index:?}"));
            assert!(explicit.verified());
        }
    }

    #[test]
    #[should_panic(expected = "share a base graph")]
    fn mismatched_base_rejected() {
        let pool = Pool::serial();
        let class = RoutingClass::build(&strassen(), 1, &pool).unwrap();
        let g = build_cdag(&winograd(), 2);
        let _ = verify_transported(&g, &class, &pool);
    }
}
