//! The automatic scheduler: compute order + replacement policy → valid
//! schedule + exact I/O count.
//!
//! Given the order in which a program computes the CDAG's vertices, the only
//! remaining freedom in the machine model is *what to keep in cache*. This
//! scheduler makes those decisions with a pluggable [`ReplacementPolicy`],
//! maintaining the invariants the model demands:
//!
//! - a live value (one with uncomputed successors, or an unstored output)
//!   that is evicted while *dirty* (never stored) is stored first — it will
//!   be needed again and the model forbids recomputation;
//! - dead values are evicted first, for free;
//! - outputs are stored the moment they are computed (each output costs
//!   exactly one store in any schedule, so this is never worse).
//!
//! # The fast engine
//!
//! This module is the amortized-O(log M) engine; the original O(M)-per-miss
//! scan engine survives as [`reference::ReferenceScheduler`] and defines the
//! behavior this engine must reproduce exactly (same [`IoStats`], same
//! recorded [`Schedule`], same eviction sequence, for every policy). Three
//! structures replace the per-miss scans:
//!
//! - **Lazy-invalidation policy heaps.** For [`PolicyKind::Belady`] a
//!   max-heap keyed `(next_use, Reverse(id))`; for [`PolicyKind::Lru`] a
//!   min-heap keyed `(last_touch, id)`. Entries are pushed on every key
//!   change and never removed in place; a popped entry is *stale* (its key
//!   no longer matches the vertex's current key, or the vertex left the
//!   cache) and discarded, or *pinned* (an operand of the current step) and
//!   stashed + re-pushed after the victim is found. The VertexId tie-break
//!   makes the victim identical to the reference scan regardless of heap
//!   internals. [`PolicyKind::Other`] policies fall back to a candidate
//!   scan over the cache in insertion order, so stateful policies (random)
//!   observe the exact call sequence the reference makes.
//! - **Dead-value free-list.** A value that is dead the moment it is
//!   computed (a non-output with zero uses under this order) is pushed onto
//!   a min-heap by id; free evictions pop it in O(log M). All other values
//!   die while pinned as operands (or as just-stored outputs) and are
//!   dropped eagerly at that point, so the free-list is exactly the set of
//!   dead values in cache — no lazy validation needed.
//! - **Flat CSR use-lists.** Per-vertex sorted use positions live in one
//!   [`Csr`] (`use_offsets`/`use_positions`) built once per `(graph,
//!   order)` by [`SchedScratch::prepare`] and reused across every
//!   `(policy, M)` run of a sweep; `use_ptr` advances eagerly as uses are
//!   consumed, so "next use" is an O(1) lookup.

pub mod reference;

use crate::graph::PebbleGraph;
use crate::policy::{PolicyKind, ReplacementPolicy};
use crate::schedule::{Action, Schedule};
use crate::stats::{EngineCounters, IoStats};
use mmio_cdag::{Cdag, Csr, VertexId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// Error: the cache cannot hold even one operand set plus its result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheTooSmall {
    /// The requested cache size.
    pub m: usize,
    /// The minimum feasible cache size (`max_indegree + 1`).
    pub need: usize,
}

impl fmt::Display for CacheTooSmall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cache size {} cannot hold an operand set ({} needed)",
            self.m, self.need
        )
    }
}

impl std::error::Error for CacheTooSmall {}

/// What [`AutoScheduler::run_prepared`] should collect beyond [`IoStats`].
#[derive(Clone, Copy, Debug, Default)]
pub struct RunOptions {
    /// Record the full action sequence as a [`Schedule`].
    pub record_schedule: bool,
    /// Record every vertex evicted on a miss (free and policy evictions).
    pub record_victims: bool,
}

/// Everything a scheduler run produces.
#[derive(Clone, Debug)]
pub struct RunOutput {
    /// Exact I/O statistics.
    pub stats: IoStats,
    /// The schedule, if [`RunOptions::record_schedule`] was set.
    pub schedule: Option<Schedule>,
    /// The eviction sequence, if [`RunOptions::record_victims`] was set.
    pub victims: Option<Vec<VertexId>>,
    /// Engine-internal event counts (heap traffic, eviction kinds).
    pub counters: EngineCounters,
}

/// Reusable scheduler state: the per-(graph, order) CSR use-lists plus every
/// per-run vector and heap, so a sweep over a (policy, M) grid allocates
/// once per worker instead of once per run.
#[derive(Default)]
pub struct SchedScratch {
    // Built by `prepare`, immutable during runs.
    compute_pos: Vec<u64>,
    uses: Csr,
    // Per-run state, reset by `run_prepared`.
    use_ptr: Vec<u32>,
    remaining_uses: Vec<u32>,
    in_cache: Vec<bool>,
    cache_list: Vec<VertexId>,
    cache_pos: Vec<u32>,
    dirty: Vec<bool>,
    stored: Vec<bool>,
    pinned_mark: Vec<u64>,
    last_touch: Vec<u64>,
    next_use_cur: Vec<u64>,
    belady_heap: BinaryHeap<(u64, Reverse<VertexId>)>,
    lru_heap: BinaryHeap<Reverse<(u64, VertexId)>>,
    dead_heap: BinaryHeap<Reverse<VertexId>>,
    stash: Vec<(u64, VertexId)>,
    candidates: Vec<VertexId>,
    next_use_buf: Vec<u64>,
}

impl SchedScratch {
    /// Fresh, empty scratch.
    pub fn new() -> SchedScratch {
        SchedScratch::default()
    }

    /// Builds the flat CSR use-lists and compute positions for `(g, order)`,
    /// reusing existing allocations. Must be called before
    /// [`AutoScheduler::run_prepared`] with the same graph and order.
    pub fn prepare<G: PebbleGraph>(&mut self, g: &G, order: &[VertexId]) {
        let n = g.n_vertices();
        self.compute_pos.clear();
        self.compute_pos.resize(n, u64::MAX);
        for (i, &v) in order.iter().enumerate() {
            self.compute_pos[v.idx()] = i as u64;
        }
        // Emitting in ascending order position keeps every row sorted.
        let compute_pos = &self.compute_pos;
        self.uses.rebuild(n, |sink| {
            for &v in order {
                let pos = compute_pos[v.idx()];
                for &p in g.preds(v) {
                    sink(p.0, pos);
                }
            }
        });
    }
}

/// Scheduler for one CDAG under a fixed cache size. Generic over the
/// graph's representation: the full [`Cdag`] (the default) or any other
/// [`PebbleGraph`], e.g. a [`crate::ViewGraph`] materialized from a
/// closed-form view.
pub struct AutoScheduler<'g, G: PebbleGraph = Cdag> {
    g: &'g G,
    m: usize,
}

impl<'g, G: PebbleGraph> AutoScheduler<'g, G> {
    /// Creates a scheduler with cache size `m`, or reports why it cannot
    /// schedule anything (`m < max_indegree + 1`).
    pub fn try_new(g: &'g G, m: usize) -> Result<AutoScheduler<'g, G>, CacheTooSmall> {
        let need = g.max_indegree() + 1;
        if m < need {
            return Err(CacheTooSmall { m, need });
        }
        Ok(AutoScheduler { g, m })
    }

    /// Creates a scheduler with cache size `m`.
    ///
    /// # Panics
    /// Panics if `m` is too small to compute some vertex at all
    /// (`m < max_indegree + 1`).
    pub fn new(g: &'g G, m: usize) -> AutoScheduler<'g, G> {
        match AutoScheduler::try_new(g, m) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        }
    }

    /// Runs `order` (all non-input vertices, topologically sorted) under
    /// `policy` and returns the I/O statistics.
    pub fn run(&self, order: &[VertexId], policy: &mut dyn ReplacementPolicy) -> IoStats {
        let mut scratch = SchedScratch::new();
        scratch.prepare(self.g, order);
        self.run_prepared(order, &mut scratch, policy, RunOptions::default())
            .stats
    }

    /// Like [`AutoScheduler::run`], additionally returning the explicit
    /// schedule (for validation against [`crate::sim::simulate`]).
    pub fn run_recorded(
        &self,
        order: &[VertexId],
        policy: &mut dyn ReplacementPolicy,
    ) -> (IoStats, Schedule) {
        let mut scratch = SchedScratch::new();
        scratch.prepare(self.g, order);
        let out = self.run_prepared(
            order,
            &mut scratch,
            policy,
            RunOptions {
                record_schedule: true,
                record_victims: false,
            },
        );
        (out.stats, out.schedule.expect("recording was requested"))
    }

    /// The full-detail entry point: runs `order` under `policy` using
    /// `scratch`, which must have been [`SchedScratch::prepare`]d for this
    /// scheduler's graph and the same `order`.
    pub fn run_prepared(
        &self,
        order: &[VertexId],
        scratch: &mut SchedScratch,
        policy: &mut dyn ReplacementPolicy,
        opts: RunOptions,
    ) -> RunOutput {
        let g = self.g;
        let m = self.m;
        let n = g.n_vertices();
        debug_assert_eq!(
            order.len(),
            (0..n as u32).filter(|&i| !g.is_input(VertexId(i))).count(),
            "order must cover every non-input vertex exactly once"
        );
        debug_assert_eq!(
            scratch.uses.n_keys(),
            n,
            "scratch must be prepared for this graph and order"
        );

        let SchedScratch {
            compute_pos: _,
            uses,
            use_ptr,
            remaining_uses,
            in_cache,
            cache_list,
            cache_pos,
            dirty,
            stored,
            pinned_mark,
            last_touch,
            next_use_cur,
            belady_heap,
            lru_heap,
            dead_heap,
            stash,
            candidates,
            next_use_buf,
        } = scratch;

        use_ptr.clear();
        use_ptr.resize(n, 0);
        remaining_uses.clear();
        remaining_uses.resize(n, 0);
        for (i, r) in remaining_uses.iter_mut().enumerate() {
            *r = uses.row(i).len() as u32;
        }
        in_cache.clear();
        in_cache.resize(n, false);
        cache_list.clear();
        cache_list.reserve(m);
        cache_pos.clear();
        cache_pos.resize(n, u32::MAX);
        dirty.clear();
        dirty.resize(n, false);
        stored.clear();
        stored.resize(n, false);
        pinned_mark.clear();
        pinned_mark.resize(n, 0);
        last_touch.clear();
        last_touch.resize(n, 0);
        next_use_cur.clear();
        next_use_cur.resize(n, 0);
        belady_heap.clear();
        lru_heap.clear();
        dead_heap.clear();
        stash.clear();

        let pk = policy.kind();
        let record = opts.record_schedule;
        let mut stats = IoStats::default();
        let mut counters = EngineCounters::default();
        let mut actions: Vec<Action> = Vec::new();
        let mut victims: Vec<VertexId> = Vec::new();
        let mut time: u64 = 0;

        macro_rules! cache_insert {
            ($v:expr) => {{
                let v: VertexId = $v;
                in_cache[v.idx()] = true;
                cache_pos[v.idx()] = cache_list.len() as u32;
                cache_list.push(v);
            }};
        }
        macro_rules! cache_remove {
            ($v:expr) => {{
                let v: VertexId = $v;
                let pos = cache_pos[v.idx()] as usize;
                let last = *cache_list.last().unwrap();
                cache_list.swap_remove(pos);
                if last != v {
                    cache_pos[last.idx()] = pos as u32;
                }
                in_cache[v.idx()] = false;
                cache_pos[v.idx()] = u32::MAX;
            }};
        }
        // Mirrors the reference's `policy.on_touch` call sites; for LRU the
        // engine also maintains its own stamp + heap entry.
        macro_rules! touch {
            ($w:expr) => {{
                let w: VertexId = $w;
                policy.on_touch(w, time);
                if pk == PolicyKind::Lru {
                    last_touch[w.idx()] = time;
                    lru_heap.push(Reverse((time, w)));
                    counters.heap_pushes += 1;
                }
                time += 1;
            }};
        }
        // Publishes a vertex's current next-use key to the Belady heap; the
        // previous entry (if any) becomes stale and is discarded at pop.
        macro_rules! refresh_next_use {
            ($w:expr) => {{
                if pk == PolicyKind::Belady {
                    let w: VertexId = $w;
                    let key = uses
                        .row(w.idx())
                        .get(use_ptr[w.idx()] as usize)
                        .copied()
                        .unwrap_or(u64::MAX);
                    next_use_cur[w.idx()] = key;
                    belady_heap.push((key, Reverse(w)));
                    counters.heap_pushes += 1;
                }
            }};
        }

        for (step, &v) in order.iter().enumerate() {
            let step = step as u64;
            // Operands and v are pinned for the whole step; `step + 1` so
            // the zero-initialized marks never match step 0.
            let step_tag = step + 1;
            for &p in g.preds(v) {
                pinned_mark[p.idx()] = step_tag;
            }
            pinned_mark[v.idx()] = step_tag;

            macro_rules! ensure_slot {
                () => {{
                    if cache_list.len() >= m {
                        if let Some(Reverse(w)) = dead_heap.pop() {
                            // 1) O(1) free eviction off the dead free-list.
                            //    Dead values are never pinned: a dead-at-birth
                            //    vertex has no successors to be an operand of.
                            debug_assert!(in_cache[w.idx()]);
                            debug_assert!(pinned_mark[w.idx()] != step_tag);
                            cache_remove!(w);
                            counters.dead_drops += 1;
                            if opts.record_victims {
                                victims.push(w);
                            }
                            if record {
                                actions.push(Action::Drop(w));
                            }
                        } else {
                            // 2) Live eviction chosen by the policy.
                            let victim: VertexId = match pk {
                                PolicyKind::Belady => {
                                    let victim;
                                    loop {
                                        let (key, Reverse(c)) = belady_heap
                                            .pop()
                                            .expect("a live unpinned candidate must exist");
                                        if !in_cache[c.idx()] || key != next_use_cur[c.idx()] {
                                            counters.stale_pops += 1;
                                            continue;
                                        }
                                        if pinned_mark[c.idx()] == step_tag {
                                            stash.push((key, c));
                                            counters.pinned_stashes += 1;
                                            continue;
                                        }
                                        victim = c;
                                        break;
                                    }
                                    for &(k, c) in stash.iter() {
                                        belady_heap.push((k, Reverse(c)));
                                    }
                                    stash.clear();
                                    victim
                                }
                                PolicyKind::Lru => {
                                    let victim;
                                    loop {
                                        let Reverse((stamp, c)) = lru_heap
                                            .pop()
                                            .expect("a live unpinned candidate must exist");
                                        if !in_cache[c.idx()] || stamp != last_touch[c.idx()] {
                                            counters.stale_pops += 1;
                                            continue;
                                        }
                                        if pinned_mark[c.idx()] == step_tag {
                                            stash.push((stamp, c));
                                            counters.pinned_stashes += 1;
                                            continue;
                                        }
                                        victim = c;
                                        break;
                                    }
                                    for &(k, c) in stash.iter() {
                                        lru_heap.push(Reverse((k, c)));
                                    }
                                    stash.clear();
                                    victim
                                }
                                PolicyKind::Other => {
                                    // Candidates in cache-insertion order, as
                                    // the reference engine presents them.
                                    candidates.clear();
                                    next_use_buf.clear();
                                    for &w in cache_list.iter() {
                                        if pinned_mark[w.idx()] != step_tag {
                                            candidates.push(w);
                                            next_use_buf.push(
                                                uses.row(w.idx())
                                                    .get(use_ptr[w.idx()] as usize)
                                                    .copied()
                                                    .unwrap_or(u64::MAX),
                                            );
                                        }
                                    }
                                    let i = policy.choose_victim(candidates, next_use_buf);
                                    candidates[i]
                                }
                            };
                            counters.policy_evictions += 1;
                            if dirty[victim.idx()] && !stored[victim.idx()] {
                                stats.stores += 1;
                                stored[victim.idx()] = true;
                                if record {
                                    actions.push(Action::Store(victim));
                                }
                            }
                            cache_remove!(victim);
                            if opts.record_victims {
                                victims.push(victim);
                            }
                            if record {
                                actions.push(Action::Drop(victim));
                            }
                        }
                    }
                }};
            }

            // Load missing operands.
            for &p in g.preds(v) {
                if in_cache[p.idx()] {
                    touch!(p);
                    continue;
                }
                debug_assert!(
                    g.is_input(p) || stored[p.idx()],
                    "invariant violated: evicted live value {p:?} was not stored"
                );
                ensure_slot!();
                cache_insert!(p);
                dirty[p.idx()] = false;
                stats.loads += 1;
                if record {
                    actions.push(Action::Load(p));
                }
                refresh_next_use!(p);
                touch!(p);
            }

            // Compute v.
            ensure_slot!();
            cache_insert!(v);
            dirty[v.idx()] = true;
            stats.computes += 1;
            if record {
                actions.push(Action::Compute(v));
            }
            refresh_next_use!(v);
            touch!(v);
            if !g.is_output(v) && remaining_uses[v.idx()] == 0 {
                // Dead at birth: the only way a dead value stays in cache.
                dead_heap.push(Reverse(v));
            }

            // Consume one use of each operand; drop operands that died.
            for &p in g.preds(v) {
                remaining_uses[p.idx()] -= 1;
                use_ptr[p.idx()] += 1;
                if in_cache[p.idx()] && p != v {
                    if remaining_uses[p.idx()] == 0 && (!g.is_output(p) || stored[p.idx()]) {
                        cache_remove!(p);
                        if record {
                            actions.push(Action::Drop(p));
                        }
                    } else {
                        refresh_next_use!(p);
                    }
                }
            }

            // Outputs are stored (and dropped) immediately.
            if g.is_output(v) {
                stats.stores += 1;
                stored[v.idx()] = true;
                if record {
                    actions.push(Action::Store(v));
                }
                if remaining_uses[v.idx()] == 0 {
                    cache_remove!(v);
                    if record {
                        actions.push(Action::Drop(v));
                    }
                }
            }
        }

        RunOutput {
            stats,
            schedule: record.then_some(Schedule { actions }),
            victims: opts.record_victims.then_some(victims),
            counters,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::ReferenceScheduler;
    use super::*;
    use crate::orders;
    use crate::policy::{Belady, Lru, RandomEvict};
    use crate::sim::simulate;
    use mmio_cdag::build::build_cdag;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use crate::testutil::classical2_base;

    #[test]
    fn recorded_schedule_is_valid() {
        let g = build_cdag(&classical2_base(), 2);
        let order = orders::rank_order(&g);
        for m in [8usize, 16, 64] {
            let sched = AutoScheduler::new(&g, m);
            let (stats, schedule) = sched.run_recorded(&order, &mut Lru::new(g.n_vertices()));
            let replayed = simulate(&g, &schedule, m).expect("schedule must be valid");
            assert_eq!(replayed, stats, "m={m}");
        }
    }

    #[test]
    fn recursive_order_recorded_schedule_is_valid() {
        let g = build_cdag(&classical2_base(), 2);
        let order = orders::recursive_order(&g);
        let sched = AutoScheduler::new(&g, 10);
        let (stats, schedule) = sched.run_recorded(&order, &mut Belady);
        let replayed = simulate(&g, &schedule, 10).expect("schedule must be valid");
        assert_eq!(replayed, stats);
    }

    #[test]
    fn huge_cache_needs_only_compulsory_io() {
        // With cache larger than the whole graph: loads = touched inputs,
        // stores = outputs.
        let g = build_cdag(&classical2_base(), 2);
        let order = orders::rank_order(&g);
        let sched = AutoScheduler::new(&g, g.n_vertices() + 1);
        let stats = sched.run(&order, &mut Lru::new(g.n_vertices()));
        assert_eq!(stats.loads, 2 * 16); // every input touched once
        assert_eq!(stats.stores, 16); // every output stored once
    }

    #[test]
    fn working_set_suffices_for_compulsory_io() {
        // The working set of an order at step i is every value computed
        // (or input first read) at or before i and still read at or after
        // i. Its maximum for classical2 G_2's recursive order is 48, so at
        // M = 49 LRU does only compulsory I/O: one load per input, one
        // store per output.
        let g = build_cdag(&classical2_base(), 2);
        let order = orders::recursive_order(&g);
        let stats = AutoScheduler::new(&g, 49).run(&order, &mut Lru::new(g.n_vertices()));
        assert_eq!(stats.loads, 2 * 16);
        assert_eq!(stats.stores, 16);
    }

    #[test]
    fn recursive_order_needs_less_cache_than_rank_order() {
        // On classical2 G_3 the largest working set is 192 for the
        // recursive order and 1025 for rank-by-rank. At M = 193 the
        // recursive order does only compulsory I/O; rank-by-rank does not.
        let g = build_cdag(&classical2_base(), 3);
        let run = |order: &[VertexId]| {
            AutoScheduler::new(&g, 193).run(order, &mut Lru::new(g.n_vertices()))
        };
        let rec = run(&orders::recursive_order(&g));
        assert_eq!((rec.loads, rec.stores), (2 * 64, 64));
        let rank = run(&orders::rank_order(&g));
        assert!(rank.io() > rec.io(), "rank-by-rank {rank:?}");
    }

    #[test]
    fn smaller_cache_never_reduces_io() {
        let g = build_cdag(&classical2_base(), 2);
        let order = orders::recursive_order(&g);
        let mut last = None;
        for m in [64usize, 32, 16, 8] {
            let stats = AutoScheduler::new(&g, m).run(&order, &mut Belady);
            if let Some(prev) = last {
                assert!(stats.io() >= prev, "m={m}: {} < {prev}", stats.io());
            }
            last = Some(stats.io());
        }
    }

    #[test]
    fn belady_never_worse_than_lru() {
        let g = build_cdag(&classical2_base(), 2);
        for order in [orders::rank_order(&g), orders::recursive_order(&g)] {
            for m in [8usize, 12, 24, 48] {
                let b = AutoScheduler::new(&g, m).run(&order, &mut Belady);
                let l = AutoScheduler::new(&g, m).run(&order, &mut Lru::new(g.n_vertices()));
                assert!(
                    b.io() <= l.io(),
                    "belady {} > lru {} at m={m}",
                    b.io(),
                    l.io()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot hold an operand set")]
    fn cache_too_small_panics() {
        let g = build_cdag(&classical2_base(), 1);
        let _ = AutoScheduler::new(&g, 2);
    }

    #[test]
    fn try_new_reports_need() {
        let g = build_cdag(&classical2_base(), 1);
        let err = AutoScheduler::try_new(&g, 2).err().unwrap();
        assert_eq!(err.m, 2);
        assert!(err.need > 2);
        assert_eq!(
            err.to_string(),
            format!(
                "cache size 2 cannot hold an operand set ({} needed)",
                err.need
            )
        );
        assert!(AutoScheduler::try_new(&g, err.need).is_ok());
    }

    /// The equivalence contract: identical stats, schedule, and eviction
    /// sequence vs the reference scan engine, for every policy kind.
    #[test]
    fn fast_engine_matches_reference_exactly() {
        let g = build_cdag(&classical2_base(), 2);
        let opts = RunOptions {
            record_schedule: true,
            record_victims: true,
        };
        for order in [orders::rank_order(&g), orders::recursive_order(&g)] {
            for m in [8usize, 10, 16, 32, 64] {
                for which in ["lru", "belady", "random"] {
                    let mut fast_policy: Box<dyn crate::policy::ReplacementPolicy> = match which {
                        "lru" => Box::new(Lru::new(g.n_vertices())),
                        "belady" => Box::new(Belady),
                        _ => Box::new(RandomEvict::new(StdRng::seed_from_u64(42))),
                    };
                    let mut ref_policy: Box<dyn crate::policy::ReplacementPolicy> = match which {
                        "lru" => Box::new(Lru::new(g.n_vertices())),
                        "belady" => Box::new(Belady),
                        _ => Box::new(RandomEvict::new(StdRng::seed_from_u64(42))),
                    };
                    let mut scratch = SchedScratch::new();
                    scratch.prepare(&g, &order);
                    let fast = AutoScheduler::new(&g, m).run_prepared(
                        &order,
                        &mut scratch,
                        fast_policy.as_mut(),
                        opts,
                    );
                    let (rs, rsched, rvictims) =
                        ReferenceScheduler::new(&g, m).run_traced(&order, ref_policy.as_mut());
                    assert_eq!(fast.stats, rs, "{which} m={m}: stats diverge");
                    assert_eq!(
                        fast.schedule.as_ref().unwrap(),
                        &rsched,
                        "{which} m={m}: schedules diverge"
                    );
                    assert_eq!(
                        fast.victims.as_ref().unwrap(),
                        &rvictims,
                        "{which} m={m}: victim sequences diverge"
                    );
                }
            }
        }
    }

    /// Scratch reuse across runs with different policies and cache sizes
    /// must not leak state between runs.
    #[test]
    fn scratch_reuse_is_clean() {
        let g = build_cdag(&classical2_base(), 2);
        let order = orders::recursive_order(&g);
        let mut scratch = SchedScratch::new();
        scratch.prepare(&g, &order);
        let opts = RunOptions::default();
        let mut io = Vec::new();
        for _ in 0..2 {
            for m in [8usize, 32] {
                let a = AutoScheduler::new(&g, m)
                    .run_prepared(&order, &mut scratch, &mut Belady, opts)
                    .stats;
                let b = AutoScheduler::new(&g, m)
                    .run_prepared(&order, &mut scratch, &mut Lru::new(g.n_vertices()), opts)
                    .stats;
                io.push((a, b));
            }
        }
        assert_eq!(io[0], io[2]);
        assert_eq!(io[1], io[3]);
    }

    #[test]
    fn counters_report_engine_activity() {
        let g = build_cdag(&classical2_base(), 2);
        let order = orders::recursive_order(&g);
        let mut scratch = SchedScratch::new();
        scratch.prepare(&g, &order);
        let out = AutoScheduler::new(&g, 8).run_prepared(
            &order,
            &mut scratch,
            &mut Belady,
            RunOptions::default(),
        );
        assert!(out.counters.policy_evictions > 0);
        assert!(out.counters.heap_pushes > 0);
    }
}
