//! The automatic scheduler: compute order + replacement policy → valid
//! schedule + exact I/O count.
//!
//! Given the order in which a program computes the CDAG's vertices, the only
//! remaining freedom in the machine model is *what to keep in cache*. This
//! scheduler makes those decisions under a [`PolicySpec`], maintaining the
//! invariants the model demands:
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
//! This module is the O(log M)-per-event engine. The original
//! O(M)-per-miss scan engine lives on, in test builds only, as
//! `reference::ReferenceScheduler`: it defines the behavior this engine
//! must reproduce exactly (same [`IoStats`], same recorded [`Schedule`],
//! same eviction sequence, for every policy). Every structure that holds
//! cached vertices is bounded by the cache, and sized by `min(M, n)`:
//!
//! - **An exact structure per policy.** For [`PolicySpec::Lru`] an
//!   intrusive recency list: a touch moves the vertex to the hot end in
//!   O(1), and the victim is the first unpinned vertex from the cold end.
//!   For [`PolicySpec::Belady`] an indexed binary max-heap of
//!   `(next_use, Reverse(id))` entries, key inline: a key changes in place
//!   and an eviction removes its entry, so the heap holds exactly the
//!   cached vertices. Its top is never pinned: an operand's next use is the
//!   current step, every other cached vertex's is later. Both tie-breaks
//!   are those of the reference scan, so the victim is identical, not
//!   merely equally good. [`PolicySpec::Random`] keeps the cache in
//!   insertion order and draws from the unpinned candidates in that order
//!   with a per-run `StdRng`, so every draw is the reference's draw.
//! - **Dead-value free-list.** A value that is dead the moment it is
//!   computed (a non-output with zero uses under this order) is pushed onto
//!   a min-heap by id; free evictions pop it in O(log M). All other values
//!   die while pinned as operands (or as just-stored outputs) and are
//!   dropped eagerly at that point, so the free-list is exactly the set of
//!   dead values in cache — no lazy validation needed.
//! - **Flat CSR use-lists.** Per-vertex sorted use positions, each row
//!   closed by a `u64::MAX` sentinel, live in one [`Csr`] built once per
//!   `(graph, order)` by [`UseLists::new`] and shared, read-only, by every
//!   `(policy, M)` run of a sweep. A per-vertex cursor into it advances
//!   eagerly as uses are consumed, so "next use" is one load, and "no uses
//!   left" is that load returning the sentinel.

#[cfg(test)]
mod equivalence;
#[cfg(test)]
mod reference;

use crate::graph::PebbleGraph;
use crate::policy::PolicySpec;
use crate::schedule::{Action, Schedule};
use crate::stats::{EngineCounters, IoStats};
use mmio_cdag::{Cdag, Csr, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Serialize, Value};
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

/// The in-band form a sweep reports for an infeasible grid point.
impl Serialize for CacheTooSmall {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            (
                "error".to_string(),
                Value::Str("cache_too_small".to_string()),
            ),
            ("m".to_string(), Value::UInt(self.m as u64)),
            ("need".to_string(), Value::UInt(self.need as u64)),
        ])
    }
}

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
    /// Engine-internal event counts (eviction kinds).
    pub counters: EngineCounters,
}

/// The immutable per-`(graph, order)` input of a run: every vertex's
/// sorted use positions, each row closed by a `u64::MAX` sentinel. Built
/// once and shared, read-only, by any number of concurrent runs.
pub struct UseLists {
    uses: Csr,
}

impl UseLists {
    /// Builds the use-lists of `g` under `order` (every non-input vertex,
    /// topologically sorted).
    pub fn new<G: PebbleGraph>(g: &G, order: &[VertexId]) -> UseLists {
        let n = g.n_vertices();
        let mut uses = Csr::new();
        // Emitting in ascending order position keeps every row sorted, and
        // the sentinels come last.
        uses.rebuild(n, |sink| {
            for (pos, &v) in order.iter().enumerate() {
                for &p in g.preds(v) {
                    sink(p.0, pos as u64);
                }
            }
            for k in 0..n as u32 {
                sink(k, u64::MAX);
            }
        });
        UseLists { uses }
    }

    /// Every vertex's cursor before its first use: the start of its row.
    fn first_cursors(&self) -> &[u32] {
        let offsets = self.uses.offsets();
        &offsets[..offsets.len() - 1]
    }

    /// The use position under `cursor`: a vertex's next use, or `u64::MAX`
    /// once all of its uses are consumed.
    #[inline]
    fn at(&self, cursor: u32) -> u64 {
        self.uses.items()[cursor as usize]
    }
}

/// Per-vertex flag bits: cached; computed and not reloaded since (a
/// store is owed if it is evicted unstored); written to slow memory.
const IN_CACHE: u8 = 1;
const DIRTY: u8 = 2;
const STORED: u8 = 4;

/// Link and position sentinel: "not in the structure".
const NIL: u32 = u32::MAX;

/// An intrusive doubly-linked list of the cached vertices in recency order,
/// coldest first: the exact LRU order without stamps.
#[derive(Default)]
struct RecencyList {
    prev: Vec<u32>,
    next: Vec<u32>,
    cold: u32,
    hot: u32,
}

impl RecencyList {
    fn reset(&mut self, n: usize) {
        self.prev.clear();
        self.prev.resize(n, NIL);
        self.next.clear();
        self.next.resize(n, NIL);
        self.cold = NIL;
        self.hot = NIL;
    }

    /// Moves `v` (listed or not) to the hot end.
    fn touch(&mut self, v: VertexId) {
        if self.hot == v.0 {
            return;
        }
        if self.prev[v.idx()] != NIL || self.cold == v.0 {
            self.remove(v);
        }
        self.prev[v.idx()] = self.hot;
        match self.hot {
            NIL => self.cold = v.0,
            h => self.next[h as usize] = v.0,
        }
        self.hot = v.0;
    }

    /// Unlinks listed `v`.
    fn remove(&mut self, v: VertexId) {
        let (p, nx) = (self.prev[v.idx()], self.next[v.idx()]);
        match p {
            NIL => self.cold = nx,
            p => self.next[p as usize] = nx,
        }
        match nx {
            NIL => self.hot = p,
            nx => self.prev[nx as usize] = p,
        }
        self.prev[v.idx()] = NIL;
        self.next[v.idx()] = NIL;
    }

    /// The coldest vertex for which `pinned` is false.
    fn coldest_unpinned(&self, pinned: impl Fn(u32) -> bool) -> Option<VertexId> {
        let mut c = self.cold;
        while c != NIL && pinned(c) {
            c = self.next[c as usize];
        }
        (c != NIL).then_some(VertexId(c))
    }
}

/// An indexed binary max-heap of `(next_use, Reverse(id))` over the cached
/// vertices: `pos[v]` is `v`'s slot in `entries`, so a key changes in place
/// and a removal takes the entry out, and the top is Belady's victim.
#[derive(Default)]
struct NextUseHeap {
    entries: Vec<(u64, Reverse<VertexId>)>,
    pos: Vec<u32>,
}

impl NextUseHeap {
    fn reset(&mut self, n: usize, cap: usize) {
        self.entries.clear();
        self.entries.reserve(cap);
        self.pos.clear();
        self.pos.resize(n, NIL);
    }

    /// Inserts `v` with `key`, or moves it to `key` if present.
    fn set(&mut self, v: VertexId, key: u64) {
        match self.pos[v.idx()] {
            NIL => {
                self.entries.push((key, Reverse(v)));
                self.sift_up(self.entries.len() - 1);
            }
            i => {
                let i = i as usize;
                let old = self.entries[i].0;
                self.entries[i].0 = key;
                if key > old {
                    self.sift_up(i);
                } else {
                    self.sift_down(i);
                }
            }
        }
    }

    /// Removes present `v`.
    fn remove(&mut self, v: VertexId) {
        let i = self.pos[v.idx()] as usize;
        self.pos[v.idx()] = NIL;
        let last = self.entries.pop().expect("a present vertex has an entry");
        if i < self.entries.len() {
            self.entries[i] = last;
            self.sift_up(i);
            self.sift_down(self.pos[last.1 .0.idx()] as usize);
        }
    }

    /// The vertex with the farthest next use, smallest id on ties.
    fn top(&self) -> Option<VertexId> {
        self.entries.first().map(|&(_, Reverse(v))| v)
    }

    /// Writes `e` into slot `i` and records the slot.
    fn place(&mut self, i: usize, e: (u64, Reverse<VertexId>)) {
        self.entries[i] = e;
        self.pos[e.1 .0.idx()] = i as u32;
    }

    fn sift_up(&mut self, mut i: usize) {
        let e = self.entries[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.entries[parent] >= e {
                break;
            }
            self.place(i, self.entries[parent]);
            i = parent;
        }
        self.place(i, e);
    }

    fn sift_down(&mut self, mut i: usize) {
        let e = self.entries[i];
        let len = self.entries.len();
        loop {
            let left = 2 * i + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let child = if right < len && self.entries[right] > self.entries[left] {
                right
            } else {
                left
            };
            if self.entries[child] <= e {
                break;
            }
            self.place(i, self.entries[child]);
            i = child;
        }
        self.place(i, e);
    }
}

/// Reusable per-run scheduler state: per-vertex progress and flags, the
/// policy structure, and the dead free-list. Everything that holds cached
/// vertices is sized by `min(M, n)`, never by `M` alone. Reset by every
/// [`AutoScheduler::run_prepared`], so one scratch serves any sequence of
/// runs over any graphs.
#[derive(Default)]
pub struct SchedScratch {
    cursor: Vec<u32>,
    flags: Vec<u8>,
    lru: RecencyList,
    belady: NextUseHeap,
    dead_heap: BinaryHeap<Reverse<VertexId>>,
    // `PolicySpec::Random` only: the cache in insertion order (with
    // swap-remove, as the reference engine keeps it) and the scan buffer.
    cache_list: Vec<VertexId>,
    cache_pos: Vec<u32>,
    candidates: Vec<VertexId>,
}

impl SchedScratch {
    /// Fresh, empty scratch.
    pub fn new() -> SchedScratch {
        SchedScratch::default()
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
        let need = g.max_indegree().saturating_add(1);
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
    pub fn run(&self, order: &[VertexId], policy: &PolicySpec) -> IoStats {
        let uses = UseLists::new(self.g, order);
        self.run_prepared(
            order,
            &uses,
            &mut SchedScratch::new(),
            policy,
            RunOptions::default(),
        )
        .stats
    }

    /// Like [`AutoScheduler::run`], additionally returning the explicit
    /// schedule (for validation against a schedule checker).
    pub fn run_recorded(&self, order: &[VertexId], policy: &PolicySpec) -> (IoStats, Schedule) {
        let uses = UseLists::new(self.g, order);
        let out = self.run_prepared(
            order,
            &uses,
            &mut SchedScratch::new(),
            policy,
            RunOptions {
                record_schedule: true,
                record_victims: false,
            },
        );
        (out.stats, out.schedule.expect("recording was requested"))
    }

    /// The full-detail entry point: runs `order` under `policy`, reading
    /// `uses` (built by [`UseLists::new`] for this scheduler's graph and
    /// the same `order`) and resetting `scratch` for its per-run state.
    pub fn run_prepared(
        &self,
        order: &[VertexId],
        uses: &UseLists,
        scratch: &mut SchedScratch,
        policy: &PolicySpec,
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
            uses.uses.n_keys(),
            n,
            "use-lists must be built for this graph and order"
        );

        let SchedScratch {
            cursor,
            flags,
            lru,
            belady,
            dead_heap,
            cache_list,
            cache_pos,
            candidates,
        } = scratch;

        let policy = *policy;
        // The cache never holds more than every vertex.
        let cap = m.min(n);
        cursor.clear();
        cursor.extend_from_slice(uses.first_cursors());
        flags.clear();
        flags.resize(n, 0);
        dead_heap.clear();
        let mut rng = None;
        match policy {
            PolicySpec::Lru => lru.reset(n),
            PolicySpec::Belady => belady.reset(n, cap),
            PolicySpec::Random { seed } => {
                rng = Some(StdRng::seed_from_u64(seed));
                cache_list.clear();
                cache_list.reserve(cap);
                cache_pos.clear();
                cache_pos.resize(n, NIL);
            }
        }
        let random = rng.is_some();

        let record = opts.record_schedule;
        let mut occupancy: usize = 0;
        let mut stats = IoStats::default();
        let mut counters = EngineCounters::default();
        let mut actions: Vec<Action> = Vec::new();
        let mut victims: Vec<VertexId> = Vec::new();

        // Every cached vertex sits in the policy's structure; these two
        // keep the cache and that structure in step.
        macro_rules! cache_insert {
            ($v:expr) => {{
                let v: VertexId = $v;
                flags[v.idx()] |= IN_CACHE;
                occupancy += 1;
                if random {
                    cache_pos[v.idx()] = cache_list.len() as u32;
                    cache_list.push(v);
                }
            }};
        }
        macro_rules! cache_remove {
            ($v:expr) => {{
                let v: VertexId = $v;
                flags[v.idx()] &= !IN_CACHE;
                occupancy -= 1;
                match policy {
                    PolicySpec::Lru => lru.remove(v),
                    PolicySpec::Belady => belady.remove(v),
                    PolicySpec::Random { .. } => {
                        let pos = cache_pos[v.idx()] as usize;
                        let last = *cache_list.last().unwrap();
                        cache_list.swap_remove(pos);
                        if last != v {
                            cache_pos[last.idx()] = pos as u32;
                        }
                        cache_pos[v.idx()] = NIL;
                    }
                }
            }};
        }
        // Mirrors the reference's touch sites; only LRU keeps recency.
        macro_rules! touch {
            ($w:expr) => {{
                if policy == PolicySpec::Lru {
                    lru.touch($w);
                }
            }};
        }
        // Publishes a cached vertex's current next-use key to the Belady
        // heap, in place.
        macro_rules! refresh_next_use {
            ($w:expr) => {{
                if policy == PolicySpec::Belady {
                    let w: VertexId = $w;
                    belady.set(w, uses.at(cursor[w.idx()]));
                }
            }};
        }

        for &v in order {
            // Operands and v are pinned for the whole step: never evicted
            // to make room for one another. In-degrees are small, so a
            // scan beats per-vertex marks.
            let pinned = |w: VertexId| w == v || g.preds(v).contains(&w);

            macro_rules! ensure_slot {
                () => {{
                    if occupancy >= m {
                        if let Some(Reverse(w)) = dead_heap.pop() {
                            // 1) Free eviction off the dead free-list. Dead
                            //    values are never pinned: a dead-at-birth
                            //    vertex has no successors to be an operand of.
                            debug_assert!(flags[w.idx()] & IN_CACHE != 0);
                            debug_assert!(!pinned(w));
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
                            let victim: VertexId = match policy {
                                PolicySpec::Belady => {
                                    let top = belady.top().expect("the cache is full");
                                    debug_assert!(
                                        !pinned(top),
                                        "an operand's next use is the current step, \
                                         every other cached vertex's is later"
                                    );
                                    top
                                }
                                PolicySpec::Lru => lru
                                    .coldest_unpinned(|c| pinned(VertexId(c)))
                                    .expect("a live unpinned candidate must exist"),
                                PolicySpec::Random { .. } => {
                                    // Candidates in cache-insertion order, as
                                    // the reference engine presents them.
                                    candidates.clear();
                                    candidates
                                        .extend(cache_list.iter().copied().filter(|&w| !pinned(w)));
                                    let rng = rng.as_mut().expect("seeded for a random run");
                                    candidates[rng.gen_range(0..candidates.len())]
                                }
                            };
                            counters.policy_evictions += 1;
                            if flags[victim.idx()] & (DIRTY | STORED) == DIRTY {
                                stats.stores += 1;
                                flags[victim.idx()] |= STORED;
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
                if flags[p.idx()] & IN_CACHE != 0 {
                    touch!(p);
                    continue;
                }
                debug_assert!(
                    g.is_input(p) || flags[p.idx()] & STORED != 0,
                    "invariant violated: evicted live value {p:?} was not stored"
                );
                ensure_slot!();
                cache_insert!(p);
                flags[p.idx()] &= !DIRTY;
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
            flags[v.idx()] |= DIRTY;
            stats.computes += 1;
            if record {
                actions.push(Action::Compute(v));
            }
            refresh_next_use!(v);
            touch!(v);
            if !g.is_output(v) && uses.at(cursor[v.idx()]) == u64::MAX {
                // Dead at birth: the only way a dead value stays in cache.
                dead_heap.push(Reverse(v));
            }

            // Consume one use of each operand; drop operands that died.
            for &p in g.preds(v) {
                cursor[p.idx()] += 1;
                if flags[p.idx()] & IN_CACHE != 0 && p != v {
                    if uses.at(cursor[p.idx()]) == u64::MAX
                        && (!g.is_output(p) || flags[p.idx()] & STORED != 0)
                    {
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
                flags[v.idx()] |= STORED;
                if record {
                    actions.push(Action::Store(v));
                }
                if uses.at(cursor[v.idx()]) == u64::MAX {
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
    use crate::policy::{Belady, Lru};
    use crate::sim::simulate;
    use mmio_cdag::build::build_cdag;

    use crate::testutil::classical2_base;

    #[test]
    fn recorded_schedule_is_valid() {
        let g = build_cdag(&classical2_base(), 2);
        let order = orders::rank_order(&g);
        for m in [8usize, 16, 64] {
            let sched = AutoScheduler::new(&g, m);
            let (stats, schedule) = sched.run_recorded(&order, &Lru);
            let replayed = simulate(&g, &schedule, m).expect("schedule must be valid");
            assert_eq!(replayed, stats, "m={m}");
        }
    }

    #[test]
    fn recursive_order_recorded_schedule_is_valid() {
        let g = build_cdag(&classical2_base(), 2);
        let order = orders::recursive_order(&g);
        let sched = AutoScheduler::new(&g, 10);
        let (stats, schedule) = sched.run_recorded(&order, &Belady);
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
        let stats = sched.run(&order, &Lru);
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
        let stats = AutoScheduler::new(&g, 49).run(&order, &Lru);
        assert_eq!(stats.loads, 2 * 16);
        assert_eq!(stats.stores, 16);
    }

    #[test]
    fn recursive_order_needs_less_cache_than_rank_order() {
        // On classical2 G_3 the largest working set is 192 for the
        // recursive order and 1025 for rank-by-rank. At M = 193 the
        // recursive order does only compulsory I/O; rank-by-rank does not.
        let g = build_cdag(&classical2_base(), 3);
        let run = |order: &[VertexId]| AutoScheduler::new(&g, 193).run(order, &Lru);
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
            let stats = AutoScheduler::new(&g, m).run(&order, &Belady);
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
                let b = AutoScheduler::new(&g, m).run(&order, &Belady);
                let l = AutoScheduler::new(&g, m).run(&order, &Lru);
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
                for policy in [Lru, Belady, PolicySpec::Random { seed: 42 }] {
                    let which = policy.name();
                    let fast = AutoScheduler::new(&g, m).run_prepared(
                        &order,
                        &UseLists::new(&g, &order),
                        &mut SchedScratch::new(),
                        &policy,
                        opts,
                    );
                    let (rs, rsched, rvictims) =
                        ReferenceScheduler::new(&g, m).run_traced(&order, &policy);
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
        let uses = UseLists::new(&g, &order);
        let mut scratch = SchedScratch::new();
        let opts = RunOptions::default();
        let mut io = Vec::new();
        for _ in 0..2 {
            for m in [8usize, 32] {
                let mut run = |policy: PolicySpec| {
                    AutoScheduler::new(&g, m)
                        .run_prepared(&order, &uses, &mut scratch, &policy, opts)
                        .stats
                };
                let a = run(Belady);
                let b = run(Lru);
                let c = run(PolicySpec::Random { seed: 3 });
                io.push((a, b, c));
            }
        }
        assert_eq!(io[0], io[2]);
        assert_eq!(io[1], io[3]);
    }

    #[test]
    fn counters_report_engine_activity() {
        let g = build_cdag(&classical2_base(), 2);
        let order = orders::recursive_order(&g);
        let out = AutoScheduler::new(&g, 8).run_prepared(
            &order,
            &UseLists::new(&g, &order),
            &mut SchedScratch::new(),
            &Belady,
            RunOptions {
                record_schedule: false,
                record_victims: true,
            },
        );
        assert!(out.counters.policy_evictions > 0);
        // Every eviction on a miss is either a free drop or a policy pick.
        assert_eq!(
            out.counters.policy_evictions + out.counters.dead_drops,
            out.victims.unwrap().len() as u64
        );
    }

    /// A cache larger than the graph behaves exactly like one that holds
    /// the whole graph, and nothing is sized by `M` itself: `10^12` and
    /// `usize::MAX` neither abort on allocation nor overflow a capacity.
    #[test]
    fn huge_cache_is_bounded_by_the_graph() {
        let g = build_cdag(&classical2_base(), 2);
        let order = orders::recursive_order(&g);
        let n = g.n_vertices();
        for policy in [Lru, Belady, PolicySpec::Random { seed: 5 }] {
            let run = |m: usize| AutoScheduler::new(&g, m).run(&order, &policy);
            let whole = run(n + 1);
            assert_eq!((whole.loads, whole.stores), (2 * 16, 16));
            for m in [1_000_000_000_000, usize::MAX] {
                assert_eq!(run(m), whole, "policy {policy:?}, M = {m}");
            }
        }
    }
}
