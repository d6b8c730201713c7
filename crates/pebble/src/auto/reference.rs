//! The reference scheduler: the original naive O(M)-per-miss engine.
//!
//! This is the specification the fast engine in [`crate::auto`] is measured
//! against. Every eviction decision is made by scanning the cache:
//!
//! - *free eviction*: scan for dead values (no remaining uses, stored if an
//!   output) and drop the one with the smallest [`VertexId`];
//! - *policy eviction*: collect all unpinned cached values in
//!   cache-insertion order, compute each candidate's next use lazily, and
//!   let the policy's own scan rule choose ([`ScanPolicy`], kept apart from
//!   the fast engine's structures so the contract compares two
//!   implementations).
//!
//! The fast engine must produce identical [`IoStats`], an identical recorded
//! [`Schedule`], and an identical eviction sequence for every policy — see
//! `super::equivalence`: a proptest over random bases and fixed Strassen
//! `G_3` and Strassen/Winograd `G_4` cases under every policy. Only tests
//! use this engine, so it is compiled into test builds only.

#![cfg(test)]

use super::CacheTooSmall;
use crate::policy::PolicySpec;
use crate::schedule::{Action, Schedule};
use crate::stats::IoStats;
use mmio_cdag::{Cdag, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The reference's eviction rule for one run: a scan over the candidates.
enum ScanPolicy {
    /// Evicts the minimum `(last_touch, VertexId)`.
    Lru { last_touch: Vec<u64> },
    /// Evicts the maximum `(next_use, Reverse(VertexId))`.
    Belady,
    /// Draws uniformly over the candidates in the order presented.
    Random(StdRng),
}

impl ScanPolicy {
    /// A fresh rule for `spec` on a graph with `n` vertices.
    fn new(spec: &PolicySpec, n: usize) -> ScanPolicy {
        match *spec {
            PolicySpec::Lru => ScanPolicy::Lru {
                last_touch: vec![0; n],
            },
            PolicySpec::Belady => ScanPolicy::Belady,
            PolicySpec::Random { seed } => ScanPolicy::Random(StdRng::seed_from_u64(seed)),
        }
    }

    /// Records that `v` was touched (loaded, computed, or used as an
    /// operand) at logical time `time`.
    fn on_touch(&mut self, v: VertexId, time: u64) {
        if let ScanPolicy::Lru { last_touch } = self {
            last_touch[v.idx()] = time;
        }
    }

    /// Chooses which of `candidates` (all live, all cached, in
    /// cache-insertion order) to evict; `next_use[i]` is candidate `i`'s
    /// next use position (`u64::MAX` if none).
    fn choose_victim(&mut self, candidates: &[VertexId], next_use: &[u64]) -> usize {
        let all = 0..candidates.len();
        match self {
            ScanPolicy::Lru { last_touch } => all
                .min_by_key(|&i| (last_touch[candidates[i].idx()], candidates[i]))
                .expect("no eviction candidates"),
            ScanPolicy::Belady => all
                .max_by_key(|&i| (next_use[i], std::cmp::Reverse(candidates[i])))
                .expect("no eviction candidates"),
            ScanPolicy::Random(rng) => rng.gen_range(all),
        }
    }
}

/// The naive scan-based scheduler for one CDAG under a fixed cache size.
pub struct ReferenceScheduler<'g> {
    g: &'g Cdag,
    m: usize,
}

impl<'g> ReferenceScheduler<'g> {
    /// Creates a scheduler with cache size `m`, or reports why it cannot
    /// schedule anything (`m < max_indegree + 1`).
    pub fn try_new(g: &'g Cdag, m: usize) -> Result<ReferenceScheduler<'g>, CacheTooSmall> {
        let need = g.vertices().map(|v| g.preds(v).len()).max().unwrap_or(0) + 1;
        if m < need {
            return Err(CacheTooSmall { m, need });
        }
        Ok(ReferenceScheduler { g, m })
    }

    /// Creates a scheduler with cache size `m`.
    ///
    /// # Panics
    /// Panics if `m` is too small to compute some vertex at all
    /// (`m < max_indegree + 1`).
    pub fn new(g: &'g Cdag, m: usize) -> ReferenceScheduler<'g> {
        match ReferenceScheduler::try_new(g, m) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        }
    }

    /// Runs `order` (all non-input vertices, topologically sorted) under
    /// `policy` and returns the I/O statistics.
    pub fn run(&self, order: &[VertexId], policy: &PolicySpec) -> IoStats {
        self.run_detailed(order, policy, false).0
    }

    /// Like [`ReferenceScheduler::run`], additionally returning the explicit
    /// schedule (for validation against the test-only `sim` replay).
    pub fn run_recorded(&self, order: &[VertexId], policy: &PolicySpec) -> (IoStats, Schedule) {
        let (stats, sched, _) = self.run_detailed(order, policy, true);
        (stats, sched.expect("recording was requested"))
    }

    /// Like [`ReferenceScheduler::run_recorded`], additionally returning the
    /// eviction sequence (every vertex dropped by `ensure_slot`, free and
    /// policy evictions alike, in order) — the strictest equivalence probe.
    pub fn run_traced(
        &self,
        order: &[VertexId],
        policy: &PolicySpec,
    ) -> (IoStats, Schedule, Vec<VertexId>) {
        let (stats, sched, victims) = self.run_detailed(order, policy, true);
        (stats, sched.expect("recording was requested"), victims)
    }

    fn run_detailed(
        &self,
        order: &[VertexId],
        policy: &PolicySpec,
        record: bool,
    ) -> (IoStats, Option<Schedule>, Vec<VertexId>) {
        let g = self.g;
        let n = g.n_vertices();
        let policy = &mut ScanPolicy::new(policy, n);
        debug_assert_eq!(
            order.len(),
            g.vertices().filter(|&v| !g.is_input(v)).count(),
            "order must cover every non-input vertex exactly once"
        );

        // Position of each vertex's computation in the order.
        let mut compute_pos = vec![u64::MAX; n];
        for (i, &v) in order.iter().enumerate() {
            compute_pos[v.idx()] = i as u64;
        }
        // Sorted use positions per vertex (positions of its successors).
        let mut uses: Vec<Vec<u64>> = vec![Vec::new(); n];
        for &v in order {
            for &p in g.preds(v) {
                uses[p.idx()].push(compute_pos[v.idx()]);
            }
        }
        for u in &mut uses {
            u.sort_unstable();
        }
        let mut use_ptr = vec![0usize; n];
        let mut remaining_uses: Vec<u32> = (0..n).map(|i| uses[i].len() as u32).collect();

        // Cache as a membership bitmap + member list for candidate scans.
        let mut in_cache = vec![false; n];
        let mut cache_list: Vec<VertexId> = Vec::with_capacity(self.m.min(n));
        let mut cache_pos = vec![usize::MAX; n];
        let mut dirty = vec![false; n];
        let mut stored = vec![false; n];
        let mut computed = vec![false; n];
        let mut stats = IoStats::default();
        let mut actions: Vec<Action> = Vec::new();
        let mut victims: Vec<VertexId> = Vec::new();
        let mut time: u64 = 0;

        macro_rules! cache_insert {
            ($v:expr) => {{
                let v = $v;
                in_cache[v.idx()] = true;
                cache_pos[v.idx()] = cache_list.len();
                cache_list.push(v);
            }};
        }
        macro_rules! cache_remove {
            ($v:expr) => {{
                let v = $v;
                let pos = cache_pos[v.idx()];
                let last = *cache_list.last().unwrap();
                cache_list.swap_remove(pos);
                if last != v {
                    cache_pos[last.idx()] = pos;
                }
                in_cache[v.idx()] = false;
                cache_pos[v.idx()] = usize::MAX;
            }};
        }

        for (step, &v) in order.iter().enumerate() {
            let step = step as u64;
            let is_dead = |w: VertexId, remaining_uses: &Vec<u32>, stored: &Vec<bool>| -> bool {
                remaining_uses[w.idx()] == 0 && (!g.is_output(w) || stored[w.idx()])
            };

            // Assemble operands, then compute. Operands and v are pinned.
            let pinned = |w: VertexId| -> bool { g.preds(v).contains(&w) || w == v };

            let ensure_slot = |stats: &mut IoStats,
                               actions: &mut Vec<Action>,
                               victims: &mut Vec<VertexId>,
                               in_cache: &mut Vec<bool>,
                               cache_list: &mut Vec<VertexId>,
                               cache_pos: &mut Vec<usize>,
                               dirty: &mut Vec<bool>,
                               stored: &mut Vec<bool>,
                               remaining_uses: &Vec<u32>,
                               use_ptr: &mut Vec<usize>,
                               policy: &mut ScanPolicy| {
                if cache_list.len() < self.m {
                    return;
                }
                // 1) Free eviction of a dead value; smallest id for a
                //    defined, order-independent choice (matches the fast
                //    engine's dead-value min-heap).
                if let Some(&w) = cache_list
                    .iter()
                    .filter(|&&w| {
                        !pinned(w)
                            && remaining_uses[w.idx()] == 0
                            && (!g.is_output(w) || stored[w.idx()])
                    })
                    .min()
                {
                    let pos = cache_pos[w.idx()];
                    let last = *cache_list.last().unwrap();
                    cache_list.swap_remove(pos);
                    if last != w {
                        cache_pos[last.idx()] = pos;
                    }
                    in_cache[w.idx()] = false;
                    cache_pos[w.idx()] = usize::MAX;
                    victims.push(w);
                    if record {
                        actions.push(Action::Drop(w));
                    }
                    return;
                }
                // 2) Live eviction chosen by the policy.
                let candidates: Vec<VertexId> =
                    cache_list.iter().copied().filter(|&w| !pinned(w)).collect();
                let next_use: Vec<u64> = candidates
                    .iter()
                    .map(|&w| {
                        let us = &uses[w.idx()];
                        let mut p = use_ptr[w.idx()];
                        while p < us.len() && us[p] < step {
                            p += 1;
                        }
                        use_ptr[w.idx()] = p;
                        us.get(p).copied().unwrap_or(u64::MAX)
                    })
                    .collect();
                let victim = candidates[policy.choose_victim(&candidates, &next_use)];
                if dirty[victim.idx()] && !stored[victim.idx()] {
                    stats.stores += 1;
                    stored[victim.idx()] = true;
                    if record {
                        actions.push(Action::Store(victim));
                    }
                }
                let pos = cache_pos[victim.idx()];
                let last = *cache_list.last().unwrap();
                cache_list.swap_remove(pos);
                if last != victim {
                    cache_pos[last.idx()] = pos;
                }
                in_cache[victim.idx()] = false;
                cache_pos[victim.idx()] = usize::MAX;
                victims.push(victim);
                if record {
                    actions.push(Action::Drop(victim));
                }
            };

            // Load missing operands.
            for &p in g.preds(v) {
                if in_cache[p.idx()] {
                    policy.on_touch(p, time);
                    time += 1;
                    continue;
                }
                debug_assert!(
                    g.is_input(p) || stored[p.idx()],
                    "invariant violated: evicted live value {p:?} was not stored"
                );
                ensure_slot(
                    &mut stats,
                    &mut actions,
                    &mut victims,
                    &mut in_cache,
                    &mut cache_list,
                    &mut cache_pos,
                    &mut dirty,
                    &mut stored,
                    &remaining_uses,
                    &mut use_ptr,
                    policy,
                );
                cache_insert!(p);
                dirty[p.idx()] = false;
                stats.loads += 1;
                if record {
                    actions.push(Action::Load(p));
                }
                policy.on_touch(p, time);
                time += 1;
            }

            // Compute v.
            ensure_slot(
                &mut stats,
                &mut actions,
                &mut victims,
                &mut in_cache,
                &mut cache_list,
                &mut cache_pos,
                &mut dirty,
                &mut stored,
                &remaining_uses,
                &mut use_ptr,
                policy,
            );
            cache_insert!(v);
            computed[v.idx()] = true;
            dirty[v.idx()] = true;
            stats.computes += 1;
            if record {
                actions.push(Action::Compute(v));
            }
            policy.on_touch(v, time);
            time += 1;

            // Consume one use of each operand; drop operands that died.
            for &p in g.preds(v) {
                remaining_uses[p.idx()] -= 1;
                if in_cache[p.idx()] && is_dead(p, &remaining_uses, &stored) && p != v {
                    cache_remove!(p);
                    if record {
                        actions.push(Action::Drop(p));
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

        (stats, record.then_some(Schedule { actions }), victims)
    }
}

#[cfg(test)]
mod tests {
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
            let sched = ReferenceScheduler::new(&g, m);
            let (stats, schedule) = sched.run_recorded(&order, &Lru);
            let replayed = simulate(&g, &schedule, m).expect("schedule must be valid");
            assert_eq!(replayed, stats, "m={m}");
        }
    }

    #[test]
    fn huge_cache_needs_only_compulsory_io() {
        let g = build_cdag(&classical2_base(), 2);
        let order = orders::rank_order(&g);
        let sched = ReferenceScheduler::new(&g, g.n_vertices() + 1);
        let stats = sched.run(&order, &Belady);
        assert_eq!(stats.loads, 2 * 16); // every input touched once
        assert_eq!(stats.stores, 16); // every output stored once
    }

    #[test]
    fn try_new_reports_need() {
        let g = build_cdag(&classical2_base(), 1);
        let err = ReferenceScheduler::try_new(&g, 2).err().unwrap();
        assert_eq!(err.m, 2);
        assert!(err.need > 2);
        assert!(ReferenceScheduler::try_new(&g, err.need).is_ok());
    }

    #[test]
    #[should_panic(expected = "cannot hold an operand set")]
    fn cache_too_small_panics() {
        let g = build_cdag(&classical2_base(), 1);
        let _ = ReferenceScheduler::new(&g, 2);
    }

    #[test]
    fn lru_picks_least_recent() {
        let mut lru = ScanPolicy::new(&Lru, 3);
        lru.on_touch(VertexId(0), 5);
        lru.on_touch(VertexId(1), 2);
        lru.on_touch(VertexId(2), 9);
        let cands = [VertexId(0), VertexId(1), VertexId(2)];
        assert_eq!(lru.choose_victim(&cands, &[0, 0, 0]), 1);
    }

    #[test]
    fn belady_picks_farthest_use() {
        let mut b = ScanPolicy::new(&Belady, 2);
        let cands = [VertexId(0), VertexId(1)];
        assert_eq!(b.choose_victim(&cands, &[3, 100]), 1);
        assert_eq!(b.choose_victim(&cands, &[u64::MAX, 100]), 0);
    }

    #[test]
    fn random_in_range() {
        let mut r = ScanPolicy::new(&PolicySpec::Random { seed: 1 }, 3);
        let cands = [VertexId(0), VertexId(1), VertexId(2)];
        for _ in 0..50 {
            assert!(r.choose_victim(&cands, &[0, 0, 0]) < 3);
        }
    }
}
