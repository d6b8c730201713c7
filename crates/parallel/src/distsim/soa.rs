//! The flat structure-of-arrays distributed simulator.
//!
//! Why it is exactly equivalent to the reference engine (the dense
//! oracle in `distsim/reference.rs`, compiled into test builds only):
//!
//! - **Per-rank decomposability.** A rank's cache is touched only by the
//!   steps it owns (every `touch` in the reference targets the step's
//!   owner), and its counters are only incremented by its own touches
//!   plus the (additive) `sent` counter charged by other ranks' misses.
//!   So stepping each rank through its own sub-sequence of the global
//!   order — in any rank order, on any thread — reproduces the exact
//!   per-rank state trajectory of the interleaved reference run.
//! - **LRU without stamps.** The reference evicts the minimum-stamp
//!   cache member, and stamps come from a strictly increasing global
//!   clock, so within one rank's cache stamps are unique and their
//!   order is exactly recency order. An intrusive doubly-linked LRU
//!   list (move-to-front on hit, evict tail) therefore selects the
//!   identical victim every time — no stamps, no O(M) scan.
//! - **Event stream reconstruction.** Every event of a step (operand
//!   evicts/sends/recvs/inserts, the exec, the result insert) is
//!   emitted by the step's owner, contiguously. Each shard records its
//!   ranks' events plus a per-step event count; a serial merge walks
//!   the global order with one cursor per rank and splices each step's
//!   events back — byte-identical to the reference's interleaved
//!   stream, independent of sharding and thread count.
//!
//! State is O(threads·min(M, work) + V): shards process their ranks
//! sequentially, reusing one slot arena (vertex/prev/next/chain arrays,
//! sized by the shard's largest per-rank touch bound, never more than
//! M) and one chained-hash residency table (cleared per rank). With a
//! machine model, the run adds one contention accumulator of
//! `rounds·(2P + links)` words, which the shards fill through bounded
//! send buffers (see [`ShardLoads`]), and one round byte per vertex
//! ([`round_table`]).

use super::topo::{ContAcc, ContentionReport, MachineModel};
use super::{DistEvent, DistOutcome, DistRun, DistTrace};
use crate::assign::Assignment;
use crate::pool::Pool;
use mmio_cdag::{CdagView, IndexView, VertexId};
use std::sync::Mutex;

const NONE: u32 = u32::MAX;

/// One rank's cache: a fixed slot arena threaded by an intrusive LRU
/// list, with a chained hash table for O(1) residency lookup. Reused
/// across ranks within a shard via [`RankCache::reset`].
struct RankCache {
    /// Semantic capacity (the model's M): evict when `len` reaches it.
    limit: usize,
    /// Vertex held by each slot.
    vertex: Vec<u32>,
    /// LRU list: towards most-recent.
    prev: Vec<u32>,
    /// LRU list: towards least-recent.
    next: Vec<u32>,
    /// Hash chain successor per slot.
    chain: Vec<u32>,
    /// Hash bucket heads (power-of-two length).
    buckets: Vec<u32>,
    /// `32 - log2(buckets.len())`, for Fibonacci bucket hashing.
    shift: u32,
    head: u32,
    tail: u32,
    len: u32,
}

impl RankCache {
    /// `limit` is the model's M; `slots` bounds how many can ever be
    /// resident at once (≤ limit, and ≤ the rank's distinct touches).
    fn new(limit: usize, slots: usize) -> RankCache {
        let slots = slots.max(1);
        let nbuckets = (2 * slots).next_power_of_two();
        RankCache {
            limit,
            vertex: vec![0; slots],
            prev: vec![NONE; slots],
            next: vec![NONE; slots],
            chain: vec![NONE; slots],
            buckets: vec![NONE; nbuckets],
            shift: 32 - nbuckets.trailing_zeros(),
            head: NONE,
            tail: NONE,
            len: 0,
        }
    }

    fn reset(&mut self) {
        self.buckets.fill(NONE);
        self.head = NONE;
        self.tail = NONE;
        self.len = 0;
    }

    #[inline]
    fn bucket(&self, v: u32) -> usize {
        (v.wrapping_mul(0x9E37_79B9) >> self.shift) as usize
    }

    #[inline]
    fn lookup(&self, v: u32) -> Option<u32> {
        let mut s = self.buckets[self.bucket(v)];
        while s != NONE {
            if self.vertex[s as usize] == v {
                return Some(s);
            }
            s = self.chain[s as usize];
        }
        None
    }

    /// Unlinks `slot` from the LRU list (it must be linked).
    fn detach(&mut self, slot: u32) {
        let (p, n) = (self.prev[slot as usize], self.next[slot as usize]);
        if p == NONE {
            self.head = n;
        } else {
            self.next[p as usize] = n;
        }
        if n == NONE {
            self.tail = p;
        } else {
            self.prev[n as usize] = p;
        }
    }

    fn push_front(&mut self, slot: u32) {
        self.prev[slot as usize] = NONE;
        self.next[slot as usize] = self.head;
        if self.head != NONE {
            self.prev[self.head as usize] = slot;
        }
        self.head = slot;
        if self.tail == NONE {
            self.tail = slot;
        }
    }

    fn touch_hit(&mut self, slot: u32) {
        if self.head != slot {
            self.detach(slot);
            self.push_front(slot);
        }
    }

    /// Frees the LRU tail slot and returns its (slot, vertex).
    fn evict_tail(&mut self) -> (u32, u32) {
        let slot = self.tail;
        debug_assert!(slot != NONE);
        self.detach(slot);
        let v = self.vertex[slot as usize];
        // Unlink from its hash chain.
        let b = self.bucket(v);
        let mut s = self.buckets[b];
        if s == slot {
            self.buckets[b] = self.chain[slot as usize];
        } else {
            while self.chain[s as usize] != slot {
                s = self.chain[s as usize];
            }
            self.chain[s as usize] = self.chain[slot as usize];
        }
        self.len -= 1;
        (slot, v)
    }

    /// Inserts `v` into `slot` (slot is free) as most-recent.
    fn insert(&mut self, slot: u32, v: u32) {
        self.vertex[slot as usize] = v;
        let b = self.bucket(v);
        self.chain[slot as usize] = self.buckets[b];
        self.buckets[b] = slot;
        self.push_front(slot);
        self.len += 1;
    }
}

/// What one shard (a contiguous rank range) reports back.
struct ShardOut {
    /// Words sent, full width `p` — a rank's sends are charged by the
    /// *receiving* rank's shard, so the owner may be outside the shard.
    sent: Vec<u64>,
    /// Words received, per shard-local rank.
    received: Vec<u64>,
    /// Local I/O, per shard-local rank.
    local_io: Vec<u64>,
    total_words: u64,
    /// Traced mode: the shard's events (ranks ascending, steps in
    /// order) plus one event count per owned step, same layout.
    events: Option<(Vec<DistEvent>, Vec<u32>)>,
}

/// Sends buffered per shard before they are folded into the run's
/// accumulator under its lock.
const SEND_BATCH: usize = 4096;

/// What the run's one [`ContAcc`] needs from a shard: its sends as
/// `(round, from, to)`, folded in batches of [`SEND_BATCH`], and its
/// ranks' executions per round (`execs[(rank − lo)·rounds + round]`),
/// folded when the shard ends. Every load is a sum or a maximum, so the
/// fold order — which depends on thread timing — never shows. A vertex's
/// round is its entry in the run's [`round_table`].
struct ShardLoads<'a> {
    acc: &'a Mutex<ContAcc>,
    round_of: &'a [u8],
    lo: u32,
    rounds: usize,
    sends: Vec<(u32, u32, u32)>,
    execs: Vec<u64>,
}

impl ShardLoads<'_> {
    /// One word of `v` sent `from → to`.
    fn push_send(&mut self, v: u32, from: u32, to: u32) {
        self.sends
            .push((u32::from(self.round_of[v as usize]), from, to));
        if self.sends.len() == SEND_BATCH {
            self.fold_sends();
        }
    }

    /// `proc` executed `v`.
    fn push_exec(&mut self, v: u32, proc: u32) {
        let round = usize::from(self.round_of[v as usize]);
        self.execs[(proc - self.lo) as usize * self.rounds + round] += 1;
    }

    fn fold_sends(&mut self) {
        let mut acc = self.acc.lock().expect("contention accumulator");
        for (round, from, to) in self.sends.drain(..) {
            acc.record_send(round as usize, from, to);
        }
    }

    fn finish(mut self) {
        self.fold_sends();
        let mut acc = self.acc.lock().expect("contention accumulator");
        for (proc, execs) in (self.lo..).zip(self.execs.chunks(self.rounds)) {
            for (round, &n) in execs.iter().enumerate() {
                acc.record_execs(round, proc, n);
            }
        }
    }
}

/// Steps grouped by rank: `steps[start[r]..start[r] + count[r]]` are the
/// vertices rank `r` owns, preserving global order.
struct RankSteps {
    start: Vec<usize>,
    count: Vec<u32>,
    steps: Vec<u32>,
}

fn bucket_by_rank(a: &Assignment, order: &[VertexId]) -> RankSteps {
    let p = a.p as usize;
    let mut count = vec![0u32; p];
    for &v in order {
        count[a.of(v) as usize] += 1;
    }
    let mut start = Vec::with_capacity(p + 1);
    let mut acc = 0usize;
    for &c in &count {
        start.push(acc);
        acc += c as usize;
    }
    start.push(acc);
    let mut cursor: Vec<usize> = start[..p].to_vec();
    let mut steps = vec![0u32; order.len()];
    for &v in order {
        let r = a.of(v) as usize;
        steps[cursor[r]] = v.0;
        cursor[r] += 1;
    }
    RankSteps {
        start,
        count,
        steps,
    }
}

/// Most shards a run is cut into.
const MAX_SHARDS: usize = 64;

/// The shards' rank ranges: at most `min(p, MAX_SHARDS)` contiguous ranges
/// tiling `0..p`, cut where the running step count crosses an equal share
/// of the total, never inside a rank. A rank holding more than one share
/// closes its shard, so a few busy ranks (`by_top_subproblem` at large P)
/// each get a shard of their own instead of all landing in the first. The
/// cut is a function of the assignment only, so the work split — and hence
/// every merged artifact — is independent of thread count.
fn shard_bounds(count: &[u32]) -> Vec<(usize, usize)> {
    let p = count.len();
    let shards = p.clamp(1, MAX_SHARDS) as u64;
    let total: u64 = count.iter().map(|&c| u64::from(c)).sum();
    let mut bounds = Vec::new();
    let (mut lo, mut done, mut cuts) = (0, 0u64, 0u64);
    for (r, &c) in count.iter().enumerate().take(p.saturating_sub(1)) {
        done += u64::from(c);
        // Shares reached so far; each one reached closes a shard.
        let reached = (done * shards / total.max(1)).min(shards - 1);
        if reached > cuts {
            bounds.push((lo, r + 1));
            lo = r + 1;
            cuts = reached;
        }
    }
    bounds.push((lo, p));
    bounds
}

#[allow(clippy::too_many_arguments)]
fn run_shard<V: CdagView>(
    g: &V,
    a: &Assignment,
    rs: &RankSteps,
    lo: usize,
    hi: usize,
    m: usize,
    cont: Option<(&Mutex<ContAcc>, &[u8], usize)>,
    traced: bool,
) -> ShardOut {
    let p = a.p as usize;
    let maxdeg = g.max_indegree();
    let mut out = ShardOut {
        sent: vec![0; p],
        received: vec![0; hi - lo],
        local_io: vec![0; hi - lo],
        total_words: 0,
        events: traced.then(|| (Vec::new(), Vec::new())),
    };
    let mut loads = cont.map(|(acc, round_of, rounds)| ShardLoads {
        acc,
        round_of,
        lo: lo as u32,
        rounds,
        sends: Vec::with_capacity(SEND_BATCH),
        execs: vec![0; (hi - lo) * rounds],
    });
    // Residency can never exceed the rank's distinct touches, bounded by
    // steps·(maxdeg+1); sizing the arena by the shard's largest rank
    // keeps scratch proportional to actual work even when M is huge.
    let max_steps = (lo..hi).map(|r| rs.count[r] as usize).max().unwrap_or(0);
    let slots = m.min(max_steps.saturating_mul(maxdeg + 1));
    let mut cache = RankCache::new(m, slots);
    let mut preds: Vec<VertexId> = Vec::with_capacity(maxdeg);

    for r in lo..hi {
        let steps = &rs.steps[rs.start[r]..rs.start[r] + rs.count[r] as usize];
        if steps.is_empty() {
            continue;
        }
        cache.reset();
        let me = r as u32;
        for &vu in steps {
            let v = VertexId(vu);
            let events_before = out.events.as_ref().map_or(0, |(ev, _)| ev.len());
            preds.clear();
            g.preds_into(v, &mut preds);
            for &op in &preds {
                let owner = a.of(op);
                touch(
                    &mut cache,
                    &mut out,
                    &mut loads,
                    lo,
                    me,
                    op.0,
                    true,
                    Some(owner),
                );
            }
            if !preds.is_empty() {
                if let Some((ev, _)) = &mut out.events {
                    ev.push(DistEvent::Exec { proc: me, v: vu });
                }
                if let Some(c) = &mut loads {
                    c.push_exec(vu, me);
                }
            }
            // The result occupies a slot; computing into cache is free.
            touch(&mut cache, &mut out, &mut loads, lo, me, vu, false, None);
            if let Some((ev, counts)) = &mut out.events {
                counts.push((ev.len() - events_before) as u32);
            }
        }
    }
    if let Some(c) = loads {
        c.finish();
    }
    out
}

/// Every vertex's round, its global rank `0..=2r+1`, filled one segment
/// at a time. Ranks fit a byte: `G_r` fits `u32` ids only for r ≤ 32.
pub(super) fn round_table(g: &IndexView) -> Vec<u8> {
    let mut rounds = Vec::with_capacity(g.n_vertices() as usize);
    for seg in g.segments() {
        let round = u8::try_from(seg.rank).expect("2r + 1 ≤ 65 rounds for r ≤ 32");
        rounds.resize(rounds.len() + seg.ids.len(), round);
    }
    rounds
}

/// The SoA counterpart of the reference engine's `touch`, operating on
/// rank `me`'s (shard-local) cache. Same event order on a miss:
/// `Evict?`, `Send`+`Recv` (remote only), `Insert`.
#[allow(clippy::too_many_arguments)]
#[inline]
fn touch(
    cache: &mut RankCache,
    out: &mut ShardOut,
    loads: &mut Option<ShardLoads>,
    lo: usize,
    me: u32,
    v: u32,
    charge: bool,
    from: Option<u32>,
) {
    if let Some(slot) = cache.lookup(v) {
        cache.touch_hit(slot);
        return; // hit
    }
    // Miss: evict LRU if full.
    let slot = if cache.len as usize >= cache.limit {
        let (slot, victim) = cache.evict_tail();
        if let Some((ev, _)) = &mut out.events {
            ev.push(DistEvent::Evict {
                proc: me,
                v: victim,
            });
        }
        slot
    } else {
        cache.len // bump allocation: slots 0..len are live
    };
    if let Some(owner) = from {
        if owner != me {
            // The word came over the network.
            out.sent[owner as usize] += 1;
            out.received[me as usize - lo] += 1;
            out.total_words += 1;
            if let Some((ev, _)) = &mut out.events {
                ev.push(DistEvent::Send {
                    from: owner,
                    to: me,
                    v,
                });
                ev.push(DistEvent::Recv {
                    to: me,
                    from: owner,
                    v,
                });
            }
            if let Some(c) = loads {
                c.push_send(v, owner, me);
            }
        }
    }
    cache.insert(slot, v);
    if charge {
        out.local_io[me as usize - lo] += 1;
    }
    if let Some((ev, _)) = &mut out.events {
        ev.push(DistEvent::Insert {
            proc: me,
            v,
            charged: charge,
        });
    }
}

/// Runs the SoA engine and merges the shards. The single entry point
/// behind every public `simulate*` wrapper in [`super`].
pub(super) fn run_soa<V: CdagView + Sync>(
    g: &V,
    a: &Assignment,
    order: &[VertexId],
    m: usize,
    machine: Option<MachineModel>,
    traced: bool,
    pool: &Pool,
) -> (DistOutcome, Option<DistTrace>) {
    let need = g.max_indegree() + 1;
    assert!(m >= need, "local cache {m} cannot hold operands ({need})");
    if let Some(mm) = &machine {
        mm.topo.validate(a.p).expect("topology fits rank count");
    }
    let p = a.p as usize;
    let rounds = 2 * g.r() as usize + 2;
    let rs = bucket_by_rank(a, order);
    let bounds = shard_bounds(&rs.count);
    let shards = bounds.len();

    let cont = machine.map(|mm| {
        let acc = Mutex::new(ContAcc::new(mm, a.p, rounds));
        (acc, round_table(g.closed_form()))
    });
    let outs: Vec<ShardOut> = pool.map(shards, |s| {
        let (lo, hi) = bounds[s];
        let shard_cont = cont
            .as_ref()
            .map(|(acc, round_of)| (acc, &round_of[..], rounds));
        run_shard(g, a, &rs, lo, hi, m, shard_cont, traced)
    });

    // Merge counters (index-ordered, shard-count-independent: sums and
    // maxima over disjoint or additive contributions).
    let mut sent = vec![0u64; p];
    let mut received = vec![0u64; p];
    let mut local_io = vec![0u64; p];
    let mut total_words = 0u64;
    for (s, o) in outs.iter().enumerate() {
        let (lo, hi) = bounds[s];
        for (dst, &src) in sent.iter_mut().zip(&o.sent) {
            *dst += src;
        }
        received[lo..hi].copy_from_slice(&o.received);
        local_io[lo..hi].copy_from_slice(&o.local_io);
        total_words += o.total_words;
    }
    let run = DistRun {
        total_words,
        critical_path_words: sent
            .iter()
            .zip(&received)
            .map(|(&s, &r)| s + r)
            .max()
            .unwrap_or(0),
        max_local_io: local_io.iter().copied().max().unwrap_or(0),
        total_local_io: local_io.iter().sum(),
    };
    let contention: Option<ContentionReport> =
        cont.map(|(acc, _)| acc.into_inner().expect("contention accumulator").report());
    let outcome = DistOutcome {
        run: run.clone(),
        contention: contention.clone(),
    };

    if !traced {
        return (outcome, None);
    }

    // Splice the global event stream back together: one cursor per rank
    // into its shard's (events, per-step counts).
    struct Cursor {
        shard: usize,
        cnt: usize,
        ev: usize,
    }
    let mut cursors: Vec<Cursor> = (0..p)
        .map(|_| Cursor {
            shard: 0,
            cnt: 0,
            ev: 0,
        })
        .collect();
    let mut total_events = 0usize;
    for (s, o) in outs.iter().enumerate() {
        let (lo, hi) = bounds[s];
        let (ev, counts) = o.events.as_ref().expect("traced shard");
        total_events += ev.len();
        let mut cnt_off = 0usize;
        let mut ev_off = 0usize;
        for (r, cursor) in cursors.iter_mut().enumerate().take(hi).skip(lo) {
            *cursor = Cursor {
                shard: s,
                cnt: cnt_off,
                ev: ev_off,
            };
            let c = rs.count[r] as usize;
            ev_off += counts[cnt_off..cnt_off + c]
                .iter()
                .map(|&k| k as usize)
                .sum::<usize>();
            cnt_off += c;
        }
    }
    let mut events = Vec::with_capacity(total_events);
    for &v in order {
        let cur = &mut cursors[a.of(v) as usize];
        let (ev, counts) = outs[cur.shard].events.as_ref().expect("traced shard");
        let k = counts[cur.cnt] as usize;
        events.extend_from_slice(&ev[cur.ev..cur.ev + k]);
        cur.cnt += 1;
        cur.ev += k;
    }
    let trace = DistTrace {
        p: a.p,
        m,
        claimed: run,
        sent,
        received,
        events,
        contention,
    };
    (outcome, Some(trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::{all_on_one, block_per_rank, by_top_subproblem, cyclic_per_rank};
    use mmio_algos::strassen::strassen;
    use mmio_cdag::build::build_cdag;
    use mmio_pebble::orders::recursive_order;

    #[test]
    fn shard_bounds_tile_the_ranks_and_isolate_busy_ones() {
        let g = build_cdag(&strassen(), 3);
        let order = recursive_order(&g);
        for p in [1u32, 7, 13, 64, 100, 1024] {
            for a in [
                cyclic_per_rank(&g, p),
                block_per_rank(&g, p),
                by_top_subproblem(&g, p),
                all_on_one(&g, p),
            ] {
                let rs = bucket_by_rank(&a, &order);
                let bounds = shard_bounds(&rs.count);
                assert!(bounds.len() <= (p as usize).min(MAX_SHARDS), "p={p}");
                let mut next = 0;
                for &(lo, hi) in &bounds {
                    assert!(lo == next && lo < hi, "p={p}: {bounds:?}");
                    next = hi;
                }
                assert_eq!(next, p as usize, "p={p}");
            }
        }
        // The b = 7 top subproblems hold almost every step; at P = 1024 each
        // of their ranks is a shard of its own.
        let a = by_top_subproblem(&g, 1024);
        let bounds = shard_bounds(&bucket_by_rank(&a, &order).count);
        for r in 0..7 {
            assert!(bounds.contains(&(r, r + 1)), "rank {r}: {bounds:?}");
        }
    }
}
