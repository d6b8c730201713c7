//! A work-stealing thread pool for deterministic fan-out of indexed work.
//!
//! The workspace's verification workloads — per-copy routing transport,
//! hit-count verification, segment audits, registry-wide static analysis —
//! are all *indexed* families of independent tasks `f(0), …, f(n-1)`. This
//! pool runs them on scoped worker threads: the index space is split into
//! per-worker ranges, each worker drains its own range through an atomic
//! cursor, and a worker whose range is exhausted *steals* indices from the
//! most-loaded remaining range. Results are merged back **in index order**,
//! so the output of [`Pool::map`] is byte-for-byte identical to the serial
//! loop regardless of thread count, interleaving, or which worker ran which
//! index — the determinism contract the golden tests and the CI
//! `bench-smoke` job enforce.
//!
//! The scheduling *decisions* — range splitting ([`split_ranges`]), victim
//! selection ([`pick_victim`]), chunk arithmetic ([`chunk_count`],
//! [`chunk_bounds`]) — are exported as pure functions so that
//! `mmio-check`'s bounded model checker replays the same algorithm under
//! exhaustive schedules instead of a paraphrase of it, and every
//! synchronization point emits a [`crate::events`] sync event (compiled
//! out unless the `trace` feature is on).
//!
//! Thread count resolution (used by the `mmio` CLI's `--threads` and every
//! experiment binary): explicit argument > `MMIO_THREADS` env var >
//! `std::thread::available_parallelism()`. An `MMIO_THREADS` value that is
//! not a positive integer is rejected with a one-line stderr warning and
//! the available-parallelism fallback is used instead.

use crate::events::{self, SyncEvent};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A task panicked inside [`Pool::try_map`] / [`Pool::try_map_chunks`]:
/// the lowest panicking index (deterministic at any thread count and
/// interleaving) plus its panic message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JoinError {
    /// The lowest index (or chunk index) whose task panicked.
    pub index: usize,
    /// The panic payload, when it was a string (the common case).
    pub message: String,
}

impl std::fmt::Display for JoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for JoinError {}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A fixed-width thread pool. `threads == 1` runs every task inline on the
/// caller's thread with no synchronization at all, so the serial path is
/// not merely "parallel with one worker" but literally the sequential loop.
#[derive(Clone, Debug)]
pub struct Pool {
    threads: usize,
}

/// One worker's claimable range of the index space: `[cursor, end)`.
struct Range {
    cursor: AtomicUsize,
    end: usize,
}

/// The contiguous near-equal split of `0..n` into `workers` ranges used by
/// [`Pool::map`]: range `w` is `[n·w/workers, n·(w+1)/workers)`.
pub fn split_ranges(n: usize, workers: usize) -> Vec<(usize, usize)> {
    (0..workers)
        .map(|w| (n * w / workers, n * (w + 1) / workers))
        .collect()
}

/// Victim-selection rule of the steal loop: the index of the range with
/// the most work remaining, ties broken towards the *last* such range
/// (`Iterator::max_by_key` semantics, kept bit-compatible with the
/// pre-refactor code). `None` only on an empty iterator.
pub fn pick_victim<I: IntoIterator<Item = usize>>(remaining: I) -> Option<usize> {
    let mut best: Option<(usize, usize)> = None;
    for (i, rem) in remaining.into_iter().enumerate() {
        match best {
            Some((_, b)) if rem < b => {}
            _ => best = Some((i, rem)),
        }
    }
    best.map(|(i, _)| i)
}

/// Number of chunks [`Pool::map_chunks`] splits `n` items into at a given
/// thread count: `threads · chunks_per_worker`, clamped to `[1, n]`.
pub fn chunk_count(threads: usize, chunks_per_worker: usize, n: usize) -> usize {
    (threads * chunks_per_worker.max(1)).min(n).max(1)
}

/// The half-open item range of chunk `c` out of `chunks` over `n` items.
pub fn chunk_bounds(n: usize, chunks: usize, c: usize) -> std::ops::Range<usize> {
    n * c / chunks..n * (c + 1) / chunks
}

/// Resolution of a thread-count request against an (already read)
/// environment value: the chosen count plus an optional warning line for
/// an `MMIO_THREADS` value that had to be ignored. Pure so it is testable
/// without touching process environment.
fn resolve_threads(
    explicit: Option<usize>,
    env: Option<&str>,
    fallback: usize,
) -> (usize, Option<String>) {
    if let Some(t) = explicit {
        return (t, None);
    }
    match env {
        None => (fallback, None),
        Some(v) => match v.parse::<usize>() {
            Ok(t) if t >= 1 => (t, None),
            _ => (
                fallback,
                Some(format!(
                    "warning: MMIO_THREADS={v:?} is not a positive integer; \
                     ignoring it and using {fallback} thread(s) (available parallelism)"
                )),
            ),
        },
    }
}

impl Pool {
    /// A pool with exactly `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Pool {
        Pool {
            threads: threads.max(1),
        }
    }

    /// The strictly sequential pool.
    pub fn serial() -> Pool {
        Pool::new(1)
    }

    /// Resolves the thread count from the environment: `explicit` if given,
    /// else the `MMIO_THREADS` env var, else
    /// `std::thread::available_parallelism()`. A set-but-invalid
    /// `MMIO_THREADS` (unparsable, or zero) is ignored with a one-line
    /// stderr warning naming the bad value and the fallback chosen.
    pub fn from_env(explicit: Option<usize>) -> Pool {
        let fallback = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let env = std::env::var("MMIO_THREADS").ok();
        let (threads, warning) = resolve_threads(explicit, env.as_deref(), fallback);
        if let Some(w) = warning {
            eprintln!("{w}");
        }
        Pool::new(threads)
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every index in `0..n` and returns the results in
    /// index order. Deterministic: the returned vector never depends on
    /// scheduling (only on `f` itself being a function of its index).
    pub fn map<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.threads.min(n);
        if workers <= 1 {
            return (0..n).map(f).collect();
        }

        // Split 0..n into `workers` near-equal contiguous ranges.
        let ranges: Vec<Range> = split_ranges(n, workers)
            .into_iter()
            .map(|(start, end)| Range {
                cursor: AtomicUsize::new(start),
                end,
            })
            .collect();
        let ranges = &ranges;
        let f = &f;

        let mut tagged: Vec<(usize, T)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    s.spawn(move || {
                        let mut out: Vec<(usize, T)> = Vec::new();
                        // Drain the worker's own range, then steal.
                        drain(&ranges[w], w as u32, f, &mut out);
                        loop {
                            // Steal from the victim with the most work left.
                            let victim =
                                pick_victim(ranges.iter().map(|r| {
                                    r.end.saturating_sub(r.cursor.load(Ordering::Relaxed))
                                }))
                                .expect("at least one range");
                            events::emit(SyncEvent::StealSelect {
                                victim: victim as u32,
                            });
                            if !drain_one(&ranges[victim], victim as u32, f, &mut out) {
                                break;
                            }
                            drain(&ranges[victim], victim as u32, f, &mut out);
                        }
                        events::emit(SyncEvent::WorkerDone { worker: w as u32 });
                        out
                    })
                })
                .collect();
            let mut all: Vec<(usize, T)> = Vec::with_capacity(n);
            for (w, h) in handles.into_iter().enumerate() {
                all.extend(h.join().expect("pool worker panicked"));
                events::emit(SyncEvent::WorkerJoin { worker: w as u32 });
            }
            all
        });

        debug_assert_eq!(tagged.len(), n, "every index claimed exactly once");
        tagged.sort_unstable_by_key(|&(i, _)| i);
        tagged.into_iter().map(|(_, v)| v).collect()
    }

    /// Splits `n` items into at most `chunks_per_worker · threads` contiguous
    /// chunks (each a `start..end` range), maps every chunk through `f` on
    /// the pool, and folds the chunk results **in chunk order** into `init`.
    ///
    /// This is the sharded-counter pattern: each chunk accumulates into its
    /// own counter, and because the fold visits chunks in a fixed order the
    /// merged result is independent of scheduling. With `threads == 1` the
    /// whole computation degenerates to one chunk folded serially.
    pub fn map_chunks<T, F, M>(&self, n: usize, chunks_per_worker: usize, f: F, mut merge: M) -> T
    where
        T: Send + Default,
        F: Fn(std::ops::Range<usize>) -> T + Sync,
        M: FnMut(T, T) -> T,
    {
        if n == 0 {
            return T::default();
        }
        let chunks = chunk_count(self.threads, chunks_per_worker, n);
        let results = self.map(chunks, |c| f(chunk_bounds(n, chunks, c)));
        let mut acc = T::default();
        for (c, r) in results.into_iter().enumerate() {
            events::emit(SyncEvent::ChunkMerge { chunk: c as u64 });
            acc = merge(acc, r);
        }
        acc
    }

    /// [`Pool::map`] with panic isolation: every task runs under
    /// `catch_unwind`, so a panicking task becomes a typed [`JoinError`]
    /// instead of tearing down the caller — and, critically, instead of
    /// wedging the steal loop: the remaining indices still run to
    /// completion (their results are discarded on error), every worker
    /// joins, and the pool is immediately reusable.
    ///
    /// On multiple panics the error reports the **lowest** panicking
    /// index, so the outcome is deterministic at any thread count — the
    /// same contract [`Pool::map`] gives for values, extended to failures.
    pub fn try_map<T, F>(&self, n: usize, f: F) -> Result<Vec<T>, JoinError>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let raw = self.map(n, |i| {
            catch_unwind(AssertUnwindSafe(|| f(i))).map_err(panic_message)
        });
        let mut out = Vec::with_capacity(n);
        for (index, r) in raw.into_iter().enumerate() {
            match r {
                Ok(v) => out.push(v),
                Err(message) => return Err(JoinError { index, message }),
            }
        }
        Ok(out)
    }

    /// [`Pool::map_chunks`] with panic isolation: a panicking chunk
    /// becomes a typed [`JoinError`] carrying the lowest panicking *chunk*
    /// index; the merge fold never runs on a partial result set.
    pub fn try_map_chunks<T, F, M>(
        &self,
        n: usize,
        chunks_per_worker: usize,
        f: F,
        mut merge: M,
    ) -> Result<T, JoinError>
    where
        T: Send + Default,
        F: Fn(std::ops::Range<usize>) -> T + Sync,
        M: FnMut(T, T) -> T,
    {
        if n == 0 {
            return Ok(T::default());
        }
        let chunks = chunk_count(self.threads, chunks_per_worker, n);
        let results = self.try_map(chunks, |c| f(chunk_bounds(n, chunks, c)))?;
        let mut acc = T::default();
        for (c, r) in results.into_iter().enumerate() {
            events::emit(SyncEvent::ChunkMerge { chunk: c as u64 });
            acc = merge(acc, r);
        }
        Ok(acc)
    }
}

/// Claims and runs every remaining index of `range`.
fn drain<T, F: Fn(usize) -> T>(range: &Range, ri: u32, f: &F, out: &mut Vec<(usize, T)>) {
    while drain_one(range, ri, f, out) {}
}

/// Claims one index of `range` if any remain; returns whether it did.
fn drain_one<T, F: Fn(usize) -> T>(
    range: &Range,
    ri: u32,
    f: &F,
    out: &mut Vec<(usize, T)>,
) -> bool {
    let i = range.cursor.fetch_add(1, Ordering::Relaxed);
    let hit = i < range.end;
    events::emit(SyncEvent::CursorFetchAdd {
        range: ri,
        claimed: i as u64,
        hit,
    });
    if hit {
        out.push((i, f(i)));
        true
    } else {
        // Undo the overshoot so `end - cursor` stays a sane "work left"
        // estimate for victim selection (saturating, so benign if several
        // workers overshoot concurrently).
        range.cursor.fetch_sub(1, Ordering::Relaxed);
        events::emit(SyncEvent::CursorUndo { range: ri });
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn map_is_identity_ordered() {
        for threads in [1, 2, 3, 8] {
            let pool = Pool::new(threads);
            let out = pool.map(100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_empty_and_tiny() {
        let pool = Pool::new(4);
        assert_eq!(pool.map(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.map(1, |i| i + 7), vec![7]);
        assert_eq!(pool.map(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let hits: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
        let pool = Pool::new(8);
        pool.map(1000, |i| hits[i].fetch_add(1, Ordering::Relaxed));
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn stealing_covers_skewed_work() {
        // Front-loaded work: the first quarter of the indices are slow, so
        // workers that finish their own range must steal to help.
        let pool = Pool::new(4);
        let out = pool.map(64, |i| {
            if i < 16 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i
        });
        assert_eq!(out, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn map_chunks_merges_in_order() {
        for threads in [1, 2, 8] {
            let pool = Pool::new(threads);
            let total = pool.map_chunks(
                1000,
                4,
                |range| range.map(|i| i as u64).sum::<u64>(),
                |a: u64, b: u64| a + b,
            );
            assert_eq!(total, 999 * 1000 / 2);
        }
    }

    #[test]
    fn map_chunks_concatenation_is_deterministic() {
        // A non-commutative merge (concatenation) still gives the serial
        // answer because chunks fold in fixed order.
        let serial: Vec<usize> = (0..257).collect();
        for threads in [2, 5, 8] {
            let pool = Pool::new(threads);
            let out = pool.map_chunks(
                257,
                3,
                |range| range.collect::<Vec<usize>>(),
                |mut a, mut b| {
                    a.append(&mut b);
                    a
                },
            );
            assert_eq!(out, serial, "threads={threads}");
        }
    }

    #[test]
    fn from_env_explicit_wins() {
        assert_eq!(Pool::from_env(Some(3)).threads(), 3);
        assert!(Pool::from_env(None).threads() >= 1);
    }

    #[test]
    fn zero_threads_clamped() {
        assert_eq!(Pool::new(0).threads(), 1);
    }

    #[test]
    fn thread_resolution_precedence_and_warnings() {
        // explicit > env > fallback.
        assert_eq!(resolve_threads(Some(3), Some("8"), 4), (3, None));
        assert_eq!(resolve_threads(None, Some("8"), 4), (8, None));
        assert_eq!(resolve_threads(None, None, 4), (4, None));
        // Invalid env values warn, naming the bad value and the fallback.
        for bad in ["0", "abc", "-2", "1.5", ""] {
            let (threads, warning) = resolve_threads(None, Some(bad), 4);
            assert_eq!(threads, 4, "MMIO_THREADS={bad:?}");
            let w = warning.expect("invalid value must warn");
            assert!(w.contains(&format!("{bad:?}")), "{w}");
            assert!(w.contains('4'), "{w}");
        }
        // Explicit silences even an invalid env var.
        assert_eq!(resolve_threads(Some(2), Some("junk"), 4), (2, None));
    }

    #[test]
    fn split_ranges_partitions_exactly() {
        for n in [1usize, 2, 5, 7, 100] {
            for workers in 1..=n.min(9) {
                let ranges = split_ranges(n, workers);
                assert_eq!(ranges.len(), workers);
                assert_eq!(ranges[0].0, 0);
                assert_eq!(ranges[workers - 1].1, n);
                for w in 1..workers {
                    assert_eq!(ranges[w - 1].1, ranges[w].0, "contiguous");
                }
                assert!(ranges.iter().all(|&(s, e)| s < e), "nonempty when w<=n");
            }
        }
    }

    #[test]
    fn pick_victim_matches_max_by_key() {
        let cases: &[&[usize]] = &[&[0], &[3, 1], &[1, 3], &[2, 2], &[0, 5, 5, 1]];
        for rem in cases {
            let expect = rem
                .iter()
                .enumerate()
                .max_by_key(|&(_, r)| *r)
                .map(|(i, _)| i);
            assert_eq!(pick_victim(rem.iter().copied()), expect, "{rem:?}");
        }
        assert_eq!(pick_victim(std::iter::empty()), None);
    }

    #[test]
    fn chunk_arithmetic_covers_items() {
        for (threads, cpw, n) in [(2, 2, 8), (2, 2, 3), (1, 4, 100), (8, 4, 5)] {
            let chunks = chunk_count(threads, cpw, n);
            assert!(chunks >= 1 && chunks <= n.max(1));
            let mut all = Vec::new();
            for c in 0..chunks {
                all.extend(chunk_bounds(n, chunks, c));
            }
            assert_eq!(all, (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn try_map_succeeds_like_map() {
        for threads in [1, 2, 8] {
            let pool = Pool::new(threads);
            assert_eq!(
                pool.try_map(50, |i| i * 2),
                Ok((0..50).map(|i| i * 2).collect::<Vec<_>>()),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn try_map_panic_is_typed_lowest_index_and_pool_survives() {
        for threads in [1, 2, 8] {
            let pool = Pool::new(threads);
            let err = pool
                .try_map(100, |i| {
                    if i == 17 || i == 63 {
                        panic!("boom at {i}");
                    }
                    i
                })
                .unwrap_err();
            // Lowest panicking index wins, at every thread count.
            assert_eq!(err.index, 17, "threads={threads}");
            assert_eq!(err.message, "boom at 17");
            assert!(err.to_string().contains("task 17 panicked"));
            // The pool is immediately reusable after a failed run.
            assert_eq!(pool.try_map(10, |i| i), Ok((0..10).collect()));
        }
    }

    #[test]
    fn try_map_chunks_panic_is_typed_and_merge_never_partial() {
        for threads in [1, 2, 8] {
            let pool = Pool::new(threads);
            let mut merges = 0usize;
            let err = pool
                .try_map_chunks(
                    100,
                    2,
                    |range| {
                        if range.contains(&50) {
                            panic!("chunk containing 50");
                        }
                        range.len()
                    },
                    |a: usize, b| {
                        merges += 1;
                        a + b
                    },
                )
                .unwrap_err();
            assert_eq!(err.message, "chunk containing 50", "threads={threads}");
            assert_eq!(merges, 0, "merge must not fold a partial result set");
            assert_eq!(
                pool.try_map_chunks(100, 2, |r| r.len(), |a: usize, b| a + b),
                Ok(100)
            );
        }
    }

    #[test]
    fn map_panic_propagates_promptly_and_never_deadlocks() {
        // The regression this pins: a panicking task inside plain `map`
        // must tear down the call (the documented behavior), not wedge a
        // worker or deadlock the join. Run it off-thread with a timeout so
        // a future regression fails the test instead of hanging CI.
        for threads in [1, 2, 8] {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let outcome = catch_unwind(|| {
                    Pool::new(threads).map(64, |i| {
                        if i == 20 {
                            panic!("injected");
                        }
                        i
                    })
                });
                let _ = tx.send(outcome.is_err());
            });
            let panicked = rx
                .recv_timeout(std::time::Duration::from_secs(30))
                .unwrap_or_else(|_| panic!("map deadlocked on panic (threads={threads})"));
            assert!(panicked, "map must propagate the panic (threads={threads})");
        }
    }

    #[cfg(feature = "trace")]
    #[test]
    fn map_records_claims_and_joins() {
        use crate::events::{record, SyncEvent};
        let (out, trace) = record(|| Pool::new(2).map(8, |i| i));
        assert_eq!(out, (0..8).collect::<Vec<_>>());
        let mut claims: Vec<u64> = trace
            .events
            .iter()
            .filter_map(|e| match e.event {
                SyncEvent::CursorFetchAdd {
                    claimed, hit: true, ..
                } => Some(claimed),
                _ => None,
            })
            .collect();
        claims.sort_unstable();
        assert_eq!(claims, (0..8).collect::<Vec<_>>());
        // Both workers are joined by the caller.
        for w in 0..2 {
            assert!(trace
                .events
                .iter()
                .any(|e| e.event == SyncEvent::WorkerJoin { worker: w }));
        }
    }
}
