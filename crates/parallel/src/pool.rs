//! A thread pool for deterministic fan-out of indexed work.
//!
//! The workspace's verification workloads — per-copy routing transport,
//! hit-count verification, segment audits, registry-wide static analysis —
//! are all *indexed* families of independent tasks `f(0), …, f(n-1)`,
//! handed to the pool already coarse (a few chunks per worker, one shard
//! or grid point per task). This pool runs them on scoped worker threads:
//! the index space is split into one contiguous range per worker
//! ([`split_ranges`]); worker `w` drains its own range through that
//! range's atomic cursor, then every other range in the fixed order
//! `(w + 1) % workers, (w + 2) % workers, …`, so no index is left behind
//! a slow worker. A claim is one `fetch_add`; a claim past the range's end
//! just moves the worker on. Results are merged back **in index order**,
//! so the output of [`Pool::map`] is byte-for-byte identical to the serial
//! loop regardless of thread count, interleaving, or which worker ran
//! which index — the determinism contract the golden tests enforce.
//!
//! Each worker starts on its own range rather than all workers taking
//! turns on one shared cursor: a shared cursor scatters neighbouring tasks
//! over all threads, and with glibc's per-thread malloc arenas that raised
//! the distributed simulator's peak memory markedly.
//!
//! `mmio-check`'s bounded model checker replays this algorithm under
//! exhaustive schedules, built on the same [`split_ranges`], and every
//! synchronization point emits a [`crate::events`] sync event (compiled
//! out unless the `trace` feature is on).
//!
//! Thread count resolution (used by the `mmio` CLI's `--threads` and every
//! experiment binary): explicit argument > `MMIO_THREADS` env var >
//! `std::thread::available_parallelism()`. An `MMIO_THREADS` value that is
//! not a positive integer is rejected with a one-line stderr warning and
//! the available-parallelism fallback is used instead.

use crate::events::{self, SyncEvent};
use std::sync::atomic::{AtomicUsize, Ordering};

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
    ///
    /// A panicking task panics the call with that task's own payload, at
    /// any thread count: every worker is joined first (the others finish
    /// the remaining indices), then the first failed worker's payload is
    /// resumed.
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

        let mut tagged: Vec<(usize, T)> = Vec::with_capacity(n);
        let mut panicked = None;
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    s.spawn(move || {
                        let mut out: Vec<(usize, T)> = Vec::new();
                        // Own range first, then every other range in turn.
                        for k in 0..workers {
                            let r = (w + k) % workers;
                            drain(&ranges[r], r as u32, f, &mut out);
                        }
                        events::emit(SyncEvent::WorkerDone { worker: w as u32 });
                        out
                    })
                })
                .collect();
            for (w, h) in handles.into_iter().enumerate() {
                match h.join() {
                    Ok(out) => tagged.extend(out),
                    Err(payload) => {
                        panicked.get_or_insert(payload);
                    }
                }
                events::emit(SyncEvent::WorkerJoin { worker: w as u32 });
            }
        });
        if let Some(payload) = panicked {
            std::panic::resume_unwind(payload);
        }

        debug_assert_eq!(tagged.len(), n, "every index claimed exactly once");
        tagged.sort_unstable_by_key(|&(i, _)| i);
        tagged.into_iter().map(|(_, v)| v).collect()
    }

    /// Runs `a` on the calling thread while `b` runs on one scoped worker,
    /// and returns both results. The serial pool runs `a`, then `b`.
    ///
    /// `a` stays on the caller so that what it allocates comes from the
    /// caller's malloc arena, as in `segments::analyze_with`: glibc keeps
    /// the blocks a worker thread frees resident in that worker's arena,
    /// and successive joins land on different arenas. So `b` should fill
    /// buffers the caller allocated rather than allocate `|V|`-sized ones
    /// itself.
    ///
    /// A panic in either task panics the call with that task's own payload
    /// (`a`'s if both panic), after the worker is joined.
    pub fn join<A, B, FA, FB>(&self, a: FA, b: FB) -> (A, B)
    where
        B: Send,
        FA: FnOnce() -> A,
        FB: FnOnce() -> B + Send,
    {
        if self.threads == 1 {
            let x = a();
            return (x, b());
        }
        std::thread::scope(|s| {
            let worker = s.spawn(b);
            let x = a();
            match worker.join() {
                Ok(y) => (x, y),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        })
    }
}

/// Claims and runs indices of `range` until a claim lands past its end.
/// The overshooting `fetch_add` is left in place: nothing reads the cursor
/// except later claims, which miss as well.
fn drain<T, F: Fn(usize) -> T>(range: &Range, ri: u32, f: &F, out: &mut Vec<(usize, T)>) {
    loop {
        let i = range.cursor.fetch_add(1, Ordering::Relaxed);
        let hit = i < range.end;
        events::emit(SyncEvent::CursorFetchAdd {
            range: ri,
            claimed: i as u64,
            hit,
        });
        if !hit {
            return;
        }
        out.push((i, f(i)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::{Mutex, MutexGuard};

    /// Serializes every test here that runs a multi-worker `map`. A
    /// workspace build unifies the `trace` feature into this crate, and a
    /// recording session's on-switch is process-global: an unrecorded map
    /// running in a parallel test thread would emit its claims into
    /// `map_records_claims_and_joins`'s trace.
    fn exclusive() -> MutexGuard<'static, ()> {
        static MAPS: Mutex<()> = Mutex::new(());
        MAPS.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn map_is_identity_ordered() {
        let _maps = exclusive();
        for threads in [1, 2, 3, 8] {
            let pool = Pool::new(threads);
            let out = pool.map(100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_empty_and_tiny() {
        let _maps = exclusive();
        let pool = Pool::new(4);
        assert_eq!(pool.map(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.map(1, |i| i + 7), vec![7]);
        assert_eq!(pool.map(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let _maps = exclusive();
        let hits: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
        let pool = Pool::new(8);
        pool.map(1000, |i| hits[i].fetch_add(1, Ordering::Relaxed));
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn stealing_covers_skewed_work() {
        let _maps = exclusive();
        // Front-loaded work: the first quarter of the indices are slow, so
        // workers that finish their own range must drain worker 0's.
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
    fn join_returns_both_results_in_place() {
        for threads in [1, 2, 8] {
            let pool = Pool::new(threads);
            let buf = Vec::with_capacity(3);
            let (a, b) = pool.join(
                || vec![1u8, 2],
                move || {
                    let mut buf = buf;
                    buf.extend("two".chars());
                    buf
                },
            );
            assert_eq!(
                (a, b),
                (vec![1, 2], vec!['t', 'w', 'o']),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn join_panics_with_the_task_payload() {
        for threads in [1, 2] {
            for side in 0..2 {
                let outcome = std::panic::catch_unwind(|| {
                    Pool::new(threads).join(
                        || assert!(side != 0, "task a"),
                        move || assert!(side != 1, "task b"),
                    )
                });
                let payload = outcome.expect_err("the panic propagates");
                let want = ["task a", "task b"][side];
                assert_eq!(
                    payload.downcast_ref::<&str>(),
                    Some(&want),
                    "threads={threads}"
                );
            }
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
    fn map_panic_propagates_promptly_and_never_deadlocks() {
        let _maps = exclusive();
        // The regression this pins: a panicking task inside `map` must
        // tear down the call with the task's own payload at every thread
        // count, not wedge a worker, deadlock the join or swap the payload
        // for a generic one. Run it off-thread with a timeout so a future
        // regression fails the test instead of hanging CI.
        for threads in [1, 2, 8] {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let outcome = std::panic::catch_unwind(|| {
                    Pool::new(threads).map(64, |i| {
                        if i == 20 {
                            panic!("injected");
                        }
                        i
                    })
                });
                let payload = outcome
                    .err()
                    .map(|p| p.downcast_ref::<&str>().map(|s| s.to_string()));
                let _ = tx.send(payload);
            });
            let payload = rx
                .recv_timeout(std::time::Duration::from_secs(30))
                .unwrap_or_else(|_| panic!("map deadlocked on panic (threads={threads})"));
            assert_eq!(
                payload,
                Some(Some("injected".to_string())),
                "map must propagate the task's own panic (threads={threads})"
            );
        }
    }

    #[cfg(feature = "trace")]
    #[test]
    fn map_records_claims_and_joins() {
        use crate::events::{record, SyncEvent};
        let _maps = exclusive();
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
