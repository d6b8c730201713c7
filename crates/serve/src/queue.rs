//! Bounded job queue, panic-isolated workers, and the wedge-recovery
//! supervisor.
//!
//! Admission control is explicit: [`JobQueue::try_push`] either enqueues
//! or reports [`PushError::Full`] immediately — a saturated server sheds
//! load with a typed `overloaded` response, it never blocks a connection
//! handler or grows an unbounded backlog.
//!
//! Workers drain the queue in a loop. Every job body runs under
//! `std::panic::catch_unwind`, so a panicking request is returned to its
//! submitter as a typed outcome and the worker survives. A job whose
//! submitter has already given up (deadline expired while queued) is
//! dropped without being executed.
//!
//! The wedge state machine: a submitter whose deadline expires checks the
//! job's [`JobToken`] — if the job *started* but never finished, its
//! worker is presumed wedged and [`WorkerSet::replace_wedged`] spawns a
//! replacement (bounded by `WorkerSet::max_spawns`, so a pathological
//! workload cannot fork-bomb the host). The wedged worker, whenever it
//! eventually finishes, notices the surplus and retires instead of
//! double-serving. Every transition is counted, surfaced as a
//! [`crate::codes::SERVE_WORKER_REPLACED`] diagnostic, and drilled by the
//! fault harness.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// Shared visibility into one job's lifecycle, used for deadline and
/// wedge decisions after the submitter stops waiting.
#[derive(Debug, Default)]
pub struct JobToken {
    /// Set by the worker when it picks the job up.
    pub started: AtomicBool,
    /// Set by the worker when the job body returned (or panicked).
    pub done: AtomicBool,
    /// Set by the submitter when it stops waiting (deadline expired);
    /// a not-yet-started job with this flag is skipped entirely.
    pub abandoned: AtomicBool,
}

/// Why a push was rejected.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity; the job is handed back.
    Full(T),
    /// The queue is shut down; the job is handed back.
    Closed(T),
}

struct QueueState<T> {
    q: VecDeque<T>,
    closed: bool,
}

/// A bounded MPMC queue: non-blocking bounded push, blocking pop.
pub struct JobQueue<T> {
    state: Mutex<QueueState<T>>,
    ready: Condvar,
    cap: usize,
}

impl<T> JobQueue<T> {
    /// A queue admitting at most `cap` pending jobs (`cap ≥ 1`).
    pub fn new(cap: usize) -> JobQueue<T> {
        JobQueue {
            state: Mutex::new(QueueState {
                q: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Capacity.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Pending jobs right now.
    pub fn len(&self) -> usize {
        self.lock().q.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueues without blocking, or reports why it cannot.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut st = self.lock();
        if st.closed {
            return Err(PushError::Closed(item));
        }
        if st.q.len() >= self.cap {
            return Err(PushError::Full(item));
        }
        st.q.push_back(item);
        drop(st);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until a job is available or the queue closes. `None` means
    /// closed-and-drained: the worker should exit.
    pub fn pop(&self) -> Option<T> {
        let mut st = self.lock();
        loop {
            if let Some(item) = st.q.pop_front() {
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = self.ready.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the queue: pending jobs still drain, new pushes fail, and
    /// blocked workers wake to exit.
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }
}

/// A fixed-target set of worker threads over a [`JobQueue`], with bounded
/// wedge replacement.
pub struct WorkerSet<T: Send + 'static> {
    queue: Arc<JobQueue<T>>,
    /// Workers currently live (running jobs or blocked on the queue).
    live: Arc<AtomicUsize>,
    /// Steady-state worker count.
    target: usize,
    /// Total workers ever spawned (initial + replacements).
    spawned: AtomicUsize,
    /// Hard ceiling on total spawns.
    max_spawns: usize,
    /// Replacements performed (== wedge events acted on).
    pub replacements: AtomicU64,
    run: Arc<dyn Fn(T) + Send + Sync>,
}

impl<T: Send + 'static> WorkerSet<T> {
    /// Spawns `target` workers, each executing `run` per job. `run` is
    /// responsible for its own panic isolation; a panic that escapes it
    /// kills that worker (and only that worker) — the wedge supervisor
    /// will replace it if a submitter notices.
    pub fn start(
        queue: Arc<JobQueue<T>>,
        target: usize,
        max_spawns: usize,
        run: impl Fn(T) + Send + Sync + 'static,
    ) -> WorkerSet<T> {
        let set = WorkerSet {
            queue,
            live: Arc::new(AtomicUsize::new(0)),
            target: target.max(1),
            spawned: AtomicUsize::new(0),
            max_spawns: max_spawns.max(target.max(1)),
            replacements: AtomicU64::new(0),
            run: Arc::new(run),
        };
        for _ in 0..set.target {
            set.spawn_worker();
        }
        set
    }

    fn spawn_worker(&self) -> bool {
        if self.spawned.fetch_add(1, Ordering::Relaxed) >= self.max_spawns {
            self.spawned.fetch_sub(1, Ordering::Relaxed);
            return false;
        }
        self.live.fetch_add(1, Ordering::Relaxed);
        let queue = Arc::clone(&self.queue);
        let live = Arc::clone(&self.live);
        let run = Arc::clone(&self.run);
        let target = self.target;
        std::thread::spawn(move || {
            while let Some(job) = queue.pop() {
                run(job);
                // A formerly wedged worker that just un-wedged may find the
                // set over strength (a replacement took its seat): retire.
                let n = live.load(Ordering::Relaxed);
                if n > target
                    && live
                        .compare_exchange(n, n - 1, Ordering::Relaxed, Ordering::Relaxed)
                        .is_ok()
                {
                    return;
                }
            }
            live.fetch_sub(1, Ordering::Relaxed);
        });
        true
    }

    /// Called by a submitter whose deadline expired on a started-but-not-
    /// finished job: spawns one replacement worker (if the spawn budget
    /// allows) so throughput survives the wedged one. Returns whether a
    /// replacement was actually spawned.
    pub fn replace_wedged(&self) -> bool {
        if self.spawn_worker() {
            self.replacements.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Workers currently live.
    pub fn live(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// Total workers ever spawned.
    pub fn total_spawned(&self) -> usize {
        self.spawned.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn bounded_push_sheds_at_capacity() {
        let q: JobQueue<u32> = JobQueue::new(2);
        assert_eq!(q.try_push(1), Ok(()));
        assert_eq!(q.try_push(2), Ok(()));
        assert_eq!(q.try_push(3), Err(PushError::Full(3)));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.try_push(4), Ok(()));
        q.close();
        assert_eq!(q.try_push(5), Err(PushError::Closed(5)));
        // Pending jobs drain even after close…
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(4));
        // …then pop reports closed.
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn workers_drain_jobs_and_exit_on_close() {
        let q = Arc::new(JobQueue::new(64));
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        let set = WorkerSet::start(Arc::clone(&q), 3, 8, move |n: usize| {
            h.fetch_add(n, Ordering::Relaxed);
        });
        for i in 0..10 {
            q.try_push(i).unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while hits.load(Ordering::Relaxed) != 45 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(hits.load(Ordering::Relaxed), 45);
        q.close();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while set.live() != 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(set.live(), 0, "workers must exit after close");
    }

    #[test]
    fn replacement_is_bounded_by_spawn_budget() {
        let q: Arc<JobQueue<u32>> = Arc::new(JobQueue::new(4));
        let set = WorkerSet::start(Arc::clone(&q), 2, 4, |_n| {});
        assert!(set.replace_wedged(), "budget 4 allows 2 initial + 1");
        assert!(set.replace_wedged(), "…and one more");
        assert!(!set.replace_wedged(), "budget exhausted");
        assert_eq!(set.total_spawned(), 4);
        q.close();
    }
}
