//! Sync-event instrumentation: a zero-cost-when-disabled shim over the
//! workspace's synchronization points.
//!
//! The [`crate::pool::Pool`] is load-bearing concurrency: every
//! certification and bench path runs through it. `mmio-check` re-verifies
//! that concurrency with a happens-before race detector over *recorded*
//! executions — which needs a trace of every synchronization action
//! (range-cursor claims, worker completion and joins) in a total order.
//!
//! This module is that tap. Call sites emit a [`SyncEvent`] through
//! [`emit`]; the call compiles to nothing unless the `trace` cargo feature
//! is enabled, and even then it is a single relaxed load unless a recording
//! session ([`record`]) is active. Builds that select no crate enabling
//! the feature (`-p mmio-parallel`, `-p mmio-serve`, `-p mmio-bench`)
//! contain no instrumentation at all.
//!
//! ## Ordering caveat
//!
//! Events are appended to a global log under a mutex, *after* the
//! instrumented operation completes. The log order is therefore a
//! linearization that is exact for lock-protected regions (the emit happens
//! while the lock is still held) but only approximate for back-to-back
//! relaxed atomics on distinct threads. `mmio-check` treats recorded traces
//! accordingly: they witness *one* legal execution for race analysis; the
//! exhaustive guarantees come from its bounded model checker, not from
//! replaying recordings.

/// One synchronization action of an instrumented component.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncEvent {
    /// `fetch_add` claim on a range cursor; `claimed` is the returned
    /// index and `hit` whether it was inside the range (a real claim).
    CursorFetchAdd {
        /// Range (= sync object) the cursor belongs to.
        range: u32,
        /// Index returned by the fetch-add.
        claimed: u64,
        /// Whether `claimed < end` (the claim produced work).
        hit: bool,
    },
    /// Worker `worker` finished draining every range (last worker event).
    WorkerDone {
        /// Pool-local worker index.
        worker: u32,
    },
    /// The caller joined worker `worker` (publication of its results).
    WorkerJoin {
        /// Pool-local worker index.
        worker: u32,
    },
}

/// One recorded event: which trace-local thread emitted what.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Dense per-session thread index (assigned at first emission).
    pub thread: u32,
    /// The synchronization action.
    pub event: SyncEvent,
}

/// A totally-ordered synchronization trace of one recording session.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SyncTrace {
    /// Events in global (log) order.
    pub events: Vec<TraceEvent>,
}

impl SyncTrace {
    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(feature = "trace")]
mod imp {
    use super::{SyncEvent, SyncTrace, TraceEvent};
    use std::cell::Cell;
    use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
    use std::sync::Mutex;

    static RECORDING: AtomicBool = AtomicBool::new(false);
    static LOG: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());
    /// Serializes whole recording sessions (tests run concurrently).
    static SESSION: Mutex<()> = Mutex::new(());
    static SESSION_ID: AtomicU64 = AtomicU64::new(1);
    static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

    thread_local! {
        /// `(session id, thread index)` cached per OS thread; stale session
        /// ids trigger re-registration so indices are session-local.
        static THREAD_IX: Cell<(u64, u32)> = const { Cell::new((0, 0)) };
    }

    fn thread_ix(session: u64) -> u32 {
        THREAD_IX.with(|c| {
            let (s, ix) = c.get();
            if s == session {
                ix
            } else {
                let ix = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
                c.set((session, ix));
                ix
            }
        })
    }

    /// Whether a recording session is active.
    pub fn enabled() -> bool {
        RECORDING.load(Ordering::Relaxed)
    }

    /// Appends `event` to the session log (no-op outside a session).
    pub fn emit(event: SyncEvent) {
        if !enabled() {
            return;
        }
        let thread = thread_ix(SESSION_ID.load(Ordering::Relaxed));
        let mut log = LOG.lock().unwrap_or_else(|e| e.into_inner());
        // Double-check under the log lock: a session may have ended
        // between the fast-path check and here.
        if RECORDING.load(Ordering::Relaxed) {
            log.push(TraceEvent { thread, event });
        }
    }

    /// Runs `f` with recording enabled and returns its result plus the
    /// captured trace. Sessions are globally serialized; threads spawned
    /// inside `f` are numbered in order of first emission.
    pub fn record<R>(f: impl FnOnce() -> R) -> (R, SyncTrace) {
        let _session = SESSION.lock().unwrap_or_else(|e| e.into_inner());
        SESSION_ID.fetch_add(1, Ordering::Relaxed);
        NEXT_THREAD.store(0, Ordering::Relaxed);
        LOG.lock().unwrap_or_else(|e| e.into_inner()).clear();
        RECORDING.store(true, Ordering::SeqCst);
        let result = f();
        RECORDING.store(false, Ordering::SeqCst);
        let events = std::mem::take(&mut *LOG.lock().unwrap_or_else(|e| e.into_inner()));
        (result, SyncTrace { events })
    }
}

#[cfg(not(feature = "trace"))]
mod imp {
    use super::{SyncEvent, SyncTrace};

    /// Always `false`: the `trace` feature is not compiled in.
    #[inline(always)]
    pub fn enabled() -> bool {
        false
    }

    /// Compiles to nothing.
    #[inline(always)]
    pub fn emit(_event: SyncEvent) {}

    /// Runs `f`; the returned trace is empty (no instrumentation built).
    pub fn record<R>(f: impl FnOnce() -> R) -> (R, SyncTrace) {
        (f(), SyncTrace::default())
    }
}

pub use imp::{emit, enabled, record};

#[cfg(all(test, feature = "trace"))]
mod tests {
    use super::*;

    #[test]
    fn record_captures_events_in_order() {
        let ((), trace) = record(|| {
            emit(SyncEvent::CursorFetchAdd {
                range: 0,
                claimed: 0,
                hit: true,
            });
            emit(SyncEvent::WorkerDone { worker: 0 });
            emit(SyncEvent::WorkerJoin { worker: 0 });
        });
        let events: Vec<SyncEvent> = trace.events.iter().map(|e| e.event).collect();
        assert_eq!(
            events,
            vec![
                SyncEvent::CursorFetchAdd {
                    range: 0,
                    claimed: 0,
                    hit: true
                },
                SyncEvent::WorkerDone { worker: 0 },
                SyncEvent::WorkerJoin { worker: 0 }
            ]
        );
    }

    #[test]
    fn nothing_recorded_outside_sessions() {
        emit(SyncEvent::WorkerDone { worker: 0 }); // dropped silently
        let ((), trace) = record(|| {});
        assert!(trace.is_empty());
    }

    #[test]
    fn threads_get_session_local_indices() {
        let ((), trace) = record(|| {
            std::thread::scope(|s| {
                for w in 0..2 {
                    s.spawn(move || emit(SyncEvent::WorkerDone { worker: w }));
                }
            });
        });
        assert_eq!(trace.len(), 2);
        let mut threads: Vec<u32> = trace.events.iter().map(|e| e.thread).collect();
        threads.sort_unstable();
        assert_eq!(threads, vec![0, 1]);
    }
}
