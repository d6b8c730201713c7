//! Lowering recorded sync traces to the race detector's op language, plus
//! direct semantic checks on the trace itself.
//!
//! A [`SyncTrace`] records what the
//! instrumented pool *did*; the happens-before detector wants an
//! abstract sequence of acquires, releases, atomic RMWs, and plain shared
//! accesses. The mapping mirrors the real synchronization:
//!
//! - a cursor `fetch_add` is an [`OpKind::Rmw`] on that range's cursor
//!   object; a *hit* additionally writes the claimed result slot
//!   ([`Loc::Item`]) — the worker computes `f(i)` into memory only it may
//!   touch;
//! - `WorkerDone`/`WorkerJoin` are the release/acquire halves of
//!   `thread::join` on a per-worker handoff object — the only edge that
//!   publishes result slots to the caller;
//! - after joining all workers, the caller *reads* every claimed slot (the
//!   merge), which is exactly where a missing join materializes as a race.
//!
//! [`scan_trace`] separately checks a property that needs no clocks, only
//! counting: every index claimed at most once (`MMIO-C002` otherwise).

use mmio_analyze::{codes, Report, Severity, Span};
use mmio_parallel::events::{SyncEvent, SyncTrace};
use std::collections::HashMap;

/// A shared location the detector tracks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Loc {
    /// Result slot of index `i` in a `Pool::map` output.
    Item(u64),
}

/// Whether an access reads or writes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// Read of a shared location.
    Read,
    /// Write of a shared location.
    Write,
}

/// The detector's op language.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// Acquire on a sync object.
    Acquire(u64),
    /// Release on a sync object.
    Release(u64),
    /// Atomic read-modify-write (acquire + release) on a sync object.
    Rmw(u64),
    /// Plain access to a shared location.
    Access(Loc, AccessKind),
}

/// One lowered operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    /// Trace-local thread that performed it.
    pub thread: u32,
    /// What it did.
    pub kind: OpKind,
}

/// Sync-object id spaces (disjoint by construction).
const CURSOR_BASE: u64 = 1 << 32;
const JOIN_BASE: u64 = 2 << 32;

/// Lowers a recorded trace to the detector's op language (see the module
/// docs for the mapping).
pub fn lower(trace: &SyncTrace) -> Vec<Op> {
    let mut ops = Vec::with_capacity(trace.len() + 16);
    let mut claimed: Vec<u64> = Vec::new();
    let mut joiner: Option<u32> = None;
    for e in &trace.events {
        let t = e.thread;
        let push = |ops: &mut Vec<Op>, kind| ops.push(Op { thread: t, kind });
        match e.event {
            SyncEvent::CursorFetchAdd {
                range,
                claimed: i,
                hit,
            } => {
                push(&mut ops, OpKind::Rmw(CURSOR_BASE + u64::from(range)));
                if hit {
                    push(&mut ops, OpKind::Access(Loc::Item(i), AccessKind::Write));
                    claimed.push(i);
                }
            }
            SyncEvent::WorkerDone { worker } => {
                push(&mut ops, OpKind::Release(JOIN_BASE + u64::from(worker)));
            }
            SyncEvent::WorkerJoin { worker } => {
                push(&mut ops, OpKind::Acquire(JOIN_BASE + u64::from(worker)));
                joiner = Some(t);
            }
        }
    }
    // The caller's merge: after the joins, every claimed slot is read by
    // the joining thread.
    if let Some(t) = joiner {
        claimed.sort_unstable();
        claimed.dedup();
        for i in claimed {
            ops.push(Op {
                thread: t,
                kind: OpKind::Access(Loc::Item(i), AccessKind::Read),
            });
        }
    }
    ops
}

/// Counting results of [`scan_trace`].
#[derive(Clone, Debug, Default)]
pub struct TraceScan {
    /// Successful cursor claims (hits).
    pub claims: u64,
    /// Indices claimed more than once.
    pub duplicate_claims: u64,
}

/// Checks claim-uniqueness (`MMIO-C002`) by direct counting over the trace.
pub fn scan_trace(trace: &SyncTrace, report: &mut Report) -> TraceScan {
    let mut scan = TraceScan::default();
    let mut claims: HashMap<(u32, u64), u32> = HashMap::new();
    for e in &trace.events {
        if let SyncEvent::CursorFetchAdd {
            range,
            claimed,
            hit: true,
        } = e.event
        {
            scan.claims += 1;
            let c = claims.entry((range, claimed)).or_insert(0);
            *c += 1;
            if *c == 2 {
                scan.duplicate_claims += 1;
                report.push_with_hint(
                    codes::CONC_LOST_UPDATE,
                    Severity::Error,
                    Span::Thread(e.thread),
                    format!("index {claimed} of range {range} was claimed twice"),
                    "a duplicated claim overwrites another worker's result (lost update)",
                );
            }
        }
    }
    scan
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmio_parallel::events::TraceEvent;

    fn trace(events: Vec<(u32, SyncEvent)>) -> SyncTrace {
        SyncTrace {
            events: events
                .into_iter()
                .map(|(thread, event)| TraceEvent { thread, event })
                .collect(),
        }
    }

    #[test]
    fn clean_two_worker_trace_lowers_and_scans_clean() {
        let t = trace(vec![
            (
                1,
                SyncEvent::CursorFetchAdd {
                    range: 0,
                    claimed: 0,
                    hit: true,
                },
            ),
            (
                2,
                SyncEvent::CursorFetchAdd {
                    range: 1,
                    claimed: 1,
                    hit: true,
                },
            ),
            (
                1,
                SyncEvent::CursorFetchAdd {
                    range: 0,
                    claimed: 1,
                    hit: false,
                },
            ),
            (1, SyncEvent::WorkerDone { worker: 0 }),
            (2, SyncEvent::WorkerDone { worker: 1 }),
            (0, SyncEvent::WorkerJoin { worker: 0 }),
            (0, SyncEvent::WorkerJoin { worker: 1 }),
        ]);
        let ops = lower(&t);
        // Joined reads of both claimed slots appended at the end.
        assert!(matches!(
            ops.last(),
            Some(Op {
                thread: 0,
                kind: OpKind::Access(Loc::Item(1), AccessKind::Read)
            })
        ));
        let mut r = Report::new();
        let hb = crate::hb::detect_races(&ops, &mut r);
        assert!(hb.races.is_empty(), "{:?}", hb.races);
        let scan = scan_trace(&t, &mut r);
        assert_eq!(scan.claims, 2);
        assert_eq!(scan.duplicate_claims, 0);
        assert!(!r.has_errors());
    }

    #[test]
    fn missing_join_is_a_race() {
        // Worker 1's slot is read by the main thread without joining it.
        let t = trace(vec![
            (
                1,
                SyncEvent::CursorFetchAdd {
                    range: 0,
                    claimed: 0,
                    hit: true,
                },
            ),
            (1, SyncEvent::WorkerDone { worker: 0 }),
            (
                2,
                SyncEvent::CursorFetchAdd {
                    range: 1,
                    claimed: 1,
                    hit: true,
                },
            ),
            (2, SyncEvent::WorkerDone { worker: 1 }),
            (0, SyncEvent::WorkerJoin { worker: 0 }), // worker 1 never joined
        ]);
        let mut r = Report::new();
        let hb = crate::hb::detect_races(&lower(&t), &mut r);
        assert_eq!(hb.races.len(), 1);
        assert!(matches!(hb.races[0].loc, Loc::Item(1)));
        assert!(r.has_code(mmio_analyze::codes::CONC_DATA_RACE));
    }

    #[test]
    fn duplicate_claim_fires_lost_update() {
        let t = trace(vec![
            (
                1,
                SyncEvent::CursorFetchAdd {
                    range: 0,
                    claimed: 3,
                    hit: true,
                },
            ),
            (
                2,
                SyncEvent::CursorFetchAdd {
                    range: 0,
                    claimed: 3,
                    hit: true,
                },
            ),
        ]);
        let mut r = Report::new();
        let scan = scan_trace(&t, &mut r);
        assert_eq!(scan.duplicate_claims, 1);
        assert!(r.has_code(mmio_analyze::codes::CONC_LOST_UPDATE));
    }

    #[test]
    fn same_index_different_ranges_is_fine() {
        // Ranges partition one global index space, but the scan keys on
        // (range, index) so equal indices in different ranges (as a
        // defensive matter) do not alias.
        let t = trace(vec![
            (
                1,
                SyncEvent::CursorFetchAdd {
                    range: 0,
                    claimed: 0,
                    hit: true,
                },
            ),
            (
                2,
                SyncEvent::CursorFetchAdd {
                    range: 1,
                    claimed: 0,
                    hit: true,
                },
            ),
        ]);
        let mut r = Report::new();
        assert_eq!(scan_trace(&t, &mut r).duplicate_claims, 0);
    }
}
