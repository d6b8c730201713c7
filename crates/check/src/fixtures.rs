//! Planted defect traces: the checker's own test dummies.
//!
//! Each fixture is a trace with one seeded concurrency defect. The check
//! suite runs the detectors over all of them on every invocation and
//! verifies that the exact expected code fires — a self-test proving the
//! analyses have teeth, in the same spirit as `mmio-analyze`'s golden
//! corpus of known-bad artifacts. The fixtures are deterministic by
//! construction, so `mmio check --json` stays byte-identical run to run.

use mmio_algos::strassen::strassen;
use mmio_cdag::build::build_cdag;
use mmio_cdag::Cdag;
use mmio_parallel::assign::{cyclic_per_rank, Assignment};
use mmio_parallel::distsim::{simulate_traced, DistEvent, DistTrace};
use mmio_parallel::events::{SyncEvent, SyncTrace, TraceEvent};
use mmio_pebble::orders::recursive_order;

fn trace(events: Vec<(u32, SyncEvent)>) -> SyncTrace {
    SyncTrace {
        events: events
            .into_iter()
            .map(|(thread, event)| TraceEvent { thread, event })
            .collect(),
    }
}

/// A two-worker `Pool::map` trace where index 2 of range 0 is claimed by
/// both workers — the lost update a non-atomic claim produces. Expected:
/// `MMIO-C002`.
pub fn planted_lost_update() -> SyncTrace {
    trace(vec![
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
                claimed: 3,
                hit: true,
            },
        ),
        (
            1,
            SyncEvent::CursorFetchAdd {
                range: 0,
                claimed: 1,
                hit: true,
            },
        ),
        // Both workers observed cursor = 2 (a torn load/store pair) and
        // both claim index 2.
        (
            1,
            SyncEvent::CursorFetchAdd {
                range: 0,
                claimed: 2,
                hit: true,
            },
        ),
        (
            2,
            SyncEvent::CursorFetchAdd {
                range: 0,
                claimed: 2,
                hit: true,
            },
        ),
        (
            1,
            SyncEvent::CursorFetchAdd {
                range: 0,
                claimed: 3,
                hit: false,
            },
        ),
        (1, SyncEvent::WorkerDone { worker: 0 }),
        (2, SyncEvent::WorkerDone { worker: 1 }),
        (0, SyncEvent::WorkerJoin { worker: 0 }),
        (0, SyncEvent::WorkerJoin { worker: 1 }),
    ])
}

/// A `Pool::map` trace whose second worker is never joined, yet its slot
/// is consumed — an unordered write/read pair. Expected: `MMIO-C001`.
pub fn planted_unjoined_read() -> SyncTrace {
    trace(vec![
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
        (0, SyncEvent::WorkerJoin { worker: 0 }),
    ])
}

/// A distributed run (Strassen, `r = 1`, 2 ranks) with a forged receive
/// that matches no send. Expected: `MMIO-D005` (conservation, `MMIO-D001`,
/// necessarily breaks alongside it — the forged word came from nowhere).
pub fn planted_unmatched_recv() -> (Cdag, Assignment, DistTrace) {
    let g = build_cdag(&strassen(), 1);
    let order = recursive_order(&g);
    let a = cyclic_per_rank(&g, 2);
    let mut t = simulate_traced(&g, &a, &order, 32);
    t.events.push(DistEvent::Recv {
        to: 0,
        from: 1,
        v: 0,
    });
    (g, a, t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_deterministic() {
        assert_eq!(planted_lost_update(), planted_lost_update());
        let (_, _, t1) = planted_unmatched_recv();
        let (_, _, t2) = planted_unmatched_recv();
        assert_eq!(t1.events, t2.events);
    }
}
