//! # mmio-check
//!
//! Concurrency soundness for the parallel layer: the paper's bounds are
//! statements about *every* legal execution (Theorem 1 holds for all
//! schedules of the P-processor machine), so the tooling that produces
//! certificates in parallel must be correct on every interleaving too —
//! not just on the runs CI happened to observe. Three layers, stacked
//! from observation to proof:
//!
//! 1. **Recorded traces** ([`lower`](mod@lower), backed by `mmio-parallel`'s
//!    feature-gated sync-event instrumentation): real executions of the
//!    pool, replayed through a vector-clock happens-before race detector
//!    ([`hb`]) and a direct claim-uniqueness scan. Witnesses one legal
//!    execution each.
//! 2. **Bounded model checking** ([`explore`](mod@explore), [`models`]): a virtual
//!    replica of `Pool::map` (own range first, then every other range in
//!    turn, split by the *production* `split_ranges`), explored over every
//!    reachable state at small bounds, proving byte-identical output to
//!    serial on every schedule plus absence of deadlocks and lost
//!    updates.
//! 3. **Distributed-run audits** (in `mmio-analyze::distsim`, driven from
//!    the suite here): event-level re-verification of traced `distsim`
//!    runs across the whole registry.
//!
//! Findings use `mmio-analyze`'s diagnostic framework with the stable
//! `MMIO-Cxxx` (concurrency) and `MMIO-Dxxx` (distributed) codes, and the
//! suite self-tests its detectors against planted defects ([`fixtures`])
//! on every run. Front door: [`suite::run_suite`], wired to `mmio check`.

#![forbid(unsafe_code)]

pub mod explore;
pub mod fixtures;
pub mod hb;
pub mod lower;
pub mod models;
pub mod suite;

pub use explore::{explore, Exploration, Limits, Model};
pub use hb::{detect_races, HbAnalysis, VectorClock};
pub use lower::{lower, scan_trace, Loc, Op, OpKind};
pub use models::PoolMapModel;
pub use suite::{run_suite, CheckOutcome};
