//! # mmio-pebble
//!
//! The paper's machine model, executable: a two-level memory hierarchy
//! (unbounded slow memory + cache of size `M`) in which CDAG computations
//! are scheduled and their I/O counted — the red–blue pebble game of Hong
//! and Kung \[10\], which the paper adopts verbatim (Section 1, "Machine
//! model").
//!
//! Model rules:
//!
//! - initially all inputs reside in slow memory and the cache is empty;
//! - moving one value between slow memory and cache costs one I/O (a *load*
//!   or a *store*);
//! - a vertex may be computed only when all its predecessors are in cache;
//!   the result appears in cache (needing a free slot);
//! - no value is ever computed twice;
//! - the computation ends when every output has been stored to slow memory.
//!
//! The *I/O-complexity* of an algorithm is the minimum number of I/Os over
//! all valid schedules. This crate provides:
//!
//! - [`auto`]: a scheduler that turns a *compute order* into a valid
//!   schedule under a [`PolicySpec`] (LRU, Belady's MIN, seeded random, see
//!   [`policy`]) and counts its I/O — the workhorse of every upper-bound
//!   measurement;
//! - [`orders`]: compute orders — rank-by-rank (pessimal locality), the
//!   recursive depth-first order of the actual Strassen-like algorithm
//!   (which attains the Theorem 1 lower bound, cf. \[3\]), and random
//!   topological orders;
//! - [`game`]: exact minimum-I/O search for tiny CDAGs (0-1 Dijkstra over
//!   pebbling states), used to validate the scheduler against ground truth;
//! - [`blocked`]: the classical blocked-multiplication I/O model
//!   (Hong–Kung `Θ(n³/√M)`), the baseline of experiment E10;
//! - [`sweep`]: pooled batch runs of (order × policy × M) grids with
//!   deterministic, thread-count-independent results.
//!
//! [`auto`] is the O(log M)-per-event engine: an exact LRU recency list
//! and an indexed Belady heap, both holding only cached vertices. The
//! original scan-based engine, with its own scan rule per policy, survives
//! in test builds only as `auto::reference`, and every release is held to
//! an exact equivalence contract between the two (same stats, same
//! schedules, same eviction sequences — see `src/auto/equivalence.rs`).
//! The strict replay of explicit schedules against the model rules,
//! `sim`, is likewise a test-only oracle: both engines' recorded schedules
//! are replayed through it. Release builds check schedule legality with
//! `mmio_analyze::audit_schedule` (`mmio analyze`) and the `mmio-cert`
//! replay (`mmio cert verify`), which share no code with `sim`.
//!
//! ```
//! use mmio_algos::strassen::strassen;
//! use mmio_cdag::build::build_cdag;
//! use mmio_pebble::{AutoScheduler, orders::recursive_order, policy::Lru};
//!
//! let g = build_cdag(&strassen(), 3); // 8×8 matmul CDAG
//! let order = recursive_order(&g);
//! let stats = AutoScheduler::new(&g, 16).run(&order, &Lru);
//! assert!(stats.io() >= 2 * 64 + 64); // at least compulsory traffic
//! assert_eq!(stats.computes as usize, order.len());
//! ```

// The scheduler engine is the hot loop of every upper-bound experiment;
// performance lints are errors here, not suggestions.
#![deny(clippy::perf)]
#![forbid(unsafe_code)]

pub mod auto;
pub mod blocked;
pub mod cert;
pub mod game;
pub mod graph;
pub mod hierarchy;
#[cfg(feature = "mutate")]
pub mod mutate;
pub mod orders;
pub mod policy;
pub mod schedule;
#[cfg(test)]
mod sim;
pub mod stats;
pub mod sweep;

pub use auto::{AutoScheduler, CacheTooSmall, RunOptions, RunOutput, SchedScratch, UseLists};
pub use graph::{PebbleGraph, ViewGraph};
pub use policy::PolicySpec;
pub use schedule::{Action, Schedule};
pub use stats::{EngineCounters, IoStats};
pub use sweep::{GridPoint, SweepPoint, SweepRun};

#[cfg(test)]
pub(crate) mod testutil {
    use mmio_cdag::BaseGraph;
    use mmio_matrix::{Matrix, Rational};

    /// Classical 2×2 base graph, the crate tests' workhorse.
    pub fn classical2_base() -> BaseGraph {
        let n0 = 2;
        let mut enc_a = Matrix::zeros(8, 4);
        let mut enc_b = Matrix::zeros(8, 4);
        let mut dec = Matrix::zeros(4, 8);
        let mut m = 0;
        for i in 0..n0 {
            for j in 0..n0 {
                for k in 0..n0 {
                    enc_a[(m, i * n0 + k)] = Rational::ONE;
                    enc_b[(m, k * n0 + j)] = Rational::ONE;
                    dec[(i * n0 + j, m)] = Rational::ONE;
                    m += 1;
                }
            }
        }
        BaseGraph::new("classical2", n0, enc_a, enc_b, dec)
    }
}
