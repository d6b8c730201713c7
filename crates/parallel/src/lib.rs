//! # mmio-parallel
//!
//! The paper's parallel machine model, executable: `P` processors, each
//! with an independent local memory of size `M`, communicating single
//! values. The *bandwidth cost* of a run is the number of words moved
//! along the critical path — bounded below by Theorem 1 as
//! `Ω((n/√M)^{ω₀}·M/P)`, and — independently of `M`, under per-rank load
//! balance — as `Ω(n²/P^{2/ω₀})`.
//!
//! Three levels of fidelity:
//!
//! - [`assign`] + [`bandwidth`]: distribute the CDAG's vertices over
//!   processors and count the words every edge crossing a processor
//!   boundary moves; critical-path cost is the maximum per-processor
//!   traffic. Load balance per rank (the hypothesis of the
//!   memory-independent bound) is checked, not assumed.
//! - [`caps`]: a step-level simulator of the Communication-Avoiding
//!   Parallel Strassen scheme of Ballard–Demmel–Holtz–Lipshitz–Schwartz
//!   ([3]): BFS steps split the `b` subproblems over `P/b` processor
//!   groups, DFS steps recurse with all processors; the simulator counts
//!   the words each step redistributes and shows the bounds are attained.
//! - [`executor`]: a real multi-threaded executor (`std` channels,
//!   one OS thread per simulated processor) that multiplies actual
//!   matrices with one BFS level of a Strassen-like algorithm and counts
//!   every word that crosses a channel.
//!
//! ```
//! use mmio_algos::strassen::strassen;
//! use mmio_parallel::caps::simulate;
//!
//! // One BFS step at P = 7 with ample memory.
//! let run = simulate(&strassen(), 64, 7, 1 << 20);
//! assert!(run.steps.starts_with('B'));
//! assert!(run.words_per_proc > 0.0);
//! ```

#![forbid(unsafe_code)]

pub mod assign;
pub mod bandwidth;
pub mod caps;
pub mod distsim;
pub mod events;
pub mod executor;
pub mod pool;

pub use bandwidth::BandwidthReport;
pub use pool::{JoinError, Pool};
