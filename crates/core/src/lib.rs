//! # mmio-core
//!
//! The primary contribution of *Matrix Multiplication I/O-Complexity by Path
//! Routing* (Scott, Holtz, Schwartz; SPAA 2015), made executable: every
//! lemma of the paper is a constructive, machine-checked procedure.
//!
//! The paper proves that any Strassen-like matrix multiplication algorithm
//! with base-graph parameters `(2a inputs, b multiplications)` — under the
//! assumption that every nontrivial linear combination feeds exactly one
//! multiplication — has sequential I/O-complexity
//! `Ω((n/√M)^{2·log_a b} · M)`, and bandwidth cost `Ω(·/P)` on `P`
//! processors. The proof replaces the edge-expansion machinery of
//! Ballard–Demmel–Holtz–Schwartz with **path routings**: explicit families
//! of paths between the inputs and outputs of every subcomputation `G_k`
//! that hit no vertex (and no meta-vertex) more than `6a^k` times. Any
//! computation segment that computes some-but-not-all endpoints of such a
//! routing must then have a large boundary `δ'(S')`, which forces cache
//! traffic.
//!
//! Module map (paper object → module):
//!
//! | Paper | Module |
//! |---|---|
//! | guaranteed dependencies (Section 7) | [`deps`] |
//! | Hall matching `H = (X, Y)`, Lemma 5 | [`hall`], [`lemma56`] |
//! | Lemma 3 (chain routing for `F`, Claim 2 lifting) | [`chains`] |
//! | Lemma 4 (concatenation `a_{ij}→c_{ij'}→b_{jj'}→c_{i'j'}`) | [`lemma4`] |
//! | Theorem 2 (Routing Theorem, `6a^k`-routings) | [`routing`] |
//! | Claim 1 (`11·7^k`-routing in Strassen's `D_k`) | [`claim1`] |
//! | `R(S)`, `W(S)`, `δ(S)`, `δ'(S')` (Definition 1) | [`boundary`] |
//! | segment argument (Sections 5–6, Equations 1–2) | [`segments`] |
//! | Lemma 1 (input-disjoint subcomputations) | [`lemma1`] |
//! | Lemma 6 (matrix–vector reduction, Winograd \[15\]) | [`lemma56`] |
//! | Theorem 1 (closed-form bounds, certificates) | [`theorem1`] |
//! | a validated instance `(G_r, M, P)` | [`instance`] |
//! | prior techniques, for contrast (Section 2) | [`dominator`], [`expansion`], [`loomis_whitney`] |
//! | Section 8 extension (single-use lifted) | [`extension`] |
//!
//! ```
//! use mmio_algos::strassen::strassen;
//! use mmio_cdag::build::build_cdag;
//! use mmio_core::theorem2::InOutRouting;
//!
//! // Construct and verify the Routing Theorem's 6a^k-routing on G_2.
//! let g = build_cdag(&strassen(), 2);
//! let routing = InOutRouting::new(&g).expect("Hall matching exists");
//! let stats = routing.verify();
//! assert!(stats.is_m_routing(routing.theorem2_bound()));
//! assert_eq!(stats.paths, 2 * 16 * 16); // |In|·|Out| = 2a^k·a^k
//! ```

// Chain construction, hit counting, and transport are the workspace's hot
// paths; performance lints are errors here, not suggestions.
#![deny(clippy::perf)]
#![forbid(unsafe_code)]

pub mod boundary;
pub mod chains;
pub mod claim1;
pub mod deps;
pub mod dominator;
pub mod expansion;
pub mod extension;
pub mod hall;
pub mod instance;
pub mod lemma1;
pub mod lemma4;
pub mod lemma56;
pub mod loomis_whitney;
#[cfg(feature = "mutate")]
pub mod mutate;
pub mod report;
pub mod routing;
pub mod segments;
pub mod theorem1;
pub mod theorem2;
pub mod transport;

pub use instance::{Instance, InstanceError};
pub use routing::{RoutingStats, VertexHitCounter};
pub use theorem1::LowerBound;
pub use theorem2::InOutRouting;
pub use transport::{RoutingClass, TransportReport};
