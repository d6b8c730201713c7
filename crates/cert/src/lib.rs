//! # mmio-cert
//!
//! Proof-carrying certificates for the path-routing pipeline: a stable,
//! versioned, serialized format for the objects the engines construct —
//! `6a^k`-routings with their Fact-1 transport, schedule-legality witnesses,
//! and pebble-sweep I/O witnesses — plus a standalone verifier with a
//! deliberately minimal trust base.
//!
//! The paper's contribution *is* a checkable object: the existence of the
//! routing certifies the lower bound. Until now the only thing checking our
//! routings was the same workspace that produced them. This crate turns
//! results into portable proof objects:
//!
//! - [`format`](mod@format) — the certificate types and their JSON encoding. Every
//!   certificate embeds the base-graph coefficients, so a certificate is
//!   self-contained: no registry lookup, no shared state.
//! - [`view`] — [`view::IndexView`], the verifier's closed-form model of
//!   `G_r`: segment offsets, dense-id ↔ structured-address conversion,
//!   predecessor derivation, copy grouping, and the Fact-1 lift, all from
//!   pure mixed-radix index arithmetic over the embedded coefficients.
//!   **No materialized graph is ever built** — this is the first concrete
//!   step toward the implicit `CdagView` of the roadmap.
//! - [`verify`](mod@verify) — the verifier: parses, re-derives, recounts, and replays;
//!   rejects with structured `MMIO-V0xx` codes ([`codes`]) in a
//!   machine-readable [`verify::Verdict`]. It never panics on untrusted
//!   input.
//! - [`mutate`] — systematic certificate corruptions for the mutation-
//!   testing harness: every mutant must be killed by the verifier, with the
//!   expected reject codes recorded next to the corruption.
//!
//! ## Trust boundary
//!
//! The verifier trusts: exact rational arithmetic (`mmio-matrix`), the
//! shared hit-counting primitives (`mmio_cdag::hits`), mixed-radix helpers
//! (`mmio_cdag::index`), and the JSON shim. It re-derives everything else:
//! the tensor identity of the embedded algorithm, every edge a path
//! traverses, the copy grouping, the transport images, hit counts, schedule
//! legality, and sweep floors. It takes *nothing* from `mmio-core` or
//! `mmio-pebble` — those crates depend on `mmio-cert` to emit, never the
//! reverse.

#![deny(clippy::perf)]
#![forbid(unsafe_code)]

pub mod codes;
pub mod fixtures;
pub mod format;
pub mod mutate;
pub mod verify;
pub mod view;

pub use format::{Certificate, Payload, FORMAT_VERSION};
pub use verify::{verify, verify_json, Verdict};
