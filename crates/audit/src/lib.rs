#![forbid(unsafe_code)]
//! # mmio-audit — whole-workspace static soundness auditor
//!
//! The repo makes two external promises that types alone cannot state:
//! certificate verification (`mmio-cert`) never panics on adversarial
//! input, and the `mmio-serve` request path always answers with a typed
//! response. This crate *proves* those promises statically, on every CI
//! run, with `MMIO-Lxxx` findings flowing through the same
//! [`mmio_analyze`] diagnostics machinery as every other pass.
//!
//! Four pass families (see `DESIGN.md` §14):
//!
//! 1. **Panic reachability** ([`panics`]) — a conservative call graph
//!    ([`graph`]) over a hand-rolled token model ([`lex`], [`parse`];
//!    no proc-macro dependencies) proves the configured trust roots
//!    ([`config::TRUST_ROOTS`]) cannot reach `unwrap`/`expect`/panic
//!    macros/indexing outside `catch_unwind` isolation. Reachable
//!    sites get shortest-chain witnesses; discharge is only via
//!    `// audit: safe — reason` comments, which are themselves audited
//!    for staleness.
//! 2. **Registry lifecycle** ([`registry`]) — every `MMIO-*` code is
//!    emitted by exactly one crate, registered, documented in
//!    DESIGN.md, and asserted by a test or corpus.
//! 3. **Determinism & hygiene** ([`hygiene`]) — no hash-order
//!    iteration feeding rendered output, no wall-clock in certificate
//!    payloads, `#![forbid(unsafe_code)]` in every crate root, and no
//!    audited-feature leakage into default builds.
//! 4. **Dead code** ([`dead`]) — every non-test fn is reached from a
//!    root: a binary's `main`, a trait-impl method, an audit root, or
//!    an example or benchmark file, which the loader reads as roots
//!    only.
//!
//! Entry points: [`audit_workspace`] (filesystem) and [`audit_model`]
//! (pre-built model — used by the fixture tests). The `mmio audit`
//! subcommand and the blocking CI job sit on top of these.

pub mod config;
pub mod dead;
pub mod finding;
pub mod graph;
pub mod hygiene;
pub mod lex;
pub mod panics;
pub mod parse;
pub mod registry;
pub mod run;

pub use finding::Finding;
pub use run::{audit_model, audit_workspace, find_workspace_root, AuditOutcome, Stats};
