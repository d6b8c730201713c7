//! # mmio-analyze
//!
//! Static analysis of CDAGs and distributed runs, reporting structured
//! [`Diagnostic`]s with stable codes:
//!
//! | family | pass | module |
//! |--------|------|--------|
//! | `MMIO-Axxx` | CDAG structure lints (acyclicity witness, rank consistency, dangling/unreachable, copy rules, Fact 1, single-use, tensor identity, Lemma 1 and Routing Theorem hypotheses) | [`cdag`] |
//! | `MMIO-Dxxx` | distributed-run auditing (send/recv conservation, operand availability, assignment totality, cache occupancy ≤ M) | [`distsim`] |
//!
//! Schedule legality and the routing bound each have one checker, the
//! certificate verifier (`mmio_cert::verify`). `mmio analyze` emits its
//! schedule and routing witnesses as certificates, verifies them, and
//! carries every `MMIO-Vxxx` rejection into its report with
//! [`Report::push_verdict`].
//!
//! A further family, `MMIO-Cxxx` (concurrency soundness), shares this
//! crate's diagnostic framework but is emitted by `mmio-check`'s
//! happens-before race detector and bounded model checker.
//!
//! The passes are *re-verifiers*: they share no code with the constructors
//! they audit (`mmio_cdag::MetaVertices`, the `mmio-parallel` distributed
//! simulator), so agreement between constructor and analyzer is genuine
//! double-entry bookkeeping. Where a defect cannot occur in a correctly
//! built artifact (a `Cdag` is topologically ordered by construction), the
//! pass runs on an extracted [`facts::GraphFacts`] view that tests can
//! fabricate — see the code table in `DESIGN.md` and the golden tests in
//! `tests/golden.rs`.
//!
//! ```
//! use mmio_analyze::{analyze_base_at, codes};
//! use mmio_cdag::BaseGraph;
//! use mmio_matrix::{Matrix, Rational};
//!
//! let one = Matrix::from_vec(1, 1, vec![Rational::ONE]);
//! let base = BaseGraph::new("unit", 1, one.clone(), one.clone(), one);
//! let report = analyze_base_at(&base, 2);
//! assert!(!report.has_errors());
//! // The 1×1 identity algorithm takes no linear combinations: Lemma 1 does
//! // not apply, which the analyzer notes as a warning.
//! assert!(report.has_code(codes::CDAG_LEMMA1));
//! ```

// The fact-extraction and audit passes walk every vertex of graphs that
// reach tens of millions of vertices; performance lints are errors here,
// as in mmio-cdag and mmio-pebble.
#![deny(clippy::perf)]
#![forbid(unsafe_code)]

pub mod cdag;
pub mod codes;
pub mod diag;
pub mod distsim;
pub mod facts;

pub use cdag::{
    analyze_base_at, audit_fact1, lint_base, lint_facts, report_routing_infeasible, CdagAudit,
};
pub use diag::{Diagnostic, Report, Severity, Span};
pub use distsim::{audit_dist_trace, DistAudit};
pub use facts::GraphFacts;
