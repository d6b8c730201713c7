//! The zero-false-positive contract: the real workspace must audit
//! clean (no errors), and the model/graph sizes are snapshot-pinned so
//! a silent resolution regression (dropped files, collapsed edges)
//! cannot hide behind a still-green finding list.

use mmio_analyze::Severity;
use mmio_audit::{audit_workspace, find_workspace_root, AuditOptions};
use std::path::Path;

fn outcome() -> mmio_audit::AuditOutcome {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above crates/audit");
    audit_workspace(&root, &AuditOptions::default()).expect("workspace audits")
}

#[test]
fn real_workspace_has_zero_errors() {
    let out = outcome();
    let errors: Vec<_> = out
        .findings
        .iter()
        .filter(|f| f.severity == Severity::Error)
        .collect();
    assert!(
        errors.is_empty(),
        "the real workspace must audit clean; new errors need a fix or a \
         reviewed `// audit: safe` justification:\n{errors:#?}"
    );
}

#[test]
fn model_size_snapshot() {
    // Update these pins deliberately when the workspace grows — a drop
    // means the auditor stopped seeing part of the codebase.
    let s = outcome().stats;
    assert_eq!(
        (s.files, s.fns, s.edges, s.sites),
        (174, 1949, 4407, 2480),
        "model/graph size drifted: files={}, fns={}, edges={}, sites={}",
        s.files,
        s.fns,
        s.edges,
        s.sites
    );
}
