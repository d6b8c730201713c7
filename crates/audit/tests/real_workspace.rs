//! The zero-findings contract: the real workspace must audit clean (no
//! finding of any severity), and the model/graph sizes are snapshot-pinned so
//! a silent resolution regression (dropped files, collapsed edges)
//! cannot hide behind a still-green finding list.

use mmio_audit::{audit_workspace, find_workspace_root};
use std::path::Path;

fn outcome() -> mmio_audit::AuditOutcome {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above crates/audit");
    audit_workspace(&root).expect("workspace audits")
}

#[test]
fn real_workspace_has_zero_findings() {
    let findings = outcome().findings;
    assert!(
        findings.is_empty(),
        "the real workspace must audit clean; a new error or warning needs a \
         fix or a reviewed `// audit: safe` justification:\n{findings:#?}"
    );
}

#[test]
fn model_size_snapshot() {
    // Update these pins deliberately when the workspace grows — a drop
    // means the auditor stopped seeing part of the codebase.
    let s = outcome().stats;
    assert_eq!(
        (s.files, s.fns, s.edges, s.sites),
        (173, 1929, 4145, 2314),
        "model/graph size drifted: files={}, fns={}, edges={}, sites={}",
        s.files,
        s.fns,
        s.edges,
        s.sites
    );
}
