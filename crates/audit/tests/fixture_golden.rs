//! Golden test over the planted-violation fixture workspace: every
//! `MMIO-Lxxx` code must fire exactly once, at its planted site, and
//! nothing else may fire — the fixture is the auditor's own
//! known-answer corpus.

use mmio_analyze::Severity;
use mmio_audit::config;
use mmio_audit::graph;
use mmio_audit::run::{audit_model, load_workspace};
use std::path::Path;

/// The fixture's only panic trust root. The production
/// [`config::TRUST_ROOTS`] list names fns the fixture deliberately
/// lacks, and the panic pass reports unresolved roots as stale policy —
/// correct for the real workspace, noise here.
const FIXTURE_ROOTS: &[config::TrustRoot] = &[config::TrustRoot {
    crate_name: "mmio-cert",
    type_name: None,
    fn_name: "verify_json",
    why: "fixture verification TCB entry point",
}];

fn fixture_outcome() -> mmio_audit::AuditOutcome {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws");
    let (model, docs) = load_workspace(&root).expect("fixture workspace loads");
    let g = graph::build(&model);
    audit_model(&model, &g, &docs, FIXTURE_ROOTS)
}

#[test]
fn every_code_fires_exactly_once() {
    let out = fixture_outcome();
    let mut got: Vec<&str> = out.findings.iter().map(|f| f.code).collect();
    got.sort_unstable();
    assert_eq!(
        got,
        vec![
            "MMIO-L001",
            "MMIO-L002",
            "MMIO-L003",
            "MMIO-L004",
            "MMIO-L005",
            "MMIO-L006",
            "MMIO-L010",
            "MMIO-L011",
            "MMIO-L012",
            "MMIO-L013",
            "MMIO-L014",
            "MMIO-L020",
            "MMIO-L021",
            "MMIO-L022",
            "MMIO-L023",
            "MMIO-L024",
        ],
        "fixture findings drifted: {:#?}",
        out.findings
    );
    assert!(out.has_errors());
}

#[test]
fn findings_land_at_the_planted_sites() {
    let out = fixture_outcome();
    let file_of = |code: &str| -> &str {
        &out.findings
            .iter()
            .find(|f| f.code == code)
            .unwrap_or_else(|| panic!("{code} missing"))
            .file
    };
    // Panic family + justification lints + wall-clock: the cert fixture.
    for code in [
        "MMIO-L001",
        "MMIO-L002",
        "MMIO-L003",
        "MMIO-L004",
        "MMIO-L005",
        "MMIO-L006",
        "MMIO-L021",
    ] {
        assert_eq!(file_of(code), "crates/cert/src/lib.rs", "{code}");
    }
    // Render-path hash iteration + feature leak: the serve fixture. The
    // duplicate emitter is reported at the *second* crate's site, which
    // is also serve.
    for code in ["MMIO-L020", "MMIO-L023", "MMIO-L014"] {
        assert_eq!(file_of(code), "crates/serve/src/lib.rs", "{code}");
    }
    // Registry lifecycle + missing forbid: the extra fixture.
    assert_eq!(file_of("MMIO-L010"), "crates/extra/src/lib.rs");
    assert_eq!(file_of("MMIO-L011"), "crates/extra/src/codes.rs");
    assert_eq!(file_of("MMIO-L012"), "crates/extra/src/lib.rs");
    assert_eq!(file_of("MMIO-L013"), "crates/extra/src/lib.rs");
    assert_eq!(file_of("MMIO-L022"), "crates/extra/src/lib.rs");
    assert_eq!(file_of("MMIO-L024"), "crates/cert/src/lib.rs");
}

#[test]
fn dead_code_fires_only_at_the_planted_fn() {
    // `forgotten` is the one unreached fn. Silent: `shown_in_example`
    // (reached only from the root-only example, whose own unused fn is no
    // finding either), `oracle` (its file is a `#[cfg(test)] mod`), the
    // extra crate's emitters (reached from a trait-impl `fmt`),
    // `kept_on_purpose` (kept with a reason) and `kept_helper`, which only
    // the kept fn calls.
    let out = fixture_outcome();
    let dead: Vec<_> = out
        .findings
        .iter()
        .filter(|f| f.code == "MMIO-L024")
        .map(|f| {
            (
                f.file.as_str(),
                f.line,
                f.message.contains("mmio-cert::forgotten"),
            )
        })
        .collect();
    assert_eq!(dead, vec![("crates/cert/src/lib.rs", 59, true)]);
    // Six files load; the root-only example is not counted.
    assert_eq!(out.stats.files, 5);
}

#[test]
fn severities_match_the_registered_table() {
    let out = fixture_outcome();
    for f in &out.findings {
        let expected = match f.code {
            "MMIO-L004" | "MMIO-L011" | "MMIO-L013" => Severity::Warning,
            _ => Severity::Error,
        };
        assert_eq!(f.severity, expected, "{}: {}", f.code, f.message);
    }
}

#[test]
fn panic_findings_carry_witness_chains() {
    let out = fixture_outcome();
    for code in ["MMIO-L001", "MMIO-L002", "MMIO-L003", "MMIO-L004"] {
        let f = out
            .findings
            .iter()
            .find(|f| f.code == code)
            .unwrap_or_else(|| panic!("{code} missing"));
        assert!(
            f.chain.iter().any(|link| link.contains("verify_json")),
            "{code} chain must start at the trust root: {:?}",
            f.chain
        );
    }
}
