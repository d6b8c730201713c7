//! Pass 2: diagnostic-registry lifecycle consistency.
//!
//! Every `MMIO-[A-Z]\d+` literal in the workspace is tracked through its
//! intended lifecycle: **emitted** (used by non-test code outside a
//! `codes.rs`) → **registered** (a literal in some crate's `codes.rs`
//! table) → **documented** (appears in `DESIGN.md`) → **asserted**
//! (appears in test code or a test corpus). Violations:
//!
//! - `MMIO-L010` (error): emitted but never registered.
//! - `MMIO-L011` (warning): registered but never emitted — dead code id.
//! - `MMIO-L012` (error): emitted but undocumented in DESIGN.md.
//! - `MMIO-L013` (warning): emitted but no test or corpus asserts it.
//! - `MMIO-L014` (error): emitted by two different crates — code
//!   families have exactly one emitting crate.
//!
//! Emission is counted for raw literals *and* for uses of `const`s that
//! `codes.rs` files bind to a single code literal (the normal idiom).
//! Occurrences in *check* position (`== code`, `!= code`, match arms)
//! are consumers, not emitters, and are skipped. Occurrences in the
//! configured expectation files (mutation harnesses, self-test suites)
//! count as assertion evidence *and* keep a code alive for `L011`, but
//! claim no crate ownership in the `L014` duplicate-emitter check — a
//! self-test suite exercises codes owned elsewhere, yet a code whose
//! only production emitter is that suite is not dead.

use crate::finding::Finding;
use crate::lex::Tok;
use crate::parse::Model;
use mmio_analyze::codes;
use mmio_analyze::Severity;
use std::collections::{BTreeMap, HashMap};

/// A non-Rust input to the registry pass (docs and test corpora).
#[derive(Debug)]
pub struct DocFile {
    /// Workspace-relative path.
    pub rel_path: String,
    pub text: String,
    /// Lives under a `tests/` dir — counts as assertion evidence.
    pub is_test_corpus: bool,
    /// Is `DESIGN.md` — counts as documentation.
    pub is_design: bool,
}

/// One sighting of a code.
#[derive(Clone, Debug)]
struct Occurrence {
    file: String,
    line: u32,
    crate_name: String,
    in_test: bool,
    /// Sighted in a configured expectation file: counts as assertion
    /// evidence and keeps the code alive, but claims no ownership in
    /// the duplicate-emitter check.
    in_expectation: bool,
}

/// Per-code lifecycle evidence.
#[derive(Default, Debug)]
struct Lifecycle {
    emissions: Vec<Occurrence>,
    registrations: Vec<Occurrence>,
    documented: bool,
    tested: bool,
}

/// Extracts every `MMIO-[A-Z]<digits>` code from a string, with byte
/// offsets.
pub fn extract_codes(text: &str) -> Vec<(String, usize)> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while let Some(pos) = text[i..].find("MMIO-") {
        let start = i + pos;
        let mut j = start + 5;
        if j < bytes.len() && bytes[j].is_ascii_uppercase() {
            j += 1;
            let digits_start = j;
            while j < bytes.len() && bytes[j].is_ascii_digit() {
                j += 1;
            }
            if j > digits_start {
                out.push((text[start..j].to_string(), start));
            }
        }
        i = start + 5;
    }
    out
}

/// 1-based line of a byte offset.
fn line_of(text: &str, offset: usize) -> u32 {
    text[..offset].bytes().filter(|b| *b == b'\n').count() as u32 + 1
}

/// Whether the token at `i` sits in check position (comparison or match
/// arm) rather than emission position.
fn is_check_context(toks: &[crate::lex::Spanned], i: usize) -> bool {
    let prev = i.checked_sub(1).map(|p| &toks[p].tok);
    let next = toks.get(i + 1).map(|t| &t.tok);
    matches!(prev, Some(Tok::Punct("==" | "!=" | "|")))
        || matches!(next, Some(Tok::Punct("==" | "!=" | "=>")))
}

/// Runs the registry pass over the parsed model plus doc/corpus files.
pub fn run(model: &Model, docs: &[DocFile]) -> Vec<Finding> {
    // 1. Map const names bound to exactly one code literal in codes.rs
    //    files (`pub const F006: &str = "MMIO-F006";`).
    let mut const_to_code: HashMap<String, String> = HashMap::new();
    for file in &model.files {
        if !file.rel_path.ends_with("codes.rs") {
            continue;
        }
        let toks = &file.toks;
        let mut i = 0usize;
        while i < toks.len() {
            if toks[i].is_ident("const") {
                if let Some(name) = toks.get(i + 1).and_then(|t| t.ident()) {
                    let mut codes_here = Vec::new();
                    let mut j = i + 2;
                    while j < toks.len() && !toks[j].is_punct(";") {
                        if let Tok::Lit(raw) = &toks[j].tok {
                            for (c, _) in extract_codes(raw) {
                                codes_here.push(c);
                            }
                        }
                        j += 1;
                    }
                    if codes_here.len() == 1 {
                        const_to_code.insert(name.to_string(), codes_here.remove(0));
                    }
                    i = j;
                    continue;
                }
            }
            i += 1;
        }
    }

    // 2. Walk every token of every file, collecting sightings.
    let mut life: BTreeMap<String, Lifecycle> = BTreeMap::new();
    for file in model.files.iter().filter(|f| !f.root_only) {
        let in_codes_file = file.rel_path.ends_with("codes.rs");
        let in_expectation_file = crate::config::is_expectation_file(&file.rel_path);
        for (i, st) in file.toks.iter().enumerate() {
            let found: Vec<String> = match &st.tok {
                Tok::Lit(raw) if raw.contains("MMIO-") => {
                    extract_codes(raw).into_iter().map(|(c, _)| c).collect()
                }
                Tok::Ident(name) => match const_to_code.get(name) {
                    Some(c) => vec![c.clone()],
                    None => continue,
                },
                _ => continue,
            };
            for code in found {
                let occ = Occurrence {
                    file: file.rel_path.clone(),
                    line: st.line,
                    crate_name: file.crate_name.clone(),
                    in_test: file.in_test[i],
                    in_expectation: in_expectation_file,
                };
                let entry = life.entry(code).or_default();
                if in_expectation_file {
                    // Mutation harnesses and self-test suites *assert*
                    // codes fire — assertion evidence. A suite that runs
                    // in production (mmio-check's self-test pass) also
                    // genuinely emits, so its non-check sightings still
                    // count below for liveness; the duplicate-emitter
                    // check ignores them via `in_expectation`.
                    entry.tested = true;
                }
                if occ.in_test {
                    entry.tested = true;
                } else if in_codes_file {
                    // The defining literal (or a re-export) registers it.
                    if matches!(&st.tok, Tok::Lit(_)) {
                        entry.registrations.push(occ);
                    }
                } else if !is_check_context(&file.toks, i) {
                    entry.emissions.push(occ);
                }
            }
        }
    }

    // 3. Docs and corpora.
    for doc in docs {
        for (code, off) in extract_codes(&doc.text) {
            let entry = life.entry(code).or_default();
            if doc.is_design {
                entry.documented = true;
            }
            if doc.is_test_corpus {
                entry.tested = true;
            }
            let _ = line_of(&doc.text, off); // provenance available if needed
        }
    }

    // 4. Lifecycle findings. Codes the audit pass itself emits are in
    //    `life` via crates/audit's own const uses — no special casing.
    let mut findings = Vec::new();
    for (code, lc) in &life {
        let first_emit = lc.emissions.first();
        if let Some(e) = first_emit {
            if lc.registrations.is_empty() {
                findings.push(mk(
                    codes::AUDIT_CODE_UNREGISTERED,
                    Severity::Error,
                    e,
                    format!("`{code}` is emitted but registered in no codes.rs table"),
                ));
            }
            if !lc.documented {
                findings.push(mk(
                    codes::AUDIT_CODE_UNDOCUMENTED,
                    Severity::Error,
                    e,
                    format!("`{code}` is emitted but not documented in DESIGN.md"),
                ));
            }
            if !lc.tested {
                findings.push(mk(
                    codes::AUDIT_CODE_UNTESTED,
                    Severity::Warning,
                    e,
                    format!("`{code}` is emitted but no test or corpus asserts it"),
                ));
            }
            let mut crates: Vec<&str> = lc
                .emissions
                .iter()
                .filter(|o| !o.in_expectation)
                .map(|o| o.crate_name.as_str())
                .collect();
            crates.sort_unstable();
            crates.dedup();
            if crates.len() >= 2 {
                let second = lc
                    .emissions
                    .iter()
                    .filter(|o| !o.in_expectation)
                    .find(|o| o.crate_name != crates[0])
                    .unwrap_or(e);
                findings.push(mk(
                    codes::AUDIT_CODE_DUPLICATE_EMITTER,
                    Severity::Error,
                    second,
                    format!(
                        "`{code}` is emitted by multiple crates ({}) — each code \
                         family has exactly one emitter",
                        crates.join(", ")
                    ),
                ));
            }
        } else if let Some(r) = lc.registrations.first() {
            findings.push(mk(
                codes::AUDIT_CODE_DEAD,
                Severity::Warning,
                r,
                format!("`{code}` is registered but never emitted — dead code id"),
            ));
        }
    }
    findings
}

fn mk(fcode: &'static str, severity: Severity, occ: &Occurrence, message: String) -> Finding {
    Finding {
        code: fcode,
        severity,
        file: occ.file.clone(),
        line: occ.line,
        message,
        chain: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(path: &str, text: &str) -> DocFile {
        DocFile {
            rel_path: path.to_string(),
            text: text.to_string(),
            is_test_corpus: path.contains("/tests/"),
            is_design: path.ends_with("DESIGN.md"),
        }
    }

    #[test]
    fn extract_finds_codes_and_offsets() {
        let found = extract_codes("x MMIO-A001 then MMIO-L020, not MMIO-x9 or MMIO-");
        let codes: Vec<&str> = found.iter().map(|(c, _)| c.as_str()).collect();
        assert_eq!(codes, vec!["MMIO-A001", "MMIO-L020"]);
    }

    #[test]
    fn healthy_lifecycle_is_silent() {
        let mut m = Model::default();
        m.add_file(
            "demo",
            "crates/demo/src/codes.rs",
            r#"pub const D001: &str = "MMIO-X001";"#,
        );
        m.add_file(
            "demo",
            "crates/demo/src/lib.rs",
            "fn emit() -> &'static str { crate::codes::D001 }",
        );
        m.add_file(
            "demo",
            "crates/demo/tests/golden.rs",
            r#"fn assert_code() { assert_eq!(emit(), "MMIO-X001"); }"#,
        );
        let docs = [doc("DESIGN.md", "## Codes\n- MMIO-X001: something")];
        let f = run(&m, &docs);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unregistered_undocumented_untested_all_fire() {
        let mut m = Model::default();
        m.add_file(
            "demo",
            "crates/demo/src/lib.rs",
            r#"fn emit() -> &'static str { "MMIO-X002" }"#,
        );
        let f = run(&m, &[]);
        let codes_seen: Vec<&str> = f.iter().map(|x| x.code).collect();
        assert!(codes_seen.contains(&"MMIO-L010"));
        assert!(codes_seen.contains(&"MMIO-L012"));
        assert!(codes_seen.contains(&"MMIO-L013"));
    }

    #[test]
    fn dead_code_is_a_warning_at_the_registration_site() {
        let mut m = Model::default();
        m.add_file(
            "demo",
            "crates/demo/src/codes.rs",
            r#"pub const GONE: &str = "MMIO-X003";"#,
        );
        let f = run(&m, &[]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].code, "MMIO-L011");
        assert_eq!(f[0].severity, Severity::Warning);
        assert!(f[0].file.ends_with("codes.rs"));
    }

    #[test]
    fn two_emitting_crates_collide() {
        let mut m = Model::default();
        m.add_file(
            "one",
            "crates/one/src/codes.rs",
            r#"pub const X: &str = "MMIO-X004";"#,
        );
        m.add_file(
            "one",
            "crates/one/src/lib.rs",
            r#"fn e() -> &'static str { "MMIO-X004" }"#,
        );
        m.add_file(
            "two",
            "crates/two/src/lib.rs",
            r#"fn e() -> &'static str { "MMIO-X004" }"#,
        );
        let f = run(&m, &[]);
        assert!(f.iter().any(|x| x.code == "MMIO-L014"), "{f:?}");
    }

    #[test]
    fn check_position_is_not_emission() {
        let mut m = Model::default();
        m.add_file(
            "demo",
            "crates/demo/src/codes.rs",
            r#"pub const Y: &str = "MMIO-X005";"#,
        );
        m.add_file(
            "consumer",
            "crates/consumer/src/lib.rs",
            r#"fn is_it(c: &str) -> bool { c == "MMIO-X005" }"#,
        );
        let f = run(&m, &[]);
        // Only finding should be dead-code (registered, never emitted):
        // the comparison does not count as an emission.
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].code, "MMIO-L011");
    }

    #[test]
    fn corpus_files_count_as_assertion_evidence() {
        let mut m = Model::default();
        m.add_file(
            "demo",
            "crates/demo/src/codes.rs",
            r#"pub const Z: &str = "MMIO-X006";"#,
        );
        m.add_file(
            "demo",
            "crates/demo/src/lib.rs",
            "fn e() -> &'static str { crate::codes::Z }",
        );
        let docs = [
            doc("DESIGN.md", "MMIO-X006 means trouble"),
            doc("crates/demo/tests/corpus/bad.cert", "expect MMIO-X006"),
        ];
        let f = run(&m, &docs);
        assert!(f.is_empty(), "{f:?}");
    }
}
