//! The audit driver: discovers the workspace, builds the model and call
//! graph, runs all four pass families, discharges findings against
//! `// audit: safe —` justifications, and renders the outcome (human
//! text or JSON).

use crate::config;
use crate::finding::Finding;
use crate::graph::{self, CallGraph};
use crate::parse::Model;
use crate::registry::DocFile;
use crate::{dead, hygiene, panics, registry};
use mmio_analyze::{codes, Severity};
use serde::{Serialize, Value};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Model/graph size statistics over the audited files (root-only files
/// excluded), snapshot-tested against the real workspace so silent
/// model regressions are caught.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stats {
    pub files: usize,
    pub fns: usize,
    pub edges: usize,
    pub sites: usize,
}

/// The result of an audit run.
#[derive(Debug)]
pub struct AuditOutcome {
    /// Every finding left after discharge; each one gates CI.
    pub findings: Vec<Finding>,
    pub stats: Stats,
}

impl AuditOutcome {
    /// Whether the run should fail (any error).
    pub fn has_errors(&self) -> bool {
        self.findings.iter().any(|f| f.severity == Severity::Error)
    }

    /// Renders human-readable text, one line per finding plus witness
    /// chains, ending with a summary line.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{} [{}] {}:{}: {}\n",
                f.severity, f.code, f.file, f.line, f.message
            ));
            for (depth, link) in f.chain.iter().enumerate() {
                out.push_str(&format!("    {}{}\n", "  ".repeat(depth), link));
            }
        }
        let errors = self
            .findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count();
        let warnings = self.findings.len() - errors;
        out.push_str(&format!(
            "audit: {} error(s), {} warning(s); {} files, {} fns, {} edges, {} sites\n",
            errors, warnings, self.stats.files, self.stats.fns, self.stats.edges, self.stats.sites
        ));
        out
    }
}

impl Serialize for AuditOutcome {
    fn to_value(&self) -> Value {
        let errors = self
            .findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count();
        Value::Object(vec![
            (
                "summary".to_string(),
                Value::Object(vec![
                    ("errors".to_string(), Value::UInt(errors as u64)),
                    (
                        "warnings".to_string(),
                        Value::UInt((self.findings.len() - errors) as u64),
                    ),
                    ("files".to_string(), Value::UInt(self.stats.files as u64)),
                    ("fns".to_string(), Value::UInt(self.stats.fns as u64)),
                    ("edges".to_string(), Value::UInt(self.stats.edges as u64)),
                    ("sites".to_string(), Value::UInt(self.stats.sites as u64)),
                ]),
            ),
            ("findings".to_string(), self.findings.to_value()),
        ])
    }
}

/// Audits the workspace rooted at `root` (the directory holding the
/// workspace `Cargo.toml`).
pub fn audit_workspace(root: &Path) -> io::Result<AuditOutcome> {
    let (model, docs) = load_workspace(root)?;
    let graph = graph::build(&model);
    Ok(audit_model(&model, &graph, &docs, config::TRUST_ROOTS))
}

/// Runs all passes over an already-built model (fixture tests enter
/// here with their own trust roots).
pub fn audit_model(
    model: &Model,
    graph: &CallGraph,
    docs: &[DocFile],
    roots: &[config::TrustRoot],
) -> AuditOutcome {
    let mut findings = Vec::new();
    findings.extend(panics::run(model, graph, roots));
    findings.extend(registry::run(model, docs));
    findings.extend(hygiene::run(model, graph));
    findings.extend(dead::run(model, graph, roots));
    // Conservative resolution can derive the same fact along several
    // edges (e.g. two trait impls of one method); report each once.
    let mut seen = std::collections::HashSet::new();
    findings.retain(|f| seen.insert((f.code, f.file.clone(), f.line, f.message.clone())));
    let findings = discharge(model, graph, findings);
    let audited = |fn_id: u32| !model.files[model.fns[fn_id as usize].file as usize].root_only;
    AuditOutcome {
        findings,
        stats: Stats {
            files: model.files.iter().filter(|f| !f.root_only).count(),
            fns: model.fns.iter().filter(|f| audited(f.id)).count(),
            edges: graph.edges.iter().filter(|e| audited(e.from)).count(),
            sites: graph.sites.iter().filter(|s| audited(s.fn_id)).count(),
        },
    }
}

/// Central justification discharge.
///
/// A `// audit: safe — reason` comment (same line as the site, or the
/// line directly above) silences any finding at that location — except
/// L005/L006, which *are* the justification lints. Afterwards, every
/// unused justification becomes a finding itself: `MMIO-L006` (stale)
/// if some panic site exists at its location but was not flagged —
/// the justification outlived its reason — or `MMIO-L005` (orphaned)
/// if no site is there at all.
fn discharge(model: &Model, graph: &CallGraph, findings: Vec<Finding>) -> Vec<Finding> {
    let justs: Vec<_> = model
        .justifications
        .iter()
        .filter(|j| {
            let file = &model.files[j.file as usize];
            !file.is_test_file && !file.root_only
        })
        .collect();
    let mut used = vec![false; justs.len()];
    let mut out = Vec::new();
    for f in findings {
        if f.code == codes::AUDIT_JUSTIFICATION_ORPHANED
            || f.code == codes::AUDIT_JUSTIFICATION_STALE
        {
            out.push(f);
            continue;
        }
        // Same-line justifications bind tighter than line-above ones, so
        // two adjacent annotated sites each consume their own comment.
        let hit = justs
            .iter()
            .position(|j| model.files[j.file as usize].rel_path == f.file && j.line == f.line)
            .or_else(|| {
                justs.iter().position(|j| {
                    model.files[j.file as usize].rel_path == f.file && j.line + 1 == f.line
                })
            });
        match hit {
            Some(i) => used[i] = true,
            None => out.push(f),
        }
    }
    for (i, j) in justs.iter().enumerate() {
        if used[i] {
            continue;
        }
        let file = &model.files[j.file as usize];
        let site_here = graph
            .sites
            .iter()
            .any(|s| s.file == j.file && (s.line == j.line || s.line == j.line + 1));
        let (code, what) = if site_here {
            (
                codes::AUDIT_JUSTIFICATION_STALE,
                "justifies a site no audit pass flags — the justification is stale; remove it",
            )
        } else {
            (
                codes::AUDIT_JUSTIFICATION_ORPHANED,
                "has no panic site on its line or the line below — orphaned; remove it",
            )
        };
        out.push(Finding {
            code,
            severity: Severity::Error,
            file: file.rel_path.clone(),
            line: j.line,
            message: format!("`// audit: safe — {}` {}", j.reason, what),
            chain: Vec::new(),
        });
    }
    out
}

/// Loads every auditable crate and doc/corpus file under `root`.
pub fn load_workspace(root: &Path) -> io::Result<(Model, Vec<DocFile>)> {
    let mut model = Model::default();
    let mut docs = Vec::new();
    // Root-level docs.
    for name in ["DESIGN.md", "README.md"] {
        let p = root.join(name);
        if let Ok(text) = fs::read_to_string(&p) {
            docs.push(DocFile {
                rel_path: name.to_string(),
                text,
                is_test_corpus: false,
                is_design: name == "DESIGN.md",
            });
        }
    }
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(root.join("crates"))?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    crate_dirs.sort();
    // The benchmark links the crates it measures: its files are roots only.
    crate_dirs.push(root.join("mmio_benchmark"));
    crate_dirs.retain(|p| p.join("Cargo.toml").is_file());
    for dir in crate_dirs {
        let manifest = fs::read_to_string(dir.join("Cargo.toml"))?;
        let crate_name = package_name(&manifest).unwrap_or_else(|| {
            dir.file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default()
        });
        model.add_crate_deps(&crate_name, declared_deps(&manifest));
        let mut paths = Vec::new();
        collect_files(&dir, &mut paths)?;
        // A module's file after the file declaring it (see `parse`): by
        // depth, then crate roots and `mod.rs` first in their directory.
        paths.sort_by_key(|p| {
            let root = ["lib.rs", "main.rs", "mod.rs"].map(Some);
            let name = p.file_name().and_then(|n| n.to_str());
            (p.components().count(), !root.contains(&name), p.clone())
        });
        for p in paths {
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .to_string_lossy()
                .replace('\\', "/");
            if config::path_excluded(&rel) {
                continue;
            }
            let Ok(text) = fs::read_to_string(&p) else {
                continue; // non-UTF8 corpus blobs are out of scope
            };
            if rel.ends_with(".rs") {
                model.add_file(&crate_name, &rel, &text);
            } else if rel.contains("/tests/") {
                docs.push(DocFile {
                    rel_path: rel,
                    text,
                    is_test_corpus: true,
                    is_design: false,
                });
            }
        }
    }
    Ok((model, docs))
}

/// Extracts the workspace crates listed under `[dependencies]` (not
/// dev-dependencies — test code is outside the graph anyway, and
/// dev-only links must not widen the production call graph).
fn declared_deps(manifest: &str) -> Vec<String> {
    let mut deps = Vec::new();
    let mut in_deps = false;
    for line in manifest.lines() {
        let t = line.trim();
        if t.starts_with('[') {
            in_deps = t == "[dependencies]";
        } else if in_deps {
            if let Some(key) = t.split('=').next() {
                let key = key.trim();
                if key.starts_with("mmio-") {
                    deps.push(key.to_string());
                }
            }
        }
    }
    deps
}

/// Extracts `name = "…"` from a `[package]` section.
fn package_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for line in manifest.lines() {
        let t = line.trim();
        if t.starts_with('[') {
            in_package = t == "[package]";
        } else if in_package {
            if let Some(rest) = t.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(v) = rest.strip_prefix('=') {
                    return Some(v.trim().trim_matches('"').to_string());
                }
            }
        }
    }
    None
}

/// Recursively collects `.rs` sources and test corpus files under the
/// crate's `src/`, `tests/`, `benches/` and `examples/` directories.
fn collect_files(crate_dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for sub in ["src", "tests", "benches", "examples"] {
        let d = crate_dir.join(sub);
        if d.is_dir() {
            walk(&d, out)?;
        }
    }
    Ok(())
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let p = entry?.path();
        if p.is_dir() {
            walk(&p, out)?;
        } else {
            out.push(p);
        }
    }
    Ok(())
}

/// Walks up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start.to_path_buf());
    while let Some(dir) = cur {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Some(dir);
            }
        }
        cur = dir.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn package_name_parses() {
        let m = "[package]\nname = \"mmio-cert\"\nversion = \"0.1.0\"\n";
        assert_eq!(package_name(m), Some("mmio-cert".to_string()));
        assert_eq!(package_name("[workspace]\n"), None);
    }

    #[test]
    fn justification_discharges_and_orphans_fire() {
        let mut m = Model::default();
        m.add_file(
            "demo",
            "crates/demo/src/lib.rs",
            r#"
pub fn root(x: Option<u32>) -> u32 {
    clean();
    // audit: safe — input validated by caller
    x.unwrap()
}
// audit: safe — nothing here
pub fn clean() {}
"#,
        );
        let g = graph::build(&m);
        let roots = [config::TrustRoot {
            crate_name: "demo",
            type_name: None,
            fn_name: "root",
            why: "test",
        }];
        let out = audit_model(&m, &g, &[], &roots);
        assert!(
            out.findings.iter().all(|f| f.code != "MMIO-L001"),
            "justified unwrap must be discharged: {:?}",
            out.findings
        );
        assert!(
            out.findings.iter().any(|f| f.code == "MMIO-L005"),
            "orphaned justification must fire: {:?}",
            out.findings
        );
    }

    #[test]
    fn stale_justification_fires_when_site_is_unreachable() {
        let mut m = Model::default();
        m.add_file(
            "demo",
            "crates/demo/src/lib.rs",
            r#"
pub fn root() {}
pub fn unreached(x: Option<u32>) -> u32 {
    // audit: safe — was on the trust path once
    x.unwrap()
}
"#,
        );
        let g = graph::build(&m);
        let roots = [config::TrustRoot {
            crate_name: "demo",
            type_name: None,
            fn_name: "root",
            why: "test",
        }];
        let out = audit_model(&m, &g, &[], &roots);
        assert!(
            out.findings.iter().any(|f| f.code == "MMIO-L006"),
            "{:?}",
            out.findings
        );
    }
}
