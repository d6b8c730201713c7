//! Pass 1: panic-reachability proofs for the trust roots.
//!
//! Runs a BFS over the call graph from each resolved trust root,
//! skipping edges that originate inside `catch_unwind(...)` isolation,
//! then reports every non-isolated panic site inside a reached fn with
//! the *shortest* call chain from a root as witness.
//!
//! Severity policy:
//!
//! - `unwrap`/`expect` (`MMIO-L001`), panic-family macros and denied
//!   external calls (`MMIO-L002`), and slice indexing (`MMIO-L003`) are
//!   **errors**: they abort in release builds.
//! - Unchecked arithmetic and `debug_assert!` (`MMIO-L004`) are
//!   **warnings**: overflow panics only in debug builds (division by
//!   zero is the exception, but is near-always guarded by construction
//!   and justified where not).
//!
//! Discharge via `// audit: safe — reason` happens centrally in
//! [`crate::run`], not here.

use crate::config::TrustRoot;
use crate::finding::Finding;
use crate::graph::{CallGraph, SiteKind};
use crate::parse::Model;
use mmio_analyze::codes;
use mmio_analyze::Severity;
use std::collections::{HashMap, VecDeque};

/// The result of root resolution + BFS, kept for witness construction.
pub struct Reachability {
    /// fn id → (parent fn id, call-site line, call-site file) for the
    /// BFS tree; roots map to themselves.
    parent: HashMap<u32, (u32, u32, u32)>,
    /// Trust-root fn ids.
    pub roots: Vec<u32>,
}

impl Reachability {
    /// Whether fn `id` is reachable from any trust root.
    pub fn reached(&self, id: u32) -> bool {
        self.parent.contains_key(&id)
    }

    /// The witness chain `root … target`, as `qualname (file:line)`.
    fn chain_to(&self, model: &Model, target: u32) -> Vec<String> {
        let mut rev = Vec::new();
        let mut cur = target;
        loop {
            let f = &model.fns[cur as usize];
            let file = &model.files[f.file as usize];
            rev.push(format!("{} ({}:{})", f.qualname, file.rel_path, f.line));
            match self.parent.get(&cur) {
                Some(&(p, _, _)) if p != cur => cur = p,
                _ => break,
            }
        }
        rev.reverse();
        rev
    }
}

/// Resolves roots and runs the BFS. Unresolvable roots yield an error
/// finding — silently weakening the proof is worse than failing loud.
pub fn reach(
    model: &Model,
    graph: &CallGraph,
    roots: &[TrustRoot],
) -> (Reachability, Vec<Finding>) {
    let mut findings = Vec::new();
    let mut root_ids = Vec::new();
    for spec in roots {
        let matches: Vec<u32> = model
            .fns
            .iter()
            .filter(|f| {
                let file = &model.files[f.file as usize];
                file.crate_name == spec.crate_name
                    && f.name == spec.fn_name
                    && match spec.type_name {
                        Some(ty) => f.self_type.as_deref() == Some(ty),
                        None => f.self_type.is_none(),
                    }
                    && !f.is_test
            })
            .map(|f| f.id)
            .collect();
        if matches.is_empty() {
            findings.push(Finding {
                code: codes::AUDIT_PANIC_REACHABLE,
                severity: Severity::Error,
                file: format!("{}/", spec.crate_name),
                line: 0,
                message: format!(
                    "trust root `{}::{}{}` did not resolve to any workspace fn — \
                     the audit policy is stale",
                    spec.crate_name,
                    spec.type_name.map(|t| format!("{t}::")).unwrap_or_default(),
                    spec.fn_name
                ),
                chain: Vec::new(),
            });
        }
        root_ids.extend(matches);
    }
    let mut r = Reachability {
        parent: HashMap::new(),
        roots: root_ids.clone(),
    };
    let mut q: VecDeque<u32> = VecDeque::new();
    for &id in &root_ids {
        if let std::collections::hash_map::Entry::Vacant(v) = r.parent.entry(id) {
            v.insert((id, 0, 0));
            q.push_back(id);
        }
    }
    while let Some(cur) = q.pop_front() {
        for &ei in &graph.adj[cur as usize] {
            let e = &graph.edges[ei as usize];
            if e.isolated {
                continue; // panics below catch_unwind surface as typed errors
            }
            if !r.parent.contains_key(&e.to) && !model.fns[e.to as usize].is_test {
                r.parent.insert(e.to, (cur, e.line, e.file));
                q.push_back(e.to);
            }
        }
    }
    (r, findings)
}

/// Maps a site kind to its diagnostic code and severity.
fn classify(kind: &SiteKind) -> (&'static str, Severity) {
    match kind {
        SiteKind::Unwrap | SiteKind::Expect => (codes::AUDIT_UNWRAP_REACHABLE, Severity::Error),
        SiteKind::PanicMacro(_) | SiteKind::DeniedCall(_) => {
            (codes::AUDIT_PANIC_REACHABLE, Severity::Error)
        }
        SiteKind::Index => (codes::AUDIT_INDEX_REACHABLE, Severity::Error),
        SiteKind::Arith(_) | SiteKind::DebugAssert(_) => {
            (codes::AUDIT_ARITH_REACHABLE, Severity::Warning)
        }
    }
}

/// Reports every panic site reachable from a trust root.
pub fn run(model: &Model, graph: &CallGraph, roots: &[TrustRoot]) -> Vec<Finding> {
    let (r, mut findings) = reach(model, graph, roots);
    for site in &graph.sites {
        if site.isolated || !r.reached(site.fn_id) {
            continue;
        }
        let (code, severity) = classify(&site.kind);
        let file = &model.files[site.file as usize];
        let mut chain = r.chain_to(model, site.fn_id);
        chain.push(format!(
            "{} at {}:{}",
            site.kind.label(),
            file.rel_path,
            site.line
        ));
        findings.push(Finding {
            code,
            severity,
            file: file.rel_path.clone(),
            line: site.line,
            message: format!(
                "{} reachable from trust root `{}`",
                site.kind.label(),
                model.fns[r.chain_root(site.fn_id).unwrap_or(site.fn_id) as usize].qualname
            ),
            chain,
        });
    }
    findings
}

impl Reachability {
    /// The root of the BFS tree containing `id`.
    fn chain_root(&self, mut id: u32) -> Option<u32> {
        loop {
            let &(p, _, _) = self.parent.get(&id)?;
            if p == id {
                return Some(id);
            }
            id = p;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph;

    fn roots(name: &'static str) -> Vec<TrustRoot> {
        vec![TrustRoot {
            crate_name: "demo",
            type_name: None,
            fn_name: name,
            why: "test",
        }]
    }

    fn audit(src: &str, root: &'static str) -> Vec<Finding> {
        let mut m = Model::default();
        m.add_file("demo", "crates/demo/src/lib.rs", src);
        let g = graph::build(&m);
        run(&m, &g, &roots(root))
    }

    #[test]
    fn transitive_unwrap_is_found_with_witness() {
        let f = audit(
            r#"
            pub fn root(x: Option<u32>) -> u32 { middle(x) }
            fn middle(x: Option<u32>) -> u32 { leaf(x) }
            fn leaf(x: Option<u32>) -> u32 { x.unwrap() }
            "#,
            "root",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].code, "MMIO-L001");
        assert_eq!(
            f[0].chain.len(),
            4,
            "root, middle, leaf, site: {:?}",
            f[0].chain
        );
        assert!(f[0].chain[0].contains("demo::root"));
        assert!(f[0].chain[3].contains("unwrap"));
    }

    #[test]
    fn unreachable_panics_are_not_reported() {
        let f = audit(
            r#"
            pub fn root() -> u32 { 0 }
            pub fn elsewhere(x: Option<u32>) -> u32 { x.unwrap() }
            "#,
            "root",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn catch_unwind_discharges_the_subtree() {
        let f = audit(
            r#"
            pub fn root() {
                let _ = catch_unwind(AssertUnwindSafe(|| engine()));
            }
            fn engine() { panic!("compute exploded"); }
            "#,
            "root",
        );
        assert!(f.is_empty(), "isolated subtree must not be reported: {f:?}");
    }

    #[test]
    fn arithmetic_is_a_warning_not_an_error() {
        let f = audit("pub fn root(a: u32, b: u32) -> u32 { a + b }", "root");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].code, "MMIO-L004");
        assert_eq!(f[0].severity, Severity::Warning);
    }

    #[test]
    fn unresolved_root_is_loud() {
        let f = audit("pub fn other() {}", "root");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].code, "MMIO-L002");
        assert!(f[0].message.contains("did not resolve"));
    }
}
