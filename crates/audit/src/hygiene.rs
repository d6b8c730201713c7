//! Pass 3: determinism and hygiene lints.
//!
//! - `MMIO-L020` (error): `HashMap`/`HashSet` iteration inside a fn
//!   reachable from a render/serialize root — iteration order would
//!   leak into rendered output.
//! - `MMIO-L021` (error): `SystemTime::now` / `Instant::now` inside a
//!   fn reachable from a certificate/memo-key payload root.
//! - `MMIO-L022` (error): a crate root missing `#![forbid(unsafe_code)]`.
//! - `MMIO-L023` (error): an audited feature-gated item reachable from
//!   ungated non-test code (mutation/trace hooks must stay out of
//!   default builds).
//!
//! Reachability for L020/L021 follows the call graph *downward* from
//! the configured roots. Method-name edges are followed only within the
//! same crate — cross-crate bare-name method resolution is too
//! over-approximate for these lints (the panic pass, where
//! over-approximation is sound, follows everything).

use crate::config;
use crate::finding::Finding;
use crate::graph::CallGraph;
use crate::lex::{Spanned, Tok};
use crate::parse::{Model, NO_OWNER};
use mmio_analyze::codes;
use mmio_analyze::Severity;
use std::collections::{HashSet, VecDeque};

/// Runs all hygiene lints.
pub fn run(model: &Model, graph: &CallGraph) -> Vec<Finding> {
    let mut findings = Vec::new();
    forbid_unsafe(model, &mut findings);
    let render = reach_from(model, graph, config::RENDER_ROOTS);
    hash_iteration(model, &render, &mut findings);
    let payload = reach_from(model, graph, config::PAYLOAD_ROOTS);
    wallclock(model, &payload, &mut findings);
    feature_leaks(model, graph, &mut findings);
    findings
}

/// L022: every crate root must carry `#![forbid(unsafe_code)]` — the
/// workspace-level Cargo lint is necessary but invisible at the source
/// level; the attribute makes the guarantee local and grep-able.
fn forbid_unsafe(model: &Model, findings: &mut Vec<Finding>) {
    for file in &model.files {
        if file.is_crate_root && !file.has_forbid_unsafe && !file.root_only {
            findings.push(Finding {
                code: codes::AUDIT_MISSING_FORBID_UNSAFE,
                severity: Severity::Error,
                file: file.rel_path.clone(),
                line: 1,
                message: format!(
                    "crate root of `{}` lacks #![forbid(unsafe_code)]",
                    file.crate_name
                ),
                chain: Vec::new(),
            });
        }
    }
}

/// Downward BFS over the graph from named roots (crate, fn name).
fn reach_from(model: &Model, graph: &CallGraph, roots: &[(&str, &str)]) -> HashSet<u32> {
    let mut reached = HashSet::new();
    let mut q = VecDeque::new();
    for f in &model.fns {
        let crate_name = &model.files[f.file as usize].crate_name;
        if roots.iter().any(|(c, n)| c == crate_name && *n == f.name) && !f.is_test {
            reached.insert(f.id);
            q.push_back(f.id);
        }
    }
    while let Some(cur) = q.pop_front() {
        let cur_crate = &model.files[model.fns[cur as usize].file as usize].crate_name;
        for &ei in &graph.adj[cur as usize] {
            let e = &graph.edges[ei as usize];
            let to_crate = &model.files[model.fns[e.to as usize].file as usize].crate_name;
            if e.methodish && cur_crate != to_crate {
                continue; // damp cross-crate bare-name method edges
            }
            if reached.insert(e.to) {
                q.push_back(e.to);
            }
        }
    }
    reached
}

/// L020: hash-keyed iteration in render-reachable fns.
fn hash_iteration(model: &Model, render: &HashSet<u32>, findings: &mut Vec<Finding>) {
    for file in &model.files {
        let toks = &file.toks;
        // Names bound to HashMap/HashSet per owning fn.
        let mut bound: Vec<(u32, String)> = Vec::new();
        for (i, st) in toks.iter().enumerate() {
            if file.in_test[i] || file.owner[i] == NO_OWNER {
                continue;
            }
            if st.is_ident("HashMap") || st.is_ident("HashSet") {
                if let Some(name) = binding_name(toks, i) {
                    bound.push((file.owner[i], name));
                }
            }
        }
        if bound.is_empty() {
            continue;
        }
        for (i, st) in toks.iter().enumerate() {
            let owner = file.owner[i];
            if file.in_test[i] || owner == NO_OWNER || !render.contains(&owner) {
                continue;
            }
            let Some(name) = st.ident() else { continue };
            if !bound.iter().any(|(o, n)| *o == owner && n == name) {
                continue;
            }
            let iterated =
                // `for k in map` / `for k in &map`
                (i > 0 && (toks[i - 1].is_ident("in")
                    || (toks[i - 1].is_punct("&") && i > 1 && toks[i - 2].is_ident("in"))))
                // `map.iter()`, `.keys()`, `.values()`, …
                || (toks.get(i + 1).is_some_and(|t| t.is_punct("."))
                    && toks.get(i + 2).and_then(|t| t.ident()).is_some_and(|n| {
                        matches!(
                            n,
                            "iter" | "iter_mut" | "keys" | "values" | "values_mut"
                                | "into_iter" | "into_keys" | "into_values" | "drain"
                        )
                    }));
            if iterated {
                let f = &model.fns[owner as usize];
                findings.push(Finding {
                    code: codes::AUDIT_HASH_ITERATION,
                    severity: Severity::Error,
                    file: file.rel_path.clone(),
                    line: toks[i].line,
                    message: format!(
                        "iteration over hash-ordered `{name}` in `{}` feeds rendered \
                         output — order is nondeterministic",
                        f.qualname
                    ),
                    chain: Vec::new(),
                });
            }
        }
    }
}

/// The binding name for a `HashMap`/`HashSet` type/constructor mention:
/// `let m = HashMap::new()`, `m: HashMap<..>`, `m: &mut HashMap<..>`.
fn binding_name(toks: &[Spanned], i: usize) -> Option<String> {
    let mut j = i.checked_sub(1)?;
    // Skip reference/mutability noise between the name and the type.
    while j > 0 && (toks[j].is_punct("&") || toks[j].is_ident("mut") || toks[j].is_punct("<")) {
        j -= 1;
    }
    match &toks[j].tok {
        Tok::Punct("=") | Tok::Punct(":") => {
            let prev = j.checked_sub(1)?;
            toks[prev].ident().map(str::to_string)
        }
        _ => None,
    }
}

/// L021: wall-clock reads in payload-reachable fns.
fn wallclock(model: &Model, payload: &HashSet<u32>, findings: &mut Vec<Finding>) {
    for file in &model.files {
        let toks = &file.toks;
        for (i, st) in toks.iter().enumerate() {
            let owner = file.owner[i];
            if file.in_test[i] || owner == NO_OWNER || !payload.contains(&owner) {
                continue;
            }
            let is_clock = st.is_ident("SystemTime") || st.is_ident("Instant");
            if is_clock
                && toks.get(i + 1).is_some_and(|t| t.is_punct("::"))
                && toks.get(i + 2).is_some_and(|t| t.is_ident("now"))
            {
                let f = &model.fns[owner as usize];
                findings.push(Finding {
                    code: codes::AUDIT_TIME_IN_PAYLOAD,
                    severity: Severity::Error,
                    file: file.rel_path.clone(),
                    line: st.line,
                    message: format!(
                        "wall-clock read in `{}` flows into a certificate or memo-key \
                         payload — reproducibility breaks",
                        f.qualname
                    ),
                    chain: Vec::new(),
                });
            }
        }
    }
}

/// L023: audited-feature-gated items reachable from ungated code.
/// Method-name edges are skipped outright: a real cross-gate call would
/// not compile with the feature off, so only misattributed edges land
/// here.
fn feature_leaks(model: &Model, graph: &CallGraph, findings: &mut Vec<Finding>) {
    for e in &graph.edges {
        if e.methodish {
            continue;
        }
        let from = &model.fns[e.from as usize];
        let to = &model.fns[e.to as usize];
        if from.is_test || to.is_test || model.files[from.file as usize].root_only {
            continue;
        }
        for feat in config::AUDITED_FEATURES {
            if to.features.iter().any(|f| f == feat) && !from.features.iter().any(|f| f == feat) {
                // The gated/ungated twin-module idiom: if the same call
                // site also resolves to an *ungated* fn of the same
                // name, the default build compiles against the
                // fallback — no leak.
                let has_ungated_twin = graph.edges.iter().any(|e2| {
                    e2.from == e.from
                        && e2.file == e.file
                        && e2.line == e.line
                        && model.fns[e2.to as usize].name == to.name
                        && !model.fns[e2.to as usize].features.iter().any(|f| f == feat)
                });
                if has_ungated_twin {
                    continue;
                }
                let file = &model.files[e.file as usize];
                findings.push(Finding {
                    code: codes::AUDIT_FEATURE_LEAK,
                    severity: Severity::Error,
                    file: file.rel_path.clone(),
                    line: e.line,
                    message: format!(
                        "`{}` (gated on feature \"{feat}\") is reachable from \
                         ungated `{}` — audited features must stay out of \
                         default builds",
                        to.qualname, from.qualname
                    ),
                    chain: Vec::new(),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph;

    fn hygiene_of(files: &[(&str, &str, &str)]) -> Vec<Finding> {
        let mut m = Model::default();
        for (krate, path, src) in files {
            m.add_file(krate, path, src);
        }
        let g = graph::build(&m);
        run(&m, &g)
    }

    #[test]
    fn missing_forbid_unsafe_fires_per_crate_root() {
        let f = hygiene_of(&[
            (
                "good",
                "crates/good/src/lib.rs",
                "#![forbid(unsafe_code)]\npub fn a() {}",
            ),
            ("bad", "crates/bad/src/lib.rs", "pub fn b() {}"),
        ]);
        let l022: Vec<_> = f.iter().filter(|x| x.code == "MMIO-L022").collect();
        assert_eq!(l022.len(), 1);
        assert!(l022[0].file.contains("crates/bad"));
    }

    #[test]
    fn hash_iteration_reachable_from_render_root_fires() {
        // `to_line` in crate mmio-serve is a configured render root.
        let f = hygiene_of(&[(
            "mmio-serve",
            "crates/serve/src/lib.rs",
            r#"
            #![forbid(unsafe_code)]
            use std::collections::HashMap;
            pub fn to_line() -> String { render_stats() }
            fn render_stats() -> String {
                let m: HashMap<String, u64> = HashMap::new();
                let mut out = String::new();
                for k in m.keys() { out.push_str(k); }
                out
            }
            "#,
        )]);
        assert!(f.iter().any(|x| x.code == "MMIO-L020"), "{f:?}");
    }

    #[test]
    fn hash_iteration_off_the_render_path_is_silent() {
        let f = hygiene_of(&[(
            "mmio-serve",
            "crates/serve/src/lib.rs",
            r#"
            #![forbid(unsafe_code)]
            pub fn internal_only() {
                let m: HashMap<u32, u32> = HashMap::new();
                for _ in m.iter() {}
            }
            "#,
        )]);
        assert!(f.iter().all(|x| x.code != "MMIO-L020"), "{f:?}");
    }

    #[test]
    fn wallclock_in_payload_path_fires() {
        let f = hygiene_of(&[(
            "mmio-cert",
            "crates/cert/src/lib.rs",
            r#"
            #![forbid(unsafe_code)]
            pub fn emit_certificate() -> String { stamp() }
            fn stamp() -> String { let _t = SystemTime::now(); String::new() }
            "#,
        )]);
        assert!(f.iter().any(|x| x.code == "MMIO-L021"), "{f:?}");
    }

    #[test]
    fn feature_leak_fires_on_direct_call() {
        let f = hygiene_of(&[(
            "demo",
            "crates/demo/src/lib.rs",
            r#"
            #![forbid(unsafe_code)]
            #[cfg(feature = "mutate")]
            pub fn mutate_hook() {}
            pub fn default_path() { mutate_hook(); }
            "#,
        )]);
        assert!(f.iter().any(|x| x.code == "MMIO-L023"), "{f:?}");
    }

    #[test]
    fn gated_to_gated_is_fine() {
        let f = hygiene_of(&[(
            "demo",
            "crates/demo/src/lib.rs",
            r#"
            #![forbid(unsafe_code)]
            #[cfg(feature = "mutate")]
            pub fn mutate_hook() {}
            #[cfg(feature = "mutate")]
            pub fn mutate_driver() { mutate_hook(); }
            "#,
        )]);
        assert!(f.iter().all(|x| x.code != "MMIO-L023"), "{f:?}");
    }
}
