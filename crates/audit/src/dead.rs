//! Pass 4: dead code (`MMIO-L024`).
//!
//! A non-test fn that no root reaches along the call graph is dead. The
//! roots are every `fn main`, every trait-impl method (std calls `fmt`,
//! `drop`, `next` through the trait), every fn a [`TrustRoot`],
//! [`config::RENDER_ROOTS`] or [`config::PAYLOAD_ROOTS`] names, and
//! every fn of a root-only file (the examples and the benchmark). The
//! walk follows every edge, isolated and method-name ones included:
//! the graph over-approximates, so a spurious edge can only hide dead
//! code. A fn kept on purpose carries an `// audit: safe — <reason>`
//! comment on its `fn` line or the line above, discharged centrally.

use crate::config::{self, TrustRoot};
use crate::finding::Finding;
use crate::graph::CallGraph;
use crate::parse::{FnItem, Model};
use mmio_analyze::codes;
use mmio_analyze::Severity;

/// Reports every non-test fn with a body that no root reaches. A kept fn
/// (a justification on its `fn` line or the line above) is still
/// reported, for the central discharge to consume, but what it calls
/// counts as reached.
pub fn run(model: &Model, graph: &CallGraph, trust: &[TrustRoot]) -> Vec<Finding> {
    let live = |f: &&FnItem| !f.is_test && f.has_body;
    let kept = |f: &FnItem| {
        model
            .justifications
            .iter()
            .any(|j| j.file == f.file && (j.line == f.line || j.line + 1 == f.line))
    };
    let rooted: Vec<u32> = model
        .fns
        .iter()
        .filter(|f| live(f) && is_root(model, f, trust))
        .map(|f| f.id)
        .collect();
    let reached = reach(model, graph, rooted.iter().copied());
    let with_kept = reach(
        model,
        graph,
        rooted.into_iter().chain(
            model
                .fns
                .iter()
                .filter(|f| live(f) && kept(f))
                .map(|f| f.id),
        ),
    );
    model
        .fns
        .iter()
        .filter(live)
        .filter(|f| !with_kept[f.id as usize] || (kept(f) && !reached[f.id as usize]))
        .map(|f| Finding {
            code: codes::AUDIT_UNREACHED_FN,
            severity: Severity::Error,
            file: model.files[f.file as usize].rel_path.clone(),
            line: f.line,
            message: format!(
                "`{}` is reached from no root (binary, example, benchmark, trait \
                 impl or audit root) — delete it, gate it #[cfg(test)], or keep \
                 it with a reason",
                f.qualname
            ),
            chain: Vec::new(),
        })
        .collect()
}

/// Marks every fn reachable from `seeds` along any edge.
fn reach(model: &Model, graph: &CallGraph, seeds: impl Iterator<Item = u32>) -> Vec<bool> {
    let mut reached = vec![false; model.fns.len()];
    let mut stack: Vec<u32> = seeds.collect();
    for &id in &stack {
        reached[id as usize] = true;
    }
    while let Some(cur) = stack.pop() {
        for &ei in &graph.adj[cur as usize] {
            let to = graph.edges[ei as usize].to;
            if !reached[to as usize] {
                reached[to as usize] = true;
                stack.push(to);
            }
        }
    }
    reached
}

fn is_root(model: &Model, f: &FnItem, trust: &[TrustRoot]) -> bool {
    let crate_name = model.files[f.file as usize].crate_name.as_str();
    let named = |roots: &[(&str, &str)]| roots.iter().any(|&(c, n)| c == crate_name && n == f.name);
    model.files[f.file as usize].root_only
        || (f.name == "main" && f.self_type.is_none() && f.trait_name.is_none())
        || (f.self_type.is_some() && f.trait_name.is_some())
        || trust.iter().any(|r| {
            r.crate_name == crate_name
                && r.fn_name == f.name
                && f.self_type.as_deref() == r.type_name
        })
        || named(config::RENDER_ROOTS)
        || named(config::PAYLOAD_ROOTS)
}
