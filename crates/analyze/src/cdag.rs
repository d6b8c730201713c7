//! CDAG structure lints (`MMIO-Axxx`).
//!
//! Two layers of checks:
//!
//! - [`lint_facts`] runs on a [`GraphFacts`] view: acyclicity (with a
//!   topological-order witness), rank consistency along every edge,
//!   dangling/unreachable vertices, and the meta-vertex copy rules;
//! - [`lint_base`] runs on a [`BaseGraph`]: the tensor identity, the
//!   single-use assumption, and the Lemma 1 hypothesis;
//! - [`audit_fact1`] re-verifies the Fact 1 decomposition of a built `G_r`
//!   against a claimed copy count;
//! - [`report_routing_infeasible`] records that a base fails the Routing
//!   Theorem's hypothesis, for callers that find no Hall matching.

use crate::codes;
use crate::diag::{Report, Severity, Span};
use crate::facts::GraphFacts;
use mmio_cdag::base::Side;
use mmio_cdag::build::build_cdag;
use mmio_cdag::{index, BaseGraph, Cdag, CdagView};

/// Witness data produced by [`lint_facts`] alongside the diagnostics.
#[derive(Clone, Debug, Default)]
pub struct CdagAudit {
    /// A topological order of all vertices — the acyclicity witness.
    /// `None` when a cycle was found.
    pub topo_order: Option<Vec<u32>>,
}

/// Runs the structural lints over `facts`, appending findings to `report`.
pub fn lint_facts(facts: &GraphFacts, report: &mut Report) -> CdagAudit {
    let n = facts.n();

    // --- Acyclicity (Kahn's algorithm); the produced order is the witness.
    let mut indeg: Vec<usize> = facts.preds.iter().map(Vec::len).collect();
    let mut queue: Vec<u32> = (0..n as u32).filter(|&v| indeg[v as usize] == 0).collect();
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut head = 0;
    while head < queue.len() {
        let v = queue[head];
        head += 1;
        order.push(v);
        for &s in &facts.succs[v as usize] {
            indeg[s as usize] -= 1;
            if indeg[s as usize] == 0 {
                queue.push(s);
            }
        }
    }
    let acyclic = order.len() == n;
    if !acyclic {
        // Every vertex with remaining in-degree sits on or behind a cycle;
        // report one representative.
        let on_cycle = (0..n).find(|&v| indeg[v] > 0).unwrap_or(0);
        report.push_with_hint(
            codes::CDAG_CYCLE,
            Severity::Error,
            Span::Vertex(on_cycle as u32),
            format!(
                "no topological order: {} of {} vertices lie on or behind a cycle",
                n - order.len(),
                n
            ),
            "a CDAG must be acyclic; check the edge construction",
        );
    }

    // --- Rank consistency: every edge must strictly increase the rank.
    for (v, preds) in facts.preds.iter().enumerate() {
        for &p in preds {
            if facts.rank[p as usize] >= facts.rank[v] {
                report.push(
                    codes::CDAG_RANK_MISMATCH,
                    Severity::Error,
                    Span::Vertex(v as u32),
                    format!(
                        "edge v{p}→v{v} does not increase rank ({} ≥ {})",
                        facts.rank[p as usize], facts.rank[v]
                    ),
                );
            }
        }
    }

    // --- Dangling: a non-output whose value is never read. Aggregated past
    // a few instances — a dummy product at depth r danglifies every copy.
    let dangling: Vec<usize> = (0..n)
        .filter(|&v| facts.succs[v].is_empty() && !facts.is_output[v])
        .collect();
    for &v in dangling.iter().take(4) {
        report.push_with_hint(
            codes::CDAG_DANGLING,
            Severity::Warning,
            Span::Vertex(v as u32),
            "non-output vertex has no successors (its value is never used)",
            "dead products (e.g. dummy multiplications) are legal but wasted work",
        );
    }
    if dangling.len() > 4 {
        report.push(
            codes::CDAG_DANGLING,
            Severity::Warning,
            Span::Global,
            format!("... and {} more dangling vertices", dangling.len() - 4),
        );
    }

    // --- Unreachable from inputs (only meaningful on an acyclic graph).
    if acyclic {
        let mut reach = vec![false; n];
        for &v in &order {
            let vi = v as usize;
            reach[vi] = facts.is_input[vi] || facts.preds[vi].iter().any(|&p| reach[p as usize]);
        }
        let unreachable: Vec<usize> = (0..n).filter(|&v| !reach[v]).collect();
        for &v in unreachable.iter().take(4) {
            report.push(
                codes::CDAG_UNREACHABLE,
                Severity::Warning,
                Span::Vertex(v as u32),
                "vertex is unreachable from every input",
            );
        }
        if unreachable.len() > 4 {
            report.push(
                codes::CDAG_UNREACHABLE,
                Severity::Warning,
                Span::Global,
                format!(
                    "... and {} more unreachable vertices",
                    unreachable.len() - 4
                ),
            );
        }
    }

    // --- Meta-vertex copy rules: a copy has exactly one predecessor (its
    // declared parent) and copies with coefficient 1.
    for v in 0..n {
        let Some(parent) = facts.copy_parent[v] else {
            continue;
        };
        if facts.preds[v].len() != 1 || facts.preds[v][0] != parent {
            report.push(
                codes::CDAG_COPY_RULE,
                Severity::Error,
                Span::Vertex(v as u32),
                format!(
                    "copy vertex must have its parent v{parent} as sole predecessor (has {:?})",
                    facts.preds[v]
                ),
            );
        } else if !facts.copy_coeff_one[v] {
            report.push(
                codes::CDAG_COPY_RULE,
                Severity::Error,
                Span::Vertex(v as u32),
                "copy edge must carry coefficient 1",
            );
        }
    }

    CdagAudit {
        topo_order: acyclic.then_some(order),
    }
}

/// Lints the base graph itself: tensor identity, single-use assumption,
/// Lemma 1 hypothesis.
pub fn lint_base(base: &BaseGraph, report: &mut Report) {
    if let Err(errs) = base.verify_correctness() {
        report.push(
            codes::CDAG_INCORRECT,
            Severity::Error,
            Span::Global,
            format!(
                "tensor identity violated at {} triple(s); first: {}",
                errs.len(),
                errs[0]
            ),
        );
    }

    // Single-use assumption: locate the offending duplicated row pair so the
    // diagnostic is actionable, rather than just a boolean.
    for side in [Side::A, Side::B] {
        let (enc, name) = match side {
            Side::A => (base.enc(Side::A), "enc_a"),
            Side::B => (base.enc(Side::B), "enc_b"),
        };
        for m1 in 0..base.b() {
            if base.row_is_trivial(side, m1) {
                continue;
            }
            for m2 in (m1 + 1)..base.b() {
                if enc.row(m1) == enc.row(m2) {
                    report.push_with_hint(
                        codes::CDAG_MULTI_USE,
                        Severity::Error,
                        Span::Row {
                            matrix: name,
                            row: m2,
                        },
                        format!(
                            "nontrivial combination of row {m1} is reused by row {m2} \
                             (feeds two multiplications)"
                        ),
                        "the paper's single-use assumption (Section 3) forbids this",
                    );
                }
            }
        }
    }

    if !base.lemma1_condition_holds() {
        report.push(
            codes::CDAG_LEMMA1,
            Severity::Warning,
            Span::Global,
            "an encoding has only trivial rows (no linear combinations taken); \
             Lemma 1 and the fast lower bound do not apply",
        );
    }
}

/// Re-verifies the Fact 1 decomposition at depth `k` against a claimed copy
/// count: the middle `2(k+1)` ranks of `G_r` must consist of exactly
/// `claimed_copies` vertex-disjoint copies of `G_k`, and that number must be
/// `b^{r-k}`.
pub fn audit_fact1(g: &Cdag, k: u32, claimed_copies: u64, report: &mut Report) {
    let expected = index::pow(g.base().b(), g.r() - k);
    if claimed_copies != expected {
        report.push(
            codes::CDAG_FACT1,
            Severity::Error,
            Span::Global,
            format!(
                "claimed {claimed_copies} copies of G_{k}, but Fact 1 demands \
                 b^(r-k) = {expected}"
            ),
        );
        return;
    }

    // Structural verification: enumerate each copy via the Fact 1 lift
    // and check pairwise disjointness and exact coverage of the middle
    // levels.
    let gk = build_cdag(g.base(), k);
    let mut owner: Vec<Option<u64>> = vec![None; g.n_vertices()];
    let mut total = 0u64;
    for prefix in 0..expected {
        for lv in gk.vertices() {
            let Some(v) = g.lift_from(&gk, prefix, lv) else {
                report.push(
                    codes::CDAG_FACT1,
                    Severity::Error,
                    Span::Global,
                    format!("{lv:?} of G_{k} does not lift into subcomputation {prefix}"),
                );
                return;
            };
            total += 1;
            if let Some(prev) = owner[v.idx()] {
                report.push(
                    codes::CDAG_FACT1,
                    Severity::Error,
                    Span::Vertex(v.0),
                    format!(
                        "vertex belongs to subcomputations {prev} and {prefix} — copies \
                         are not vertex-disjoint"
                    ),
                );
                return;
            }
            owner[v.idx()] = Some(prefix);
        }
    }
    let want_total = expected * gk.n_vertices() as u64;
    if total != want_total {
        report.push(
            codes::CDAG_FACT1,
            Severity::Error,
            Span::Global,
            format!("decomposition covers {total} vertices; b^(r-k)·|V(G_{k})| = {want_total}"),
        );
    }
}

/// Reports that the base graph fails the Routing Theorem's hypothesis: it
/// admits no n₀-capacity Hall matching, so no `6a^k`-routing (and no
/// routing certificate) exists at any depth. The caller finds this out
/// (`RoutingClass::build` returns `None`); the code is emitted here so the
/// `MMIO-Axxx` family keeps one emitting crate.
pub fn report_routing_infeasible(report: &mut Report) {
    report.push(
        codes::CDAG_ROUTING_HYPOTHESIS,
        Severity::Error,
        Span::Global,
        "no n₀-capacity Hall matching: the Routing Theorem's hypotheses fail",
    );
}

/// Runs every CDAG pass on a base graph at recursion depth `r`:
/// base lints, structural lints of the built `G_r`, and the Fact 1 audit at
/// every depth `0..=r`.
pub fn analyze_base_at(base: &BaseGraph, r: u32) -> Report {
    let mut report = Report::new();
    lint_base(base, &mut report);
    let g = build_cdag(base, r);
    let facts = GraphFacts::from_cdag(&g);
    lint_facts(&facts, &mut report);
    for k in 0..=r {
        audit_fact1(&g, k, index::pow(base.b(), r - k), &mut report);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-built facts for a 3-vertex chain in → mid → out.
    fn chain() -> GraphFacts {
        GraphFacts {
            preds: vec![vec![], vec![0], vec![1]],
            succs: vec![vec![1], vec![2], vec![]],
            rank: vec![0, 1, 2],
            is_input: vec![true, false, false],
            is_output: vec![false, false, true],
            copy_parent: vec![None; 3],
            copy_coeff_one: vec![false; 3],
        }
    }

    #[test]
    fn clean_chain_has_no_findings() {
        let mut report = Report::new();
        let audit = lint_facts(&chain(), &mut report);
        assert!(report.diagnostics.is_empty());
        assert_eq!(audit.topo_order, Some(vec![0, 1, 2]));
    }

    #[test]
    fn cycle_detected_with_no_witness() {
        let mut f = chain();
        // Close the loop: out → mid.
        f.preds[1].push(2);
        f.succs[2].push(1);
        let mut report = Report::new();
        let audit = lint_facts(&f, &mut report);
        assert!(report.has_code(codes::CDAG_CYCLE));
        assert!(audit.topo_order.is_none());
    }

    #[test]
    fn rank_inversion_detected() {
        let mut f = chain();
        f.rank = vec![0, 2, 1]; // mid outranks out
        let mut report = Report::new();
        lint_facts(&f, &mut report);
        assert!(report.has_code(codes::CDAG_RANK_MISMATCH));
    }

    #[test]
    fn unreachable_vertex_detected() {
        let mut f = chain();
        // Cut in → mid (both directions): mid and out still form a valid
        // DAG but no input reaches them.
        f.preds[1].clear();
        f.succs[0].clear();
        let mut report = Report::new();
        lint_facts(&f, &mut report);
        assert!(report.has_code(codes::CDAG_UNREACHABLE));
    }

    #[test]
    fn trivial_encoding_fires_lemma1_warning() {
        // classical(2) takes no linear combinations, so Lemma 1's
        // hypothesis fails and the base lint must say so.
        let mut report = Report::new();
        lint_base(&mmio_algos::classical::classical(2), &mut report);
        assert!(report.has_code(codes::CDAG_LEMMA1));
        // A base that does combine rows stays clean of that warning.
        let mut clean = Report::new();
        lint_base(&mmio_algos::strassen::strassen(), &mut clean);
        assert!(!clean.has_code(codes::CDAG_LEMMA1));
    }
}
