//! Routing certificate auditing (`MMIO-Rxxx`).
//!
//! A claimed `m`-routing (Definition 2) is the full list of paths plus the
//! claimed bound `m` and the expected path count `|X|·|Y|`.
//! [`audit_routing_paths`] re-verifies the claim from scratch: every path must traverse real edges, and no vertex — nor
//! meta-vertex, under the auditor's *own* copy-grouping (a union-find built
//! from edge coefficients, independent of [`mmio_cdag::MetaVertices`] and of
//! the `mmio-core` routing constructors) — may be hit more than `m` times.

use crate::codes;
use crate::diag::{Report, Severity, Span};
use mmio_cdag::hits::{HitCounter, UnionFind};
use mmio_cdag::{Cdag, VertexId};

/// Measured quantities from a certificate audit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoutingAudit {
    /// Number of paths in the certificate.
    pub paths: u64,
    /// Maximum per-vertex hit count (with multiplicity).
    pub max_vertex_hits: u64,
    /// Maximum per-meta-vertex hit count (once per touching path).
    pub max_meta_hits: u64,
}

/// The auditor's independent copy grouping: a union-find over dense vertex
/// ids where a vertex joins its parent's group when it has exactly one
/// predecessor and the connecting coefficient is 1 — precisely the copies of
/// paper Section 3, re-derived from the edge data alone (independent of
/// [`mmio_cdag::MetaVertices`]). Returned as a flat root table.
fn copy_group_roots(g: &Cdag) -> Vec<u32> {
    let mut uf = UnionFind::new(g.n_vertices());
    for v in g.vertices() {
        let preds = g.preds(v);
        if preds.len() == 1 && g.pred_coeffs(v)[0].is_one() {
            uf.union(v.0, preds[0].0);
        }
    }
    uf.roots()
}

/// The streaming form of the routing audit: the union-find copy grouping is
/// computed once at construction, and the hit buffers are reused across
/// [`RoutingAuditor::reset`] calls — so one auditor can re-verify every
/// Fact-1 copy of a transported routing class without reallocating.
pub struct RoutingAuditor<'g> {
    g: &'g Cdag,
    /// Shared counter, grouped by [`copy_group_roots`]. Tracks only the
    /// structurally valid paths; `paths` counts all submitted ones.
    counter: HitCounter,
    paths: u64,
}

impl<'g> RoutingAuditor<'g> {
    /// Creates an auditor for `g`, deriving the independent copy grouping.
    pub fn new(g: &'g Cdag) -> RoutingAuditor<'g> {
        RoutingAuditor {
            g,
            counter: HitCounter::with_groups(copy_group_roots(g)),
            paths: 0,
        }
    }

    /// Clears hit counts (keeping the copy grouping and allocations) so the
    /// auditor can audit another path family over the same graph.
    pub fn reset(&mut self) {
        self.counter.reset();
        self.paths = 0;
    }

    /// Audits one path (reported as path `index`), checking each hop against
    /// the graph's real edges and accumulating hit counts. Returns whether
    /// the path was structurally valid (invalid paths are diagnosed and
    /// excluded from the counts, but still counted toward `paths`).
    pub fn add_path(&mut self, index: usize, path: &[VertexId], report: &mut Report) -> bool {
        self.paths += 1;
        if path.is_empty() {
            report.push(
                codes::ROUTE_BAD_PATH,
                Severity::Error,
                Span::Path(index),
                "empty path",
            );
            return false;
        }
        // Paths are undirected walks: each hop must be an edge in either
        // direction.
        let g = self.g;
        if let Some(w) = path
            .windows(2)
            .find(|w| !(g.preds(w[1]).contains(&w[0]) || g.succs(w[1]).contains(&w[0])))
        {
            report.push(
                codes::ROUTE_BAD_PATH,
                Severity::Error,
                Span::Path(index),
                format!("{:?}→{:?} is not an edge of the CDAG", w[0], w[1]),
            );
            return false;
        }
        self.counter.add_path(path.iter().map(|v| v.0));
        true
    }

    /// Checks the accumulated counts against `claimed_bound`, appending
    /// overload diagnostics, and returns the measured statistics.
    pub fn finish(&self, claimed_bound: u64, report: &mut Report) -> RoutingAudit {
        let s = self.counter.summary();
        let audit = RoutingAudit {
            paths: self.paths,
            max_vertex_hits: s.max_vertex_hits,
            max_meta_hits: s.max_group_hits,
        };
        if audit.max_vertex_hits > claimed_bound {
            let worst = self.counter.argmax_vertex().unwrap_or(0);
            report.push(
                codes::ROUTE_VERTEX_OVERLOAD,
                Severity::Error,
                Span::Vertex(worst),
                format!(
                    "vertex lies on {} paths, exceeding the claimed bound {}",
                    audit.max_vertex_hits, claimed_bound
                ),
            );
        }
        if audit.max_meta_hits > claimed_bound {
            let worst = self.counter.argmax_group().unwrap_or(0);
            report.push(
                codes::ROUTE_META_OVERLOAD,
                Severity::Error,
                Span::Vertex(worst),
                format!(
                    "meta-vertex rooted at v{worst} is hit by {} paths, exceeding the \
                     claimed bound {}",
                    audit.max_meta_hits, claimed_bound
                ),
            );
        }
        audit
    }
}

/// Audits a claimed routing given as borrowed path slices (e.g. straight
/// out of an `mmio_core` path arena) against the graph, appending
/// `MMIO-Rxxx` diagnostics and returning the measured hit statistics. The
/// path-count check against `expected_paths` runs after the sweep because
/// the iterator's length is not known upfront.
pub fn audit_routing_paths<'a>(
    g: &Cdag,
    claimed_bound: u64,
    expected_paths: Option<u64>,
    paths: impl IntoIterator<Item = &'a [VertexId]>,
    report: &mut Report,
) -> RoutingAudit {
    let mut auditor = RoutingAuditor::new(g);
    for (i, path) in paths.into_iter().enumerate() {
        auditor.add_path(i, path, report);
    }
    if let Some(expected) = expected_paths {
        if expected != auditor.paths {
            report.push(
                codes::ROUTE_PATH_COUNT,
                Severity::Error,
                Span::Global,
                format!(
                    "certificate has {} paths; an in-out routing requires |X|·|Y| = {expected}",
                    auditor.paths
                ),
            );
        }
    }
    auditor.finish(claimed_bound, report)
}

/// Reports that the Routing Theorem's hypotheses fail outright: no
/// n₀-capacity Hall matching exists, so there is no path family to audit
/// at all. Lives here so the `MMIO-Rxxx` family keeps a single emitting
/// crate even when the caller (e.g. the serve tier) detects the failure.
pub fn report_routing_infeasible(report: &mut Report) {
    report.push(
        codes::ROUTE_BAD_PATH,
        Severity::Error,
        Span::Global,
        "no n₀-capacity Hall matching: the Routing Theorem's hypotheses fail",
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmio_algos::strassen::strassen;
    use mmio_cdag::build::build_cdag;

    #[test]
    fn single_edge_path_is_clean() {
        let g = build_cdag(&strassen(), 1);
        let input = g.inputs().next().unwrap();
        let combo = g.succs(input)[0];
        let paths = [[input, combo], [combo, input]];
        let mut report = Report::new();
        let audit = audit_routing_paths(&g, 2, Some(2), paths.iter().map(|p| &p[..]), &mut report);
        assert!(!report.has_errors(), "{:?}", report.diagnostics);
        assert_eq!(audit.max_vertex_hits, 2);
    }

    #[test]
    fn non_edge_rejected() {
        let g = build_cdag(&strassen(), 1);
        let input = g.inputs().next().unwrap();
        let output = g.outputs().next().unwrap();
        let mut report = Report::new();
        audit_routing_paths(&g, 10, None, [&[input, output][..]], &mut report);
        assert!(report.has_code(codes::ROUTE_BAD_PATH));
    }

    #[test]
    fn auditor_reset_reuses_grouping() {
        let g = build_cdag(&strassen(), 1);
        let input = g.inputs().next().unwrap();
        let combo = g.succs(input)[0];
        let mut auditor = RoutingAuditor::new(&g);
        let mut report = Report::new();
        assert!(auditor.add_path(0, &[input, combo], &mut report));
        assert_eq!(auditor.finish(1, &mut report).paths, 1);
        auditor.reset();
        // After reset, prior hits are gone: the same path audits clean again.
        assert!(auditor.add_path(0, &[input, combo], &mut report));
        let audit = auditor.finish(1, &mut report);
        assert_eq!(audit.paths, 1);
        assert_eq!(audit.max_vertex_hits, 1);
        assert!(!report.has_errors(), "{:?}", report.diagnostics);
    }

    #[test]
    fn copy_groups_match_meta_vertices() {
        // The auditor's independent grouping must agree with the library's
        // MetaVertices on real graphs.
        use mmio_cdag::MetaVertices;
        let g = build_cdag(&strassen(), 2);
        let meta = MetaVertices::compute(&g);
        let roots = copy_group_roots(&g);
        for v in g.vertices() {
            for w in g.vertices() {
                let same_lib = meta.meta_of(v) == meta.meta_of(w);
                let same_aud = roots[v.idx()] == roots[w.idx()];
                if same_lib != same_aud {
                    panic!("grouping disagrees at {v:?},{w:?}: lib={same_lib} aud={same_aud}");
                }
            }
        }
    }
}
