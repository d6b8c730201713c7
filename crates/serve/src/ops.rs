//! The operations the server executes, factored so the **batch CLI and
//! the serve tier render through the same functions** — byte-identical
//! responses are a structural property, not a test-enforced coincidence.
//!
//! `mmio certify` prints [`certify_text`]; a serve `certify` response *is*
//! [`certify_text`]. `mmio analyze <algo> <r> --json` prints
//! [`analyze_json`]; a serve `analyze` response *is* [`analyze_json`].
//! The fault harness and the engine's warm-hit tests then enforce the
//! equality end-to-end (cold, warm, restarted, under seeded fault
//! campaigns), which pins the cache layer too: a snapshot that survived a crash must still replay
//! the exact batch bytes.
//!
//! The view policy (`--view explicit|implicit|auto`) lives here for the
//! same reason: the server must pick the same `G_r` representation the
//! CLI would, or outputs could diverge at the auto threshold.

use mmio_algos::registry::all_base_graphs;
use mmio_cdag::build::build_cdag;
use mmio_cdag::view::count_vertices;
use mmio_cdag::{BaseGraph, IndexView};
use mmio_core::theorem1::{certify_pooled, certify_pooled_view, CertifyParams};
use mmio_core::theorem2::InOutRouting;
use mmio_core::transport::RoutingClass;
use mmio_parallel::Pool;
use mmio_pebble::orders::recursive_order;
use mmio_pebble::policy::Belady;
use mmio_pebble::sweep::{sweep, PolicySpec};
use mmio_pebble::AutoScheduler;

/// Which `G_r` representation the engines run on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ViewMode {
    /// Materialize the full graph (`build_cdag`).
    Explicit,
    /// Run on the closed-form [`IndexView`] — memory independent of `b^r`.
    Implicit,
    /// Explicit below [`AUTO_VERTEX_BUDGET`] vertices, implicit above.
    Auto,
}

/// The `auto` policy's switch-over point: `G_r` with more vertices than
/// this runs implicit. 2²² (≈4.2M) keeps every default-depth workload on
/// the explicit path (byte-identical output to previous releases) while
/// routing `r ≥ 8` Strassen-scale graphs to the implicit one.
pub const AUTO_VERTEX_BUDGET: u64 = 1 << 22;

/// Resolves the view policy for one `(base, r)` workload. `auto` compares
/// the closed-form vertex count against [`AUTO_VERTEX_BUDGET`] (overflow
/// counts as "too big").
pub fn use_implicit(mode: ViewMode, base: &BaseGraph, r: u32) -> bool {
    // The degenerate G_0 (n = 1) has no closed-form view (`IndexView`
    // requires r ≥ 1); its explicit graph is a handful of vertices.
    if r == 0 {
        return false;
    }
    match mode {
        ViewMode::Explicit => false,
        ViewMode::Implicit => true,
        ViewMode::Auto => match count_vertices(base.a() as u64, base.b() as u64, r) {
            Some(n) => n > AUTO_VERTEX_BUDGET,
            None => true,
        },
    }
}

/// Passes the depth `r` of `base` through, or rejects it with a one-line
/// message when `G_r` exceeds the dense `u32` vertex-id space that
/// `IndexView::new` and `build_cdag` enforce, so no CLI command or serve
/// request reaches a constructor that panics.
pub fn check_depth(base: &BaseGraph, r: u32) -> Result<u32, String> {
    match count_vertices(base.a() as u64, base.b() as u64, r) {
        Some(n) if n <= u64::from(u32::MAX) => Ok(r),
        _ => Err(format!(
            "{}: r = {r} is too deep (G_r exceeds u32 vertex ids)",
            base.name()
        )),
    }
}

/// Looks up a *registry* algorithm by name. The serve tier resolves
/// through this only — a network request never names a filesystem path.
pub fn resolve_registry(name: &str) -> Option<BaseGraph> {
    all_base_graphs().into_iter().find(|g| g.name() == name)
}

/// The exact text `mmio certify <algo> <r> <M>` prints (two lines,
/// trailing newline included).
pub fn certify_text(base: &BaseGraph, r: u32, m: u64, view: ViewMode, pool: &Pool) -> String {
    let cert = if use_implicit(view, base, r) {
        let v = IndexView::from_base(base, r);
        let order = recursive_order(&v);
        certify_pooled_view(base, &v, m, &order, CertifyParams::SMALL, pool)
    } else {
        let g = build_cdag(base, r);
        let order = recursive_order(&g);
        certify_pooled(&g, m, &order, CertifyParams::SMALL, pool)
    };
    format!(
        "n = {}, M = {m}: {} complete segments, certified I/O ≥ {}\n\
         (k = {}, feasible = {}, disjoint subcomputations = {} ≥ target {})\n",
        cert.n,
        cert.analysis.complete_segments,
        cert.analysis.certified_io,
        cert.k,
        cert.k_feasible,
        cert.disjoint_subcomputations,
        cert.lemma1_target
    )
}

/// One target of `mmio analyze`: an algorithm analyzed at recursion depth
/// `r`, with the schedule and routing audits run at (possibly capped)
/// depths chosen to keep path enumeration tractable.
pub fn analyze_target(base: &BaseGraph, r: u32) -> (mmio_analyze::Report, serde_json::Value) {
    let mut report = mmio_analyze::analyze_base_at(base, r);

    // Schedule legality: audit an auto-generated recursive schedule.
    let sched_r = if base.b() > 30 { r.min(2) } else { r };
    let g = build_cdag(base, sched_r);
    let m = (3 * base.a()).max(8);
    let order = recursive_order(&g);
    let (_, sched) = AutoScheduler::new(&g, m).run_recorded(&order, &Belady);
    let audit = mmio_analyze::audit_schedule(&g, &sched, m, &mut report);

    // Routing certificate: enumerate the Theorem 2 paths explicitly and
    // re-verify them. Path count is 2a^{2k}, so cap k for wide encoders.
    let routing_k = r.min(if base.a() >= 16 { 1 } else { 2 });
    let gk = build_cdag(base, routing_k);
    let routing_audit = match InOutRouting::new(&gk) {
        None => {
            mmio_analyze::report_routing_infeasible(&mut report);
            None
        }
        Some(routing) => {
            // Audit straight from the flat path arena (same enumeration
            // order as the old explicit Vec<Vec<_>> certificate, without
            // one heap block per path).
            let arena = routing.collect_paths();
            Some((
                mmio_analyze::audit_routing_paths(
                    &gk,
                    routing.theorem2_bound(),
                    Some(routing.n_paths()),
                    arena.iter(),
                    &mut report,
                ),
                routing.theorem2_bound(),
            ))
        }
    };

    let mut summary = vec![
        (
            "algorithm".to_string(),
            serde::Value::Str(base.name().to_string()),
        ),
        ("r".to_string(), serde::Value::Int(i64::from(r))),
        (
            "schedule_io".to_string(),
            serde::Value::Int(audit.io() as i64),
        ),
        (
            "schedule_peak_occupancy".to_string(),
            serde::Value::Int(audit.peak_occupancy as i64),
        ),
    ];
    if let Some((ra, bound)) = routing_audit {
        summary.push((
            "routing_paths".to_string(),
            serde::Value::Int(ra.paths as i64),
        ));
        summary.push((
            "routing_max_hits".to_string(),
            serde::Value::Int(ra.max_vertex_hits.max(ra.max_meta_hits) as i64),
        ));
        summary.push(("routing_bound".to_string(), serde::Value::Int(bound as i64)));
    }
    summary.push(("report".to_string(), serde::Serialize::to_value(&report)));
    (report, serde::Value::Object(summary))
}

/// The exact text `mmio analyze <algo> <r> --json` prints (a pretty JSON
/// array of one summary, trailing newline included), plus the analysis's
/// error count (the CLI's exit status input).
pub fn analyze_json(base: &BaseGraph, r: u32) -> (String, usize) {
    let (report, summary) = analyze_target(base, r);
    let text = format!(
        "{}\n",
        serde_json::to_string_pretty(&serde::Value::Array(vec![summary])).expect("serializable")
    );
    (text, report.error_count())
}

/// An LRU sweep of the auto-scheduler over the `ms` grid at depth `r`,
/// rendered as pretty JSON (one object per grid point, grid order,
/// trailing newline). Infeasible points carry their typed `SweepError`
/// in-band — a serve request for a too-small `M` is an answer, not a
/// failure.
pub fn sweep_json(base: &BaseGraph, r: u32, ms: &[usize], pool: &Pool) -> String {
    let g = build_cdag(base, r);
    let order = recursive_order(&g);
    let points = sweep(&g, &[&order], &[PolicySpec::Lru], ms, pool);
    format!(
        "{}\n",
        serde_json::to_string_pretty(&serde::Serialize::to_value(&points)).expect("serializable")
    )
}

/// The routing certificate JSON `mmio cert emit` writes for `(algo, k)`
/// transported into `G_r` (trailing newline not added — `Certificate::
/// to_json` is the on-disk format already). `None` when the base graph
/// admits no `n₀`-capacity Hall matching.
pub fn routing_cert_json(base: &BaseGraph, k: u32, r: u32, pool: &Pool) -> Option<String> {
    let class = RoutingClass::build(base, k, pool)?;
    Some(mmio_core::transport::emit_certificate(&class, r).to_json())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmio_algos::strassen::strassen;

    #[test]
    fn registry_resolution_is_name_exact() {
        assert!(resolve_registry("strassen").is_some());
        assert!(resolve_registry("strassen ").is_none());
        assert!(resolve_registry("no-such-algo").is_none());
        assert!(resolve_registry("../../etc/passwd").is_none());
    }

    #[test]
    fn certify_text_is_thread_count_invariant() {
        let base = strassen();
        let serial = certify_text(&base, 2, 49, ViewMode::Auto, &Pool::serial());
        assert!(serial.starts_with("n = "), "{serial}");
        assert!(serial.ends_with('\n'));
        for threads in [2, 8] {
            let par = certify_text(&base, 2, 49, ViewMode::Auto, &Pool::new(threads));
            assert_eq!(serial, par, "threads={threads}");
        }
    }

    #[test]
    fn sweep_json_reports_infeasible_points_in_band() {
        let base = strassen();
        let text = sweep_json(&base, 1, &[2, 64], &Pool::serial());
        assert!(text.contains("cache_too_small"), "{text}");
        assert!(text.contains("stats") || text.contains("loads"), "{text}");
    }

    #[test]
    fn routing_cert_json_verifies_standalone() {
        let base = strassen();
        let json = routing_cert_json(&base, 1, 2, &Pool::serial()).unwrap();
        let verdict = mmio_cert::verify_json(&json);
        assert!(verdict.accepted, "{verdict:?}");
    }
}
