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
use mmio_cdag::build::{build_cdag, CdagBuild};
use mmio_cdag::view::count_vertices;
use mmio_cdag::{BaseGraph, IndexView};
use mmio_cert::Payload;
use mmio_core::theorem1::{certify_pooled, prepare, Certificate, CertifyParams};
use mmio_core::transport::{emit_certificate, RoutingClass};
use mmio_parallel::Pool;
use mmio_pebble::cert::emit_schedule_certificate;
use mmio_pebble::orders::{recursive_order, recursive_order_in};
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

/// The depth at which routings are enumerated for an instance at depth
/// `r`: the Theorem-2 path count is `2a^{2k}`, so wide encoders (`a ≥ 16`)
/// stop at 1 and the others at 2.
pub fn routing_depth(base: &BaseGraph, r: u32) -> u32 {
    r.min(if base.a() >= 16 { 1 } else { 2 })
}

/// The depth at which explicit schedule witnesses are built and replayed
/// for an instance at depth `r`: `G_3` of the tensor-square bases
/// (`b > 30`) is too large to replay interactively, so they stop at 2.
pub fn witness_depth(base: &BaseGraph, r: u32) -> u32 {
    if base.b() > 30 {
        r.min(2)
    } else {
        r
    }
}

/// Looks up a *registry* algorithm by name. The serve tier resolves
/// through this only — a network request never names a filesystem path.
pub fn resolve_registry(name: &str) -> Option<BaseGraph> {
    all_base_graphs().into_iter().find(|g| g.name() == name)
}

/// The exact text `mmio certify <algo> <r> <M>` prints (two lines,
/// trailing newline included).
///
/// The certificate's closed-form half ([`prepare`]: meta-vertices, `k`,
/// Lemma 1, the counted mask) runs on the calling thread, beside the order
/// when the view is explicit. Meanwhile a [`Pool::join`] worker fills the
/// explicit graph's CSR, or computes the order on the implicit view, in
/// vectors allocated here. The segment pass then runs over the whole pool.
pub fn certify_text(base: &BaseGraph, r: u32, m: u64, view: ViewMode, pool: &Pool) -> String {
    let params = CertifyParams::SMALL;
    let cert = if r == 0 {
        // `G_0` has no public closed-form view; its graph is a handful of
        // vertices.
        let g = build_cdag(base, r);
        certify_pooled(&g, m, &recursive_order(&g), params, pool)
    } else if use_implicit(view, base, r) {
        let v = IndexView::from_base(base, r);
        let order = Vec::with_capacity(v.n_vertices() as usize);
        let (prepared, order) =
            pool.join(|| prepare(&v, m, params), || recursive_order_in(&v, order));
        prepared.certify(base, &v, &order, pool)
    } else {
        let v = IndexView::from_base(base, r);
        let csr = CdagBuild::new(base, r);
        let ((prepared, order), g) = pool.join(
            || (prepare(&v, m, params), recursive_order(&v)),
            || csr.fill(),
        );
        prepared.certify(base, &g, &order, pool)
    };
    render_certificate(&cert)
}

/// The two lines `mmio certify` prints for `cert`.
fn render_certificate(cert: &Certificate) -> String {
    format!(
        "n = {}, M = {}: {} complete segments, certified I/O ≥ {}\n\
         (k = {}, feasible = {}, disjoint subcomputations = {} ≥ target {})\n",
        cert.n,
        cert.m,
        cert.analysis.complete_segments,
        cert.analysis.certified_io,
        cert.k,
        cert.k_feasible,
        cert.disjoint_subcomputations,
        cert.lemma1_target
    )
}

/// One target of `mmio analyze`: an algorithm analyzed at recursion depth
/// `r`. The CDAG passes run at `r`; the schedule and routing witnesses are
/// built at (possibly capped) depths that keep them tractable, emitted as
/// certificates, and checked by the certificate verifier, whose rejections
/// join the report. The verifier needs depth ≥ 1, so the witnesses of the
/// degenerate `G_0` are those of `G_1`.
///
/// The summary's witness fields are the certificates' claims. The
/// verifier re-derives each one and rejects a claim that differs.
pub fn analyze_target(base: &BaseGraph, r: u32) -> (mmio_analyze::Report, serde_json::Value) {
    let mut report = mmio_analyze::analyze_base_at(base, r);
    let d = r.max(1);

    // Schedule legality: a Belady run of the recursive order, replayed by
    // the verifier.
    let g = build_cdag(base, witness_depth(base, d));
    let m = (3 * base.a()).max(8);
    let order = recursive_order(&g);
    let (_, sched) = AutoScheduler::new(&g, m).run_recorded(&order, &Belady);
    let sched_cert = emit_schedule_certificate(&g, m, &sched);
    report.push_verdict(&mmio_cert::verify(&sched_cert));

    // The Routing Theorem's bound: the certificate `cert emit` writes.
    let routing = routing_cert(base, routing_depth(base, d), d, &Pool::serial());
    match &routing {
        Some(cert) => report.push_verdict(&mmio_cert::verify(cert)),
        None => mmio_analyze::report_routing_infeasible(&mut report),
    }

    let int = |n: u64| serde::Value::Int(n as i64);
    let mut summary = vec![
        (
            "algorithm".to_string(),
            serde::Value::Str(base.name().to_string()),
        ),
        ("r".to_string(), serde::Value::Int(i64::from(r))),
    ];
    if let Payload::Schedule(p) = &sched_cert.payload {
        summary.push(("schedule_io".to_string(), int(p.loads + p.stores)));
        summary.push(("schedule_peak_occupancy".to_string(), int(p.peak_occupancy)));
    }
    if let Some(Payload::Routing(p)) = routing.as_ref().map(|c| &c.payload) {
        summary.push(("routing_paths".to_string(), int(p.paths.len() as u64)));
        summary.push((
            "routing_max_hits".to_string(),
            int(p.max_vertex_hits.max(p.max_meta_hits)),
        ));
        summary.push(("routing_bound".to_string(), int(p.bound)));
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
/// trailing newline). Infeasible points carry their typed `CacheTooSmall`
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

/// The routing certificate `mmio cert emit` writes for `(algo, k)`: the
/// Theorem 2 routing of `G_k`, transported into `G_r`. `None` when the
/// base graph admits no `n₀`-capacity Hall matching.
pub fn routing_cert(
    base: &BaseGraph,
    k: u32,
    r: u32,
    pool: &Pool,
) -> Option<mmio_cert::Certificate> {
    let class = RoutingClass::build(base, k, pool)?;
    Some(emit_certificate(&class, r))
}

/// [`routing_cert`] as the JSON `mmio cert emit` writes (trailing newline
/// not added — `Certificate::to_json` is the on-disk format already).
pub fn routing_cert_json(base: &BaseGraph, k: u32, r: u32, pool: &Pool) -> Option<String> {
    routing_cert(base, k, r, pool).map(|cert| cert.to_json())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmio_algos::strassen::{strassen, winograd};

    #[test]
    fn registry_resolution_is_name_exact() {
        assert!(resolve_registry("strassen").is_some());
        assert!(resolve_registry("strassen ").is_none());
        assert!(resolve_registry("no-such-algo").is_none());
        assert!(resolve_registry("../../etc/passwd").is_none());
    }

    /// The serial composition `certify_text` ran before its closed-form
    /// half moved beside the graph build: `build_cdag`, `recursive_order`,
    /// `certify_pooled`.
    fn certify_text_serially(base: &BaseGraph, r: u32, m: u64) -> String {
        let g = build_cdag(base, r);
        let order = recursive_order(&g);
        let cert = certify_pooled(&g, m, &order, CertifyParams::SMALL, &Pool::serial());
        render_certificate(&cert)
    }

    #[test]
    fn certify_text_is_thread_count_invariant() {
        let views = [ViewMode::Explicit, ViewMode::Implicit, ViewMode::Auto];
        for base in [strassen(), winograd()] {
            // M = 8 keeps the paper's k; M = 256 is too large for r ≤ 5,
            // so k falls back to 1.
            for (r, m, feasible) in [(4, 8, true), (4, 256, false), (5, 8, true), (5, 256, false)] {
                let want = certify_text_serially(&base, r, m);
                assert!(want.contains(&format!("feasible = {feasible}")), "{want}");
                for view in views {
                    for threads in [1, 2, 8] {
                        let got = certify_text(&base, r, m, view, &Pool::new(threads));
                        assert_eq!(
                            got,
                            want,
                            "{} r={r} M={m} {view:?} threads={threads}",
                            base.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn certify_text_answers_r_0() {
        let base = strassen();
        let want = certify_text_serially(&base, 0, 8);
        assert!(want.contains("(k = 0, "), "{want}");
        for view in [ViewMode::Explicit, ViewMode::Implicit, ViewMode::Auto] {
            for threads in [1, 2] {
                assert_eq!(certify_text(&base, 0, 8, view, &Pool::new(threads)), want);
            }
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
