//! Golden tests: every seeded defect class must be caught with its exact
//! diagnostic code, and the real algorithm registry must produce zero
//! errors (no false positives).
//!
//! Schedule and routing defects are the certificate verifier's to catch;
//! their planted twins live in `mmio-cert`'s `tests/reject_paths.rs`. The
//! routing overload is also planted here, to pin that the verifier's
//! verdict reaches a report with its codes.

use mmio_algos::registry::all_base_graphs;
use mmio_algos::strassen::strassen;
use mmio_algos::synthetic::with_duplicated_combination;
use mmio_analyze::{
    analyze_base_at, audit_fact1, codes, lint_base, lint_facts, report_routing_infeasible,
    GraphFacts, Report, Severity,
};
use mmio_cdag::build::build_cdag;
use mmio_cdag::BaseGraph;
use mmio_core::transport::{emit_certificate, RoutingClass};
use mmio_matrix::{Matrix, Rational};
use mmio_parallel::Pool;

/// A well-formed facts view of a 4-vertex diamond, mutated per defect.
fn diamond() -> GraphFacts {
    GraphFacts {
        preds: vec![vec![], vec![0], vec![0], vec![1, 2]],
        succs: vec![vec![1, 2], vec![3], vec![3], vec![]],
        rank: vec![0, 1, 1, 2],
        is_input: vec![true, false, false, false],
        is_output: vec![false, false, false, true],
        copy_parent: vec![None, Some(0), None, None],
        copy_coeff_one: vec![false, true, false, false],
    }
}

/// Asserts `report` contains `code` at Error severity and no other errors.
fn assert_only_error(report: &Report, code: &str) {
    assert!(
        report.has_code(code),
        "expected {code}, got {:?}",
        report.codes()
    );
    for d in report.errors() {
        assert_eq!(d.code, code, "unexpected extra error: {d}");
    }
}

// ---- Defect class 1: cycle -------------------------------------------------

#[test]
fn defect_cycle() {
    let mut f = diamond();
    f.preds[2].push(3);
    f.succs[3].push(2);
    let mut report = Report::new();
    let audit = lint_facts(&f, &mut report);
    assert!(
        report.has_code(codes::CDAG_CYCLE),
        "expected MMIO-A001, got {:?}",
        report.codes()
    );
    // A back-edge necessarily violates rank monotonicity too; nothing else
    // may fire.
    for d in report.errors() {
        assert!(
            d.code == codes::CDAG_CYCLE || d.code == codes::CDAG_RANK_MISMATCH,
            "unexpected extra error: {d}"
        );
    }
    assert!(audit.topo_order.is_none(), "a cycle admits no witness");
}

// ---- Defect class 2: rank mismatch -----------------------------------------

#[test]
fn defect_rank_mismatch() {
    let mut f = diamond();
    f.rank[3] = 1; // same rank as its predecessors
    let mut report = Report::new();
    lint_facts(&f, &mut report);
    assert_only_error(&report, codes::CDAG_RANK_MISMATCH);
}

// ---- Defect class 3: Fact 1 copy miscount ----------------------------------

#[test]
fn defect_fact1_miscount() {
    let g = build_cdag(&strassen(), 2);
    let mut report = Report::new();
    // Claim 8 copies of G_1 where Fact 1 demands b^{r-k} = 7.
    audit_fact1(&g, 1, 8, &mut report);
    assert_only_error(&report, codes::CDAG_FACT1);
}

// ---- Defect class 4: multi-use linear combination --------------------------

#[test]
fn defect_multi_use_combination() {
    let base = with_duplicated_combination(&strassen());
    let mut report = Report::new();
    lint_base(&base, &mut report);
    assert_only_error(&report, codes::CDAG_MULTI_USE);
}

// ---- Defect class 5: inflated routing hit count ----------------------------

#[test]
fn defect_inflated_hit_count() {
    use mmio_cert::codes::{
        V_ROUTE_META_OVERLOAD, V_ROUTE_PAIRS, V_ROUTE_PATH_COUNT, V_ROUTE_VERTEX_OVERLOAD,
    };
    use mmio_cert::format::Payload;
    let class = RoutingClass::build(&strassen(), 1, &Pool::serial()).expect("Strassen is routable");
    let mut cert = emit_certificate(&class, 1);
    let Payload::Routing(p) = &mut cert.payload else {
        panic!("expected a routing payload");
    };
    // One path repeated 6a^k + 1 times: every vertex on it, and its copy
    // group, is hit more often than the Routing Theorem allows. The hit
    // claims are the honest recount, so only the overload is a defect.
    let path = p.paths[0].clone();
    let copies = p.bound + 1;
    let most = path
        .iter()
        .map(|v| path.iter().filter(|&w| w == v).count() as u64)
        .max()
        .expect("a routed path is non-empty");
    (p.max_vertex_hits, p.max_meta_hits) = (most * copies, copies);
    p.paths = vec![path; copies as usize];
    let mut report = Report::new();
    report.push_verdict(&mmio_cert::verify(&cert));
    assert!(
        report.has_code(V_ROUTE_VERTEX_OVERLOAD),
        "{:?}",
        report.diagnostics
    );
    assert!(
        report.has_code(V_ROUTE_META_OVERLOAD),
        "{:?}",
        report.diagnostics
    );
    // The repeated pair and the path count are wrong too; nothing else is.
    for d in report.errors() {
        assert!(
            [
                V_ROUTE_VERTEX_OVERLOAD,
                V_ROUTE_META_OVERLOAD,
                V_ROUTE_PAIRS,
                V_ROUTE_PATH_COUNT
            ]
            .contains(&d.code),
            "unexpected error {d}"
        );
    }
}

// ---- Further defect classes -----------------------------------------------

#[test]
fn defect_copy_rule_violation() {
    let mut f = diamond();
    f.copy_coeff_one[1] = false; // copy edge with a non-unit coefficient
    let mut report = Report::new();
    lint_facts(&f, &mut report);
    assert_only_error(&report, codes::CDAG_COPY_RULE);
}

#[test]
fn defect_incorrect_tensor() {
    let base = BaseGraph::new(
        "wrong",
        1,
        Matrix::from_vec(1, 1, vec![Rational::integer(2)]),
        Matrix::from_vec(1, 1, vec![Rational::ONE]),
        Matrix::from_vec(1, 1, vec![Rational::ONE]),
    );
    let mut report = Report::new();
    lint_base(&base, &mut report);
    assert!(report.has_code(codes::CDAG_INCORRECT));
}

#[test]
fn defect_no_hall_matching() {
    // a_00 never reaches a multiplication: the one dependence of the 1×1
    // base has no middle vertex, so no n₀-capacity Hall matching exists.
    // The base is also incorrect, and the scheduler refuses its graph, so
    // `analyze_target` cannot run on it: the pass is called directly.
    let base = BaseGraph::new(
        "unrouted",
        1,
        Matrix::from_vec(1, 1, vec![Rational::ZERO]),
        Matrix::from_vec(1, 1, vec![Rational::ONE]),
        Matrix::from_vec(1, 1, vec![Rational::ONE]),
    );
    assert!(RoutingClass::build(&base, 1, &Pool::serial()).is_none());
    let mut report = Report::new();
    report_routing_infeasible(&mut report);
    assert_only_error(&report, codes::CDAG_ROUTING_HYPOTHESIS);
}

// ---- Zero false positives on the registry ----------------------------------

#[test]
fn registry_is_error_free() {
    for base in all_base_graphs() {
        // Rank sweep mirrors `mmio analyze all`; depth capped for the large
        // tensor-square graphs to keep debug-mode test time sane.
        let max_r = if base.b() > 30 { 2 } else { 3 };
        for r in 1..=max_r {
            let report = analyze_base_at(&base, r);
            assert!(
                !report.has_errors(),
                "{} at r={r}: {:?}",
                base.name(),
                report.errors().map(|d| d.to_string()).collect::<Vec<_>>()
            );
        }
    }
}

/// The `+dummy` variant's isolated decoding vertex must surface as a
/// *warning* (dangling), never an error.
#[test]
fn dummy_product_is_warning_not_error() {
    let base = mmio_algos::synthetic::with_dummy_product(&strassen());
    let report = analyze_base_at(&base, 1);
    assert!(!report.has_errors());
    assert!(report.has_code(codes::CDAG_DANGLING));
    assert!(report
        .diagnostics
        .iter()
        .all(|d| d.code != codes::CDAG_DANGLING || d.severity == Severity::Warning));
}

/// Full-pipeline smoke: the auto-generated schedule and the Theorem 2
/// routing certificate for Strassen both verify, and their verdicts reach
/// a report as no diagnostics at all.
#[test]
fn constructed_artifacts_audit_clean() {
    use mmio_pebble::cert::emit_schedule_certificate;
    use mmio_pebble::orders::recursive_order;
    use mmio_pebble::policy::Belady;
    use mmio_pebble::AutoScheduler;

    let base = strassen();
    let g = build_cdag(&base, 2);

    let m = 32;
    let order = recursive_order(&g);
    let (_, sched) = AutoScheduler::new(&g, m).run_recorded(&order, &Belady);
    let mut report = Report::new();
    report.push_verdict(&mmio_cert::verify(&emit_schedule_certificate(
        &g, m, &sched,
    )));
    let class = RoutingClass::build(&base, 2, &Pool::serial()).expect("Strassen is routable");
    report.push_verdict(&mmio_cert::verify(&emit_certificate(&class, 2)));
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);

    // Fact 1 with the honest count is clean at every depth.
    let mut report = Report::new();
    for k in 0..=2 {
        audit_fact1(
            &g,
            k,
            mmio_cdag::index::pow(g.base().b(), g.r() - k),
            &mut report,
        );
    }
    assert!(!report.has_errors());
}
