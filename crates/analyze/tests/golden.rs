//! Golden tests: every seeded defect class must be caught with its exact
//! diagnostic code, and the real algorithm registry must produce zero
//! errors (no false positives).

use mmio_algos::registry::all_base_graphs;
use mmio_algos::strassen::strassen;
use mmio_algos::synthetic::with_duplicated_combination;
use mmio_analyze::{
    analyze_base_at, audit_fact1, audit_routing_paths, audit_schedule, codes, lint_base,
    lint_facts, GraphFacts, Report, Severity,
};
use mmio_cdag::build::build_cdag;
use mmio_cdag::{BaseGraph, Cdag};
use mmio_matrix::{Matrix, Rational};
use mmio_pebble::{Action, Schedule};

fn tiny() -> Cdag {
    let one = Matrix::from_vec(1, 1, vec![Rational::ONE]);
    build_cdag(&BaseGraph::new("tiny", 1, one.clone(), one.clone(), one), 1)
}

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

// ---- Defect class 5: cache capacity overflow -------------------------------

#[test]
fn defect_capacity_overflow() {
    let g = tiny();
    let mut actions = vec![Action::Load(g.input_a(0, 0)), Action::Load(g.input_b(0, 0))];
    actions.extend(
        g.vertices()
            .filter(|&v| !g.is_input(v))
            .map(Action::Compute),
    );
    actions.push(Action::Store(g.outputs().next().unwrap()));
    let s = Schedule { actions };
    // The same schedule is legal at M=16 but overflows at M=3.
    let mut clean = Report::new();
    audit_schedule(&g, &s, 16, &mut clean);
    assert!(!clean.has_errors());
    let mut report = Report::new();
    let audit = audit_schedule(&g, &s, 3, &mut report);
    assert_only_error(&report, codes::SCHED_CAPACITY);
    assert!(audit.first_violation.is_some());
}

// ---- Defect class 6: compute with missing operand --------------------------

#[test]
fn defect_missing_operand() {
    let g = tiny();
    let prod = g.products().next().unwrap();
    let s = Schedule {
        actions: vec![Action::Compute(prod)],
    };
    let mut report = Report::new();
    let audit = audit_schedule(&g, &s, 16, &mut report);
    assert!(report.has_code(codes::SCHED_MISSING_OPERAND));
    assert_eq!(audit.first_violation, Some(0));
}

// ---- Defect class 7: output never written ----------------------------------

#[test]
fn defect_unwritten_output() {
    let g = tiny();
    let mut actions = vec![Action::Load(g.input_a(0, 0)), Action::Load(g.input_b(0, 0))];
    actions.extend(
        g.vertices()
            .filter(|&v| !g.is_input(v))
            .map(Action::Compute),
    );
    // No Store action at all.
    let s = Schedule { actions };
    let mut report = Report::new();
    audit_schedule(&g, &s, 16, &mut report);
    assert_only_error(&report, codes::SCHED_OUTPUT_NOT_STORED);
}

// ---- Defect class 8: inflated routing hit count ----------------------------

#[test]
fn defect_inflated_hit_count() {
    let g = build_cdag(&strassen(), 1);
    let input = g.inputs().next().unwrap();
    let combo = g.succs(input)[0];
    // Seven paths through one vertex against a claimed 6-routing.
    let path = [input, combo];
    let mut report = Report::new();
    let audit = audit_routing_paths(&g, 6, Some(7), [&path[..]; 7], &mut report);
    assert!(report.has_code(codes::ROUTE_VERTEX_OVERLOAD));
    assert_eq!(audit.max_vertex_hits, 7);
    for d in report.errors() {
        assert!(
            d.code == codes::ROUTE_VERTEX_OVERLOAD || d.code == codes::ROUTE_META_OVERLOAD,
            "unexpected error {d}"
        );
    }
}

// ---- Extra defect classes beyond the required eight ------------------------

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
fn defect_bad_load_and_recompute() {
    let g = tiny();
    let prod = g.products().next().unwrap();
    let mut report = Report::new();
    audit_schedule(
        &g,
        &Schedule {
            actions: vec![Action::Load(prod)],
        },
        16,
        &mut report,
    );
    assert!(report.has_code(codes::SCHED_BAD_LOAD));

    let a = g.input_a(0, 0);
    let combo = g.succs(a)[0];
    let mut report = Report::new();
    audit_schedule(
        &g,
        &Schedule {
            actions: vec![
                Action::Load(a),
                Action::Compute(combo),
                Action::Compute(combo),
            ],
        },
        16,
        &mut report,
    );
    assert!(report.has_code(codes::SCHED_BAD_COMPUTE));
}

#[test]
fn defect_wrong_path_count() {
    let g = build_cdag(&strassen(), 1);
    let input = g.inputs().next().unwrap();
    let combo = g.succs(input)[0];
    let mut report = Report::new();
    // 2a^k·a^k = 512 paths expected for k=1; one given.
    audit_routing_paths(&g, 100, Some(512), [&[input, combo][..]], &mut report);
    assert_only_error(&report, codes::ROUTE_PATH_COUNT);
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

/// Full-pipeline smoke: auto-generated schedule and Theorem 2 routing
/// certificate for Strassen both audit clean.
#[test]
fn constructed_artifacts_audit_clean() {
    use mmio_core::theorem2::InOutRouting;
    use mmio_pebble::orders::recursive_order;
    use mmio_pebble::policy::Belady;
    use mmio_pebble::AutoScheduler;

    let base = strassen();
    let g = build_cdag(&base, 2);

    let m = 32;
    let order = recursive_order(&g);
    let (_, sched) = AutoScheduler::new(&g, m).run_recorded(&order, &Belady);
    let mut report = Report::new();
    audit_schedule(&g, &sched, m, &mut report);
    assert!(!report.has_errors(), "{:?}", report.diagnostics);

    let routing = InOutRouting::new(&g).expect("Strassen satisfies the hypotheses");
    let ak = 4u64.pow(2); // a^k with a = n0² = 4, k = 2
    let mut paths = Vec::with_capacity((2 * ak * ak) as usize);
    for side in [mmio_core::deps::DepSide::A, mmio_core::deps::DepSide::B] {
        for in_e in 0..ak {
            let (ir, ic) = mmio_core::deps::unpack_entry(in_e, 2, 2);
            for out_e in 0..ak {
                let (or_, oc) = mmio_core::deps::unpack_entry(out_e, 2, 2);
                paths.push(routing.path(side, ir, ic, or_, oc));
            }
        }
    }
    let mut report = Report::new();
    let audit = audit_routing_paths(
        &g,
        routing.theorem2_bound(),
        Some(2 * ak * ak),
        paths.iter().map(Vec::as_slice),
        &mut report,
    );
    assert!(!report.has_errors(), "{:?}", report.diagnostics);
    assert!(audit.max_vertex_hits <= routing.theorem2_bound());

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
