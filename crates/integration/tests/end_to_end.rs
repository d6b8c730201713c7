//! End-to-end pipeline: for every base graph satisfying the paper's
//! hypotheses — symbolic correctness, executable semantics, CDAG
//! semantics, routing theorems, and certified lower bounds all agree.

use mmio_algos::registry::{all_base_graphs, theorem1_base_graphs};
use mmio_algos::Executor;
use mmio_cdag::build::build_cdag;
use mmio_cdag::traversal::eval_outputs;
use mmio_cdag::{IndexView, MetaVertices};
use mmio_cert::Payload;
use mmio_core::theorem1::{certify_with, CertifyParams, LowerBound};
use mmio_core::theorem2::InOutRouting;
use mmio_matrix::classical::multiply_naive;
use mmio_matrix::random::random_i64_matrix;
use mmio_matrix::Rational;
use mmio_pebble::cert::emit_schedule_certificate;
use mmio_pebble::orders::recursive_order;
use mmio_pebble::policy::{Belady, Lru};
use mmio_pebble::AutoScheduler;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn every_base_graph_is_symbolically_correct() {
    for base in all_base_graphs() {
        assert_eq!(base.verify_correctness(), Ok(()), "{}", base.name());
    }
}

/// The independent oracle for the one closed-form definition of `G_r`:
/// the built graph is `IndexView`'s own predecessor lists, so comparing the
/// two views cannot catch a wrong edge rule — evaluating `G_r` through
/// `preds` + `pred_coeffs` and comparing with `A·B` can.
#[test]
fn cdag_semantics_match_executor_and_classical() {
    let mut rng = StdRng::seed_from_u64(42);
    for base in all_base_graphs() {
        let depths: &[u32] = if base.n0() >= 3 { &[1] } else { &[2, 3] };
        for &r in depths {
            let g = build_cdag(&base, r);
            let n = g.n() as usize;
            let ai = random_i64_matrix(n, n, &mut rng);
            let bi = random_i64_matrix(n, n, &mut rng);
            // Some synthetic variants have rational coefficients: evaluate
            // over Rational to stay exact for every graph uniformly.
            let a = ai.map(Rational::integer);
            let b = bi.map(Rational::integer);
            let want = multiply_naive(&ai, &bi).map(Rational::integer);
            let via_graph = eval_outputs(&g, &a, &b);
            assert!(
                via_graph.exactly_equals(&want),
                "{} graph eval at r={r}",
                base.name()
            );
            let via_exec = Executor::new(base.clone(), 1).multiply(&a, &b);
            assert!(
                via_exec.exactly_equals(&want),
                "{} executor at r={r}",
                base.name()
            );
        }
    }
}

#[test]
fn routing_theorem_bound_holds_everywhere_it_must() {
    for base in theorem1_base_graphs() {
        let k = if base.a() >= 16 { 1 } else { 2 };
        let g = build_cdag(&base, k);
        let routing = InOutRouting::new(&g)
            .unwrap_or_else(|| panic!("{}: Hall matching must exist", base.name()));
        let stats = routing.verify();
        assert!(
            stats.is_m_routing(routing.theorem2_bound()),
            "{}: {} / {} > {}",
            base.name(),
            stats.max_vertex_hits,
            stats.max_meta_hits,
            routing.theorem2_bound()
        );
    }
}

#[test]
fn scheduler_schedules_replay_exactly_for_every_graph() {
    for base in theorem1_base_graphs() {
        let r = if base.a() >= 16 { 1 } else { 2 };
        let g = build_cdag(&base, r);
        let order = recursive_order(&g);
        let m = g.vertices().map(|v| g.preds(v).len()).max().unwrap().max(7) + 1;
        let sched = AutoScheduler::new(&g, m);
        let (stats, schedule) = sched.run_recorded(&order, &Lru);
        let cert = emit_schedule_certificate(&g, m, &schedule);
        let verdict = mmio_cert::verify(&cert);
        assert!(
            verdict.accepted,
            "{}: {:?}",
            base.name(),
            verdict.rejections
        );
        let Payload::Schedule(p) = &cert.payload else {
            panic!("a schedule certificate");
        };
        assert_eq!(
            (p.loads, p.stores, p.computes),
            (stats.loads, stats.stores, stats.computes),
            "{}",
            base.name()
        );
    }
}

#[test]
fn certified_lower_bound_below_measured_io_for_all_graphs() {
    for base in theorem1_base_graphs() {
        if base.a() >= 16 {
            continue; // keep runtime sane; covered at k=1 elsewhere
        }
        let g = build_cdag(&base, 3);
        let order = recursive_order(&g);
        let m = 8u64.max(g.vertices().map(|v| g.preds(v).len() as u64).max().unwrap() + 1);
        let cert = certify_with(&g, m, &order, CertifyParams::SMALL);
        let measured = AutoScheduler::new(&g, m as usize).run(&order, &Belady).io();
        assert!(
            cert.analysis.certified_io <= measured,
            "{}: certified {} > measured {}",
            base.name(),
            cert.analysis.certified_io,
            measured
        );
    }
}

#[test]
fn formula_and_measurement_shapes_agree() {
    // The measured I/O of the recursive schedule grows with n like the
    // formula predicts (factor ≈ b per recursion level at fixed M).
    let base = mmio_algos::strassen::strassen();
    let lb = LowerBound::new(&base);
    let mut measured = Vec::new();
    for r in 3..=5u32 {
        let g = build_cdag(&base, r);
        let order = recursive_order(&g);
        measured.push((g.n(), AutoScheduler::new(&g, 16).run(&order, &Belady).io()));
    }
    for w in measured.windows(2) {
        let growth = w[1].1 as f64 / w[0].1 as f64;
        let formula_growth = lb.sequential_io(w[1].0, 16) / lb.sequential_io(w[0].0, 16);
        assert!(
            (growth / formula_growth - 1.0).abs() < 0.45,
            "growth {growth:.2} vs formula {formula_growth:.2}"
        );
    }
}

/// The CSR member layout: every vertex lies in its own member range, which
/// starts with the meta-vertex's root and ascends after it, and the
/// materialized graph and the closed-form view group identically.
#[test]
fn meta_vertex_members_are_csr_root_first_and_view_independent() {
    for base in all_base_graphs() {
        let g = build_cdag(&base, 3);
        let explicit = MetaVertices::compute(&g);
        let implicit = MetaVertices::compute_view(&IndexView::from_base(&base, 3));
        for v in g.vertices() {
            let members = explicit.members(v);
            let root = explicit.root_vertex(explicit.meta_of(v));
            assert!(members.contains(&v), "{} {v:?}", base.name());
            assert_eq!(members[0], root, "{} {v:?}", base.name());
            assert!(members.windows(2).all(|w| w[0] < w[1]), "{}", base.name());
            assert_eq!(members, implicit.members(v), "{} {v:?}", base.name());
        }
        assert_eq!(
            explicit.count(&g),
            implicit.count(&g),
            "{} meta count",
            base.name()
        );
    }
}

#[test]
fn meta_vertices_consistent_with_base_level_copying() {
    for base in all_base_graphs() {
        let g = build_cdag(&base, 2);
        let meta = MetaVertices::compute(&g);
        assert_eq!(
            meta.has_multiple_copying(&g),
            base.has_multiple_copying(),
            "{}",
            base.name()
        );
    }
}
