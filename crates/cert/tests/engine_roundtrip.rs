//! Engine-emitted certificates must verify cleanly through the standalone
//! verifier — the zero-false-reject half of the harness contract — and the
//! serialized bytes must be identical across worker thread counts.

use mmio_cdag::build::build_cdag;
use mmio_cdag::BaseGraph;
use mmio_cert::format::Payload;

use mmio_cert::{verify, verify_json, Certificate};
use mmio_core::transport::{emit_certificate, RoutingClass};
use mmio_parallel::Pool;
use mmio_pebble::cert::{emit_schedule_certificate, emit_sweep_certificate};
use mmio_pebble::sweep::sweep;
use mmio_pebble::{orders, AutoScheduler, PolicySpec};

fn assert_clean(cert: &Certificate, what: &str) {
    let v = verify(cert);
    assert!(
        v.accepted,
        "{what}: in-memory rejections {:?}",
        v.rejections
    );
    let v = verify_json(&cert.to_json());
    assert!(
        v.accepted,
        "{what}: round-trip rejections {:?}",
        v.rejections
    );
}

/// Depth caps matching the analyzer's idiom: big bases stay shallow.
fn routing_k(base: &BaseGraph) -> u32 {
    if base.a() <= 4 {
        2
    } else {
        1
    }
}

#[test]
fn routing_certificates_verify_across_registry() {
    let pool = Pool::new(2);
    for base in mmio_algos::registry::fast_base_graphs() {
        let k = routing_k(&base);
        let r = k + 1; // more than one copy, so transport is non-trivial
        let Some(class) = RoutingClass::build(&base, k, &pool) else {
            continue;
        };
        let cert = emit_certificate(&class, r);
        assert_clean(&cert, base.name());
    }
}

#[test]
fn schedule_certificates_verify() {
    let base = mmio_algos::strassen::strassen();
    for r in [1u32, 2] {
        let g = build_cdag(&base, r);
        let need = g.vertices().map(|v| g.preds(v).len()).max().unwrap() + 1;
        let m = need + 4;
        let sched = AutoScheduler::try_new(&g, m).unwrap();
        let order = orders::rank_order(&g);
        let (stats, schedule) = sched.run_recorded(&order, &PolicySpec::Lru);
        let cert = emit_schedule_certificate(&g, m, &schedule);
        // The emitter's replay must agree with the engine's own accounting.
        match &cert.payload {
            Payload::Schedule(p) => {
                assert_eq!(
                    (p.loads, p.stores, p.computes),
                    (stats.loads, stats.stores, stats.computes)
                );
            }
            other => panic!("wrong payload kind {}", other.kind()),
        }
        assert_clean(&cert, &format!("strassen schedule r={r}"));
    }
}

#[test]
fn sweep_certificates_verify() {
    let pool = Pool::new(2);
    let base = mmio_algos::strassen::strassen();
    let g = build_cdag(&base, 2);
    let need = g.vertices().map(|v| g.preds(v).len()).max().unwrap() + 1;
    let order = orders::rank_order(&g);
    let ms = [2, need, 4 * need];
    let points = sweep(&g, &[&order], &[PolicySpec::Lru], &ms, &pool);
    let cert = emit_sweep_certificate(&g, &PolicySpec::Lru, &points);
    match &cert.payload {
        Payload::Sweep(p) => {
            assert_eq!(p.feasible, vec![false, true, true]);
        }
        other => panic!("wrong payload kind {}", other.kind()),
    }
    assert_clean(&cert, "strassen lru sweep r=2");
}

#[test]
fn certificate_bytes_stable_across_thread_counts() {
    let base = mmio_algos::strassen::strassen();
    let mut routing_jsons = Vec::new();
    let mut sweep_jsons = Vec::new();
    for threads in [1usize, 2, 8] {
        let pool = Pool::new(threads);
        let class = RoutingClass::build(&base, 2, &pool).unwrap();
        routing_jsons.push(emit_certificate(&class, 3).to_json());

        let g = build_cdag(&base, 2);
        let order = orders::rank_order(&g);
        let points = sweep(&g, &[&order], &[PolicySpec::Lru], &[16, 32], &pool);
        sweep_jsons.push(emit_sweep_certificate(&g, &PolicySpec::Lru, &points).to_json());
    }
    assert_eq!(routing_jsons[0], routing_jsons[1]);
    assert_eq!(routing_jsons[0], routing_jsons[2]);
    assert_eq!(sweep_jsons[0], sweep_jsons[1]);
    assert_eq!(sweep_jsons[0], sweep_jsons[2]);
}

/// Registry-wide closed-form/builder equivalence at r=1: the verifier's
/// independently derived edges agree with the materialized graph for every
/// registered base, not just the hand-picked ones in the unit tests.
#[test]
fn view_matches_builder_across_registry() {
    for base in mmio_algos::registry::all_base_graphs() {
        let spec = mmio_cert::format::BaseSpec::from_base(&base);
        let view = mmio_cert::view::view_of(&spec, 1).unwrap();
        let g = build_cdag(&base, 1);
        assert_eq!(
            view.n_vertices() as usize,
            g.n_vertices(),
            "{}",
            base.name()
        );
        let mut preds = Vec::new();
        for v in g.vertices() {
            preds.clear();
            assert!(view.preds_into(v.0, &mut preds));
            let want: Vec<u32> = g.preds(v).iter().map(|p| p.0).collect();
            assert_eq!(preds, want, "preds of {} in {}", v.0, base.name());
        }
    }
}
