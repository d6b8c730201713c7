//! Property: for any registry base and legal depth, an engine-emitted
//! certificate survives serialize → deserialize → re-serialize byte-for-byte
//! and re-verifies identically (satellite of the mmio-cert tentpole).

use mmio_cert::{verify, Certificate};
use mmio_core::transport::{emit_certificate, RoutingClass};
use mmio_parallel::Pool;
use proptest::prelude::*;

fn cheap_bases() -> Vec<mmio_cdag::BaseGraph> {
    vec![
        mmio_algos::strassen::strassen(),
        mmio_algos::strassen::winograd(),
        mmio_algos::classical::classical(2),
    ]
}

fn roundtrip_identity(cert: &Certificate, what: &str) {
    let json = cert.to_json();
    let back: Certificate =
        serde_json::from_str(&json).unwrap_or_else(|e| panic!("{what}: decode failed: {e}"));
    assert_eq!(
        back.to_json(),
        json,
        "{what}: bytes drifted across round-trip"
    );
    let v1 = verify(cert);
    let v2 = verify(&back);
    assert_eq!(v1.accepted, v2.accepted, "{what}: verdict drifted");
    assert_eq!(v1.rejections, v2.rejections, "{what}: rejections drifted");
    assert!(
        v1.accepted,
        "{what}: engine cert rejected: {:?}",
        v1.rejections
    );
}

proptest! {
    #[test]
    fn routing_cert_roundtrips(algo in 0usize..3, k in 1u32..3, extra in 0u32..2) {
        let base = cheap_bases().swap_remove(algo);
        let r = k + extra;
        let pool = Pool::new(1);
        if let Some(class) = RoutingClass::build(&base, k, &pool) {
            let cert = emit_certificate(&class, r);
            roundtrip_identity(&cert, &format!("{} k={k} r={r}", base.name()));
        }
    }

    #[test]
    fn schedule_and_sweep_certs_roundtrip(algo in 0usize..3, slack in 0usize..8) {
        use mmio_cdag::build::build_cdag;
        use mmio_pebble::cert::{emit_schedule_certificate, emit_sweep_certificate};
        use mmio_pebble::sweep::sweep;
        use mmio_pebble::{orders, AutoScheduler, PolicySpec};

        let base = cheap_bases().swap_remove(algo);
        let g = build_cdag(&base, 2);
        let need = g.vertices().map(|v| g.preds(v).len()).max().unwrap() + 1;
        let m = need + slack;
        let sched = AutoScheduler::try_new(&g, m).unwrap();
        let order = orders::rank_order(&g);
        let (_, schedule) = sched.run_recorded(&order, &PolicySpec::Lru);
        let cert = emit_schedule_certificate(&g, m, &schedule);
        roundtrip_identity(&cert, &format!("{} schedule m={m}", base.name()));

        let pool = Pool::new(1);
        let points = sweep(&g, &[&order], &[PolicySpec::Lru], &[m], &pool);
        let cert = emit_sweep_certificate(&g, &PolicySpec::Lru, &points);
        roundtrip_identity(&cert, &format!("{} sweep m={m}", base.name()));
    }
}
