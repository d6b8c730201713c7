//! Large-instance smoke tests, `#[ignore]`d by default (minutes of work;
//! run with `cargo test --release -- --ignored`).

use mmio_algos::strassen::strassen;
use mmio_cdag::build::build_cdag;
use mmio_core::claim1::DecodingRouting;
use mmio_core::theorem1::{certify_with, CertifyParams, LowerBound};
use mmio_pebble::orders::recursive_order;
use mmio_pebble::policy::Belady;
use mmio_pebble::AutoScheduler;

#[test]
#[ignore = "large: ~1M-vertex CDAG"]
fn r7_cdag_builds_and_schedules() {
    let g = build_cdag(&strassen(), 7);
    assert_eq!(g.n(), 128);
    assert!(g.n_vertices() > 1_000_000);
    let order = recursive_order(&g);
    let io = AutoScheduler::new(&g, 256).run(&order, &Belady).io();
    let bound = LowerBound::new(&strassen()).sequential_io(g.n(), 256);
    assert!(io as f64 >= bound);
    assert!(
        (io as f64) < 100.0 * bound,
        "ratio blew up: {io} vs {bound}"
    );
}

#[test]
#[ignore = "large: 17M routing paths"]
fn claim1_k6_verifies() {
    let g = build_cdag(&strassen(), 6);
    let routing = DecodingRouting::new(&g).unwrap();
    let stats = routing.verify();
    assert!(stats.is_m_routing(routing.claim1_bound()));
}

#[test]
#[ignore = "large: full certificate at r=6"]
fn certificate_scales_to_r6() {
    let g = build_cdag(&strassen(), 6);
    let order = recursive_order(&g);
    let m = 32u64;
    let cert = certify_with(&g, m, &order, CertifyParams::SMALL);
    let measured = AutoScheduler::new(&g, m as usize).run(&order, &Belady).io();
    assert!(cert.analysis.certified_io > 0);
    assert!(cert.analysis.certified_io <= measured);
    // The certificate should cover a nontrivial fraction at scale.
    assert!(
        cert.analysis.certified_io * 10 >= measured,
        "certificate covers < 10%: {} vs {measured}",
        cert.analysis.certified_io
    );
}
