//! The full pipeline is invariant under base-graph equivalence
//! transformations: permuted, rescaled, and transpose-dual variants all
//! verify, route, and certify.

use mmio_algos::strassen::strassen;
use mmio_algos::transform::variant_family;
use mmio_cdag::build::build_cdag;
use mmio_cdag::serialize;
use mmio_core::theorem1::{certify_with, CertifyParams};
use mmio_core::theorem2::InOutRouting;
use mmio_pebble::orders::recursive_order;
use mmio_pebble::policy::Lru;
use mmio_pebble::AutoScheduler;

#[test]
fn variants_route_and_certify() {
    for variant in variant_family(&strassen()) {
        assert_eq!(variant.verify_correctness(), Ok(()), "{}", variant.name());
        let g = build_cdag(&variant, 2);
        if let Some(routing) = InOutRouting::new(&g) {
            let stats = routing.verify();
            assert!(
                stats.is_m_routing(routing.theorem2_bound()),
                "{}: routing bound violated",
                variant.name()
            );
        }
        let g3 = build_cdag(&variant, 3);
        let order = recursive_order(&g3);
        let cert = certify_with(&g3, 8, &order, CertifyParams::SMALL);
        let measured = AutoScheduler::new(&g3, 8).run(&order, &Lru).io();
        assert!(
            cert.analysis.certified_io <= measured,
            "{}: unsound certificate",
            variant.name()
        );
    }
}

#[test]
fn variants_roundtrip_through_json() {
    for variant in variant_family(&strassen()) {
        let json = serialize::to_json(&variant);
        let back =
            serialize::from_json(&json).unwrap_or_else(|e| panic!("{}: {e}", variant.name()));
        assert_eq!(back.b(), variant.b());
        assert_eq!(back.verify_correctness(), Ok(()));
    }
}

#[test]
fn io_invariant_under_product_permutation() {
    // Permuting products relabels the CDAG but preserves its I/O under the
    // matching permuted schedule; with the canonical recursive schedule the
    // counts may differ slightly (different eviction patterns) but must
    // stay within a tight band.
    use mmio_algos::transform::permute_products;
    let base = strassen();
    let g = build_cdag(&base, 4);
    let order = recursive_order(&g);
    let io_base = AutoScheduler::new(&g, 16).run(&order, &Lru).io();
    let perm: Vec<usize> = (0..7).rev().collect();
    let variant = permute_products(&base, &perm);
    let gv = build_cdag(&variant, 4);
    let order_v = recursive_order(&gv);
    let io_variant = AutoScheduler::new(&gv, 16).run(&order_v, &Lru).io();
    let ratio = io_base as f64 / io_variant as f64;
    assert!(
        (0.95..1.05).contains(&ratio),
        "permutation changed I/O by {ratio:.3}"
    );
}
