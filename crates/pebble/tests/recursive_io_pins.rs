//! Recursive-order I/O of Strassen and Winograd `G_6` (807k vertices),
//! pinned: full [`IoStats`] and policy-eviction counts under LRU and
//! Belady at `M` = 32, 64, 128, 256. The unit equivalence tests hold the
//! engine to its scan oracle up to `G_4`; this holds it to its own recorded
//! output at the depth the benchmarks run.
//!
//! Release-only (about 5 s optimized, minutes unoptimized):
//! `cargo test --release -p mmio-pebble --test recursive_io_pins -- --ignored`

use mmio_cdag::build::build_cdag;
use mmio_pebble::orders::recursive_order;
use mmio_pebble::policy::{Belady, Lru, PolicySpec};
use mmio_pebble::{AutoScheduler, IoStats, RunOptions, SchedScratch, UseLists};

/// `(M, LRU, Belady)`, each `(loads, stores, policy_evictions)`.
type Pins = [(usize, (u64, u64, u64), (u64, u64, u64)); 4];

const STRASSEN: Pins = [
    (32, (599434, 271090, 591242), (480522, 245051, 472330)),
    (64, (413398, 184997, 405206), (343800, 159731, 335608)),
    (128, (321900, 144474, 313708), (254414, 130526, 246222)),
    (256, (215428, 95915, 207236), (175840, 80866, 167648)),
];

const WINOGRAD: Pins = [
    (32, (685910, 282752, 677718), (548443, 257027, 540251)),
    (64, (472875, 187055, 464683), (400206, 161673, 392014)),
    (128, (369029, 151383, 360837), (289687, 139966, 281495)),
    (256, (245421, 96503, 237229), (204428, 81999, 196236)),
];

/// Non-input vertices of `G_6` for both bases: every one computed once.
const COMPUTES: u64 = 798967;

#[test]
#[ignore = "release-only: run with --release -- --ignored"]
fn recursive_order_g6_io_is_pinned() {
    for (base, pins) in [
        (mmio_algos::strassen::strassen(), STRASSEN),
        (mmio_algos::strassen::winograd(), WINOGRAD),
    ] {
        let g = build_cdag(&base, 6);
        let order = recursive_order(&g);
        let uses = UseLists::new(&g, &order);
        let mut scratch = SchedScratch::new();
        for (m, lru, belady) in pins {
            let mut run = |policy: &PolicySpec| {
                let out = AutoScheduler::new(&g, m).run_prepared(
                    &order,
                    &uses,
                    &mut scratch,
                    policy,
                    RunOptions::default(),
                );
                assert_eq!(out.counters.dead_drops, 0);
                (out.stats, out.counters.policy_evictions)
            };
            for (policy, (loads, stores, evictions)) in [(Lru, lru), (Belady, belady)] {
                let want = IoStats {
                    loads,
                    stores,
                    computes: COMPUTES,
                };
                let name = policy.name();
                assert_eq!(
                    run(&policy),
                    (want, evictions),
                    "{} {name} M = {m}",
                    base.name()
                );
            }
        }
    }
}
