//! Property-based invariants across the workspace (proptest).

use mmio_algos::strassen::strassen;
use mmio_algos::Executor;
use mmio_cdag::build::build_cdag;
use mmio_cdag::index;
use mmio_cert::Payload;
use mmio_matrix::classical::multiply_naive;
use mmio_matrix::solve::solve;
use mmio_matrix::{Matrix, Rational};
use mmio_pebble::cert::emit_schedule_certificate;
use mmio_pebble::orders::random_topo_order;
use mmio_pebble::policy::{Belady, Lru};
use mmio_pebble::AutoScheduler;
use proptest::prelude::*;

fn rational() -> impl Strategy<Value = Rational> {
    (-20i64..=20, 1i64..=10).prop_map(|(n, d)| Rational::new(n, d))
}

fn small_matrix(n: usize) -> impl Strategy<Value = Matrix<i64>> {
    proptest::collection::vec(-9i64..=9, n * n).prop_map(move |data| Matrix::from_vec(n, n, data))
}

proptest! {
    #[test]
    fn rational_field_laws(a in rational(), b in rational(), c in rational()) {
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!(a * b, b * a);
        prop_assert_eq!((a + b) + c, a + (b + c));
        prop_assert_eq!(a * (b + c), a * b + a * c);
        prop_assert_eq!(a - a, Rational::ZERO);
        if !a.is_zero() {
            prop_assert_eq!(a * a.recip(), Rational::ONE);
        }
    }

    #[test]
    fn pack_unpack_roundtrip(digits in proptest::collection::vec(0usize..7, 0..8)) {
        let packed = index::pack(&digits, 7);
        prop_assert_eq!(index::unpack(packed, 7, digits.len()), digits);
    }

    #[test]
    fn strassen_executor_matches_classical(a in small_matrix(4), b in small_matrix(4)) {
        let exec = Executor::new(strassen(), 1);
        prop_assert!(exec.multiply(&a, &b).exactly_equals(&multiply_naive(&a, &b)));
    }

    #[test]
    fn solve_solutions_satisfy_system(
        entries in proptest::collection::vec(-5i64..=5, 9),
        x0 in proptest::collection::vec(-5i64..=5, 3),
    ) {
        let a = Matrix::from_vec(3, 3, entries.into_iter().map(Rational::integer).collect());
        let rhs: Vec<Rational> = (0..3)
            .map(|i| (0..3).map(|j| a[(i, j)] * Rational::integer(x0[j])).sum())
            .collect();
        // Always consistent by construction; the solver must find *a*
        // solution satisfying the system (not necessarily x0).
        let x = solve(&a, &rhs).expect("consistent system");
        for i in 0..3 {
            let lhs: Rational = (0..3).map(|j| a[(i, j)] * x[j]).sum();
            prop_assert_eq!(lhs, rhs[i]);
        }
    }

    #[test]
    fn random_topo_orders_are_valid_and_schedulable(seed in 0u64..1000) {
        use rand::SeedableRng;
        let g = build_cdag(&strassen(), 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let order = random_topo_order(&g, &mut rng);
        let sched = AutoScheduler::new(&g, 8);
        let (stats, schedule) = sched.run_recorded(&order, &Lru);
        let cert = emit_schedule_certificate(&g, 8, &schedule);
        let verdict = mmio_cert::verify(&cert);
        prop_assert!(verdict.accepted, "recorded schedule invalid: {:?}", verdict.rejections);
        let Payload::Schedule(p) = &cert.payload else {
            panic!("a schedule certificate");
        };
        prop_assert_eq!(
            (p.loads, p.stores, p.computes),
            (stats.loads, stats.stores, stats.computes)
        );
    }

    #[test]
    fn belady_never_beaten_by_lru(seed in 0u64..200, m in 6usize..40) {
        use rand::SeedableRng;
        let g = build_cdag(&strassen(), 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let order = random_topo_order(&g, &mut rng);
        let b = AutoScheduler::new(&g, m).run(&order, &Belady).io();
        let l = AutoScheduler::new(&g, m)
            .run(&order, &Lru)
            .io();
        prop_assert!(b <= l, "belady {} > lru {}", b, l);
    }

    #[test]
    fn io_monotone_in_cache_size(seed in 0u64..100) {
        use rand::SeedableRng;
        let g = build_cdag(&strassen(), 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let order = random_topo_order(&g, &mut rng);
        let mut prev = u64::MAX;
        for m in [6usize, 12, 24, 48, 96] {
            let io = AutoScheduler::new(&g, m).run(&order, &Belady).io();
            prop_assert!(io <= prev, "m={} io={} prev={}", m, io, prev);
            prev = io;
        }
    }
}
