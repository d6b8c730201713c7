//! Deterministic seeded stress tests for the threaded executor, with the
//! bandwidth counts cross-checked three ways: against the closed-form
//! `3·b·(n/n₀)²` step volume, against the CAPS simulator, and against the
//! `mmio-analyze` schedule pass re-verifying a sequential schedule of the
//! same computation.

use mmio_algos::classical::classical;
use mmio_algos::laderman::laderman;
use mmio_algos::strassen::{strassen, winograd};
use mmio_matrix::classical::multiply_naive;
use mmio_matrix::random::random_i64_matrix;
use mmio_parallel::caps;
use mmio_parallel::executor::multiply_parallel;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Repeated runs on the same seeded inputs must agree bit-for-bit in both
/// result and traffic, across matrix sizes and cutoffs — the executor's
/// thread scheduling must not leak into its outputs.
#[test]
fn seeded_runs_are_deterministic() {
    let base = strassen();
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 8 << (seed % 2) as usize; // 8 or 16
        let a = random_i64_matrix(n, n, &mut rng);
        let b = random_i64_matrix(n, n, &mut rng);
        let reference = multiply_naive(&a, &b);
        for cutoff in [1usize, 2, 8] {
            let (c0, t0) = multiply_parallel(&base, &a, &b, cutoff);
            assert!(c0.exactly_equals(&reference), "seed={seed} cutoff={cutoff}");
            for _ in 0..3 {
                let (c, t) = multiply_parallel(&base, &a, &b, cutoff);
                assert!(c.exactly_equals(&c0), "nondeterministic result");
                assert_eq!(t, t0, "nondeterministic traffic");
            }
        }
    }
}

/// One BFS step moves exactly `3·b·(n/n₀)²` words regardless of the
/// algorithm, the cutoff, or the data.
#[test]
fn traffic_formula_holds_across_algorithms() {
    let mut rng = StdRng::seed_from_u64(7);
    for base in [
        strassen(),
        winograd(),
        laderman(),
        classical(2),
        classical(3),
    ] {
        let n = base.n0() * 2;
        let a = random_i64_matrix(n, n, &mut rng);
        let b = random_i64_matrix(n, n, &mut rng);
        let (c, t) = multiply_parallel(&base, &a, &b, 1);
        assert!(c.exactly_equals(&multiply_naive(&a, &b)), "{}", base.name());
        let s = (n / base.n0()) as u64;
        assert_eq!(
            t.total(),
            3 * base.b() as u64 * s * s,
            "{}: traffic must be 3·b·(n/n₀)²",
            base.name()
        );
    }
}

/// The executor's measured words equal the CAPS simulator's aggregate step
/// volume at `p = b` (one BFS step, then sequential): `words_per_proc · b`.
#[test]
fn traffic_matches_caps_simulation() {
    let mut rng = StdRng::seed_from_u64(11);
    for base in [strassen(), laderman()] {
        let n = base.n0() * base.n0();
        let a = random_i64_matrix(n, n, &mut rng);
        let b = random_i64_matrix(n, n, &mut rng);
        let (_, t) = multiply_parallel(&base, &a, &b, n / base.n0());
        // p = b with ample memory: exactly one BFS step, then sequential.
        let run = caps::simulate(&base, n as u64, base.b() as u64, 1 << 40);
        assert_eq!(
            run.steps,
            "B",
            "{}: expected a single BFS step",
            base.name()
        );
        let aggregate = run.words_per_proc * base.b() as f64;
        assert_eq!(
            t.total() as f64,
            aggregate,
            "{}: executor traffic vs CAPS step volume",
            base.name()
        );
    }
}

/// Cross-check with the certificate verifier: a recorded sequential
/// schedule of the same `G_r` must verify, and the I/O its certificate
/// claims (which the verifier re-counts by replay) must equal the pebble
/// simulator's.
#[test]
fn analyzer_certifies_matching_sequential_schedule() {
    use mmio_cdag::build::build_cdag;
    use mmio_cert::Payload;
    use mmio_pebble::cert::emit_schedule_certificate;
    use mmio_pebble::orders::recursive_order;
    use mmio_pebble::policy::Belady;
    use mmio_pebble::AutoScheduler;

    let base = strassen();
    let g = build_cdag(&base, 2); // n = 4, same instance the executor ran
    let m = 24;
    let order = recursive_order(&g);
    let (stats, sched) = AutoScheduler::new(&g, m).run_recorded(&order, &Belady);

    let cert = emit_schedule_certificate(&g, m, &sched);
    let verdict = mmio_cert::verify(&cert);
    assert!(
        verdict.accepted,
        "the verifier rejects the recorded schedule: {:?}",
        verdict.rejections
    );
    let Payload::Schedule(p) = &cert.payload else {
        panic!("a schedule certificate");
    };
    assert_eq!(p.loads, stats.loads, "load counts disagree");
    assert_eq!(p.stores, stats.stores, "store counts disagree");
    assert_eq!(p.computes, stats.computes, "compute counts disagree");
    assert!(p.peak_occupancy <= m as u64);

    // Sanity link to the parallel world: the sequential schedule's I/O and
    // the parallel step volume measure the same computation at the same n,
    // and the parallel BFS step may not move fewer words than one full
    // streaming of the inputs and outputs.
    let mut rng = StdRng::seed_from_u64(13);
    let a = random_i64_matrix(4, 4, &mut rng);
    let b = random_i64_matrix(4, 4, &mut rng);
    let (_, t) = multiply_parallel(&base, &a, &b, 2);
    assert_eq!(t.total(), 3 * 7 * 4); // 3·b·(n/n₀)² at n = 4
    assert!(stats.io() > 0);
}
