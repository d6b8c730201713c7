//! Seeded fuzzing of the real pool against the serial reference, and the
//! bridge to the model checker: random schedules of the virtual model are
//! a subset of what exhaustive exploration covers, so any divergence a
//! fuzz run could ever produce is findable by the explorer on a minimized
//! configuration — that containment is tested here, not assumed.

use mmio_check::explore::{explore, Limits, Model};
use mmio_check::models::PoolMapModel;
use mmio_parallel::Pool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Real threads, many seeded shapes: `Pool::map` output is byte-identical
/// to the serial map at 1, 2, and 8 threads.
#[test]
fn fuzz_map_matches_serial_across_thread_counts() {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for round in 0..40 {
        let n = rng.gen_range(0usize..80);
        let salt = rng.gen::<u64>();
        let f = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9).rotate_left(13) ^ salt;
        let expected: Vec<u64> = (0..n).map(f).collect();
        for threads in [1, 2, 8] {
            let got = Pool::new(threads).map(n, f);
            assert_eq!(got, expected, "round {round}: n={n} threads={threads}");
        }
    }
}

/// Walks the model under one random schedule to a maximal state; returns
/// the output, or `None` on a deadlock (never reached for these models)
/// or when the walk exceeds `max_steps` (a livelock-ish run).
fn random_walk(mut m: PoolMapModel, rng: &mut StdRng, max_steps: usize) -> Option<Vec<u8>> {
    for _ in 0..max_steps {
        let enabled: Vec<usize> = (0..m.threads()).filter(|&t| m.enabled(t)).collect();
        if enabled.is_empty() {
            return (0..m.threads()).all(|t| m.finished(t)).then(|| m.output());
        }
        m.step(enabled[rng.gen_range(0..enabled.len())]);
    }
    None
}

/// Every output a seeded schedule fuzzer reaches on the virtual pool is
/// inside the explorer's exhaustive output set — fuzzing finds nothing
/// the model checker misses.
#[test]
fn fuzzed_schedules_are_contained_in_exhaustive_exploration() {
    let mut rng = StdRng::seed_from_u64(42);
    for (model, label) in [
        (PoolMapModel::new(4, 2), "atomic 4x2"),
        (PoolMapModel::new(3, 3), "atomic 3x3"),
        (PoolMapModel::racy(2, 2), "racy 2x2"),
        (PoolMapModel::racy(3, 2), "racy 3x2"),
    ] {
        let e = explore(&model, Limits::default());
        for _ in 0..300 {
            if let Some(out) = random_walk(model.clone(), &mut rng, 10_000) {
                assert!(
                    e.outputs.contains(&out),
                    "{label}: fuzz reached {out:?}, missing from exhaustive set {:?}",
                    e.outputs
                );
            }
        }
    }
}

/// The division of labor the suite relies on: a random schedule can land
/// on the serial output and *miss* the torn-claim divergence, while the
/// explorer finds it on the minimized config every time. Deterministic:
/// seeds are fixed, and at least one of them demonstrably fuzzes clean.
#[test]
fn explorer_finds_divergence_on_minimized_config() {
    let minimized = PoolMapModel::racy(2, 2);
    let serial = vec![1u8; 2];
    let clean_walks = (0..20u64)
        .filter(|&seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            random_walk(minimized.clone(), &mut rng, 10_000) == Some(serial.clone())
        })
        .count();
    assert!(clean_walks > 0, "some seed must fuzz past the bug");
    let e = explore(&minimized, Limits::default());
    assert!(
        e.outputs.iter().any(|o| o != &serial),
        "the explorer must expose the divergence fuzzing can miss"
    );
}
