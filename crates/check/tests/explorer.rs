//! Acceptance-level model-checking runs: the exact bounded configurations
//! the concurrency-soundness story promises are exhaustively explored,
//! plus the partial-order-reduction cross-check on every one of them.

use mmio_check::explore::{explore, Limits};
use mmio_check::models::PoolMapModel;

fn por_limits() -> Limits {
    Limits {
        por: true,
        ..Limits::default()
    }
}

/// `Pool::map` at 2 workers, every n ≤ 6: serial output on every schedule.
#[test]
fn pool_map_two_workers_serial_equivalent_up_to_six() {
    for n in 0..=6 {
        let e = explore(&PoolMapModel::new(n, 2), Limits::default());
        assert!(
            e.all_equal_to(&vec![1u8; n]),
            "n={n}: outputs {:?}, deadlocks {}, livelocks {}, truncated {}",
            e.outputs,
            e.deadlocks,
            e.livelocks,
            e.truncated
        );
    }
}

/// Three workers is qualitatively different (two workers can drain a
/// third worker's range at once); the contract must survive it too.
#[test]
fn pool_map_three_workers_serial_equivalent() {
    for n in 3..=4 {
        let e = explore(&PoolMapModel::new(n, 3), Limits::default());
        assert!(e.all_equal_to(&vec![1u8; n]), "n={n}: {:?}", e.outputs);
    }
}

/// Partial-order reduction must preserve outputs, deadlocks, and
/// livelocks on every acceptance model — correct and broken alike —
/// while never visiting more states.
#[test]
fn por_is_sound_on_all_acceptance_models() {
    let models: Vec<PoolMapModel> = (0..=6)
        .map(|n| PoolMapModel::new(n, 2))
        .chain([PoolMapModel::new(4, 3)])
        .chain([PoolMapModel::racy(2, 2), PoolMapModel::racy(3, 2)])
        .collect();
    for m in models {
        let full = explore(&m, Limits::default());
        let por = explore(&m, por_limits());
        let mut a = full.outputs.clone();
        let mut b = por.outputs.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b, "POR changed the reachable outputs");
        assert_eq!(full.deadlocks, por.deadlocks);
        assert_eq!(full.livelocks > 0, por.livelocks > 0);
        assert!(por.states <= full.states);
    }
}

/// The broken variants stay broken at the acceptance bounds — the
/// explorer's sensitivity is part of the acceptance criteria.
#[test]
fn explorer_still_finds_the_planted_bugs() {
    let e = explore(&PoolMapModel::racy(2, 2), Limits::default());
    assert!(e.outputs.iter().any(|o| o != &vec![1u8; 2]));
}
