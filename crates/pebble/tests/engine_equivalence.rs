//! Property tests for the fast-engine equivalence contract.
//!
//! The heap-based engine in `mmio_pebble::auto` must be *observationally
//! identical* to the scan-based `auto::reference` engine: same [`IoStats`],
//! same recorded schedule, same eviction sequence — for every policy, on
//! arbitrary Strassen-like base graphs, arbitrary topological orders, and
//! arbitrary feasible cache sizes. Additionally every recorded fast-engine
//! schedule must replay cleanly through the strict simulator.

use mmio_cdag::build::build_cdag;
use mmio_cdag::{BaseGraph, Cdag, VertexId};
use mmio_matrix::{Matrix, Rational};
use mmio_pebble::auto::reference::ReferenceScheduler;
use mmio_pebble::auto::{AutoScheduler, RunOptions, SchedScratch};
use mmio_pebble::policy::{Belady, Lru, RandomEvict, ReplacementPolicy};
use mmio_pebble::sim::simulate;
use mmio_pebble::{orders, IoStats};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Deterministically builds a random Strassen-like base graph: `n₀ ∈ {1,2}`,
/// `b ∈ 1..=5` products, encode/decode entries drawn from `{-1, 0, 1}`.
/// Correctness of the algorithm is irrelevant here — only the CDAG structure
/// matters — but every row gets at least one nonzero entry so no layer
/// degenerates to fully disconnected vertices.
fn random_base(seed: u64) -> BaseGraph {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    let n0 = rng.gen_range(1usize..=2);
    let a = n0 * n0;
    let b = rng.gen_range(1usize..=5);
    let mut fill = |rows: usize, cols: usize| {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = Rational::integer(rng.gen_range(-1i64..=1));
            }
            if (0..cols).all(|j| m[(i, j)].is_zero()) {
                let j = rng.gen_range(0..cols);
                m[(i, j)] = Rational::ONE;
            }
        }
        m
    };
    let enc_a = fill(b, a);
    let enc_b = fill(b, a);
    let dec = fill(a, b);
    BaseGraph::new("random", n0, enc_a, enc_b, dec)
}

fn pick_order(g: &Cdag, which: usize, seed: u64) -> Vec<VertexId> {
    match which {
        0 => orders::rank_order(g),
        1 => orders::recursive_order(g),
        _ => orders::random_topo_order(g, &mut StdRng::seed_from_u64(seed)),
    }
}

fn make_policy(g: &Cdag, which: usize, seed: u64) -> Box<dyn ReplacementPolicy> {
    match which {
        0 => Box::new(Lru::new(g.n_vertices())),
        1 => Box::new(Belady),
        _ => Box::new(RandomEvict::new(StdRng::seed_from_u64(seed))),
    }
}

/// Runs both engines on `(g, order, m)` under the policy `policy_kind`
/// and checks stats, schedule and victims agree, then replays the fast
/// engine's schedule through the strict simulator.
fn check_equivalent(
    g: &Cdag,
    order: &[VertexId],
    m: usize,
    policy_kind: usize,
    policy_seed: u64,
) -> Result<(), TestCaseError> {
    let mut scratch = SchedScratch::new();
    scratch.prepare(g, order);
    let fast = AutoScheduler::new(g, m).run_prepared(
        order,
        &mut scratch,
        make_policy(g, policy_kind, policy_seed).as_mut(),
        RunOptions {
            record_schedule: true,
            record_victims: true,
        },
    );
    let (ref_stats, ref_sched, ref_victims) = ReferenceScheduler::new(g, m)
        .run_traced(order, make_policy(g, policy_kind, policy_seed).as_mut());

    prop_assert_eq!(fast.stats, ref_stats);
    prop_assert_eq!(fast.schedule.as_ref().unwrap(), &ref_sched);
    prop_assert_eq!(fast.victims.as_ref().unwrap(), &ref_victims);

    // Every recorded fast-engine schedule replays through the strict
    // simulator with exactly the stats the engine reported.
    let replayed: IoStats = simulate(g, fast.schedule.as_ref().unwrap(), m)
        .expect("fast-engine schedule must be valid");
    prop_assert_eq!(replayed, fast.stats);
    Ok(())
}

proptest! {
    #[test]
    fn fast_engine_is_observationally_identical_to_reference(
        base_seed in 0u64..10_000,
        r in 1u32..=2,
        order_kind in 0usize..3,
        order_seed in 0u64..10_000,
        policy_kind in 0usize..3,
        policy_seed in 0u64..10_000,
        m_extra in 0usize..12,
    ) {
        let base = random_base(base_seed);
        let g = build_cdag(&base, r);
        let order = pick_order(&g, order_kind, order_seed);
        let need = g.vertices().map(|v| g.preds(v).len()).max().unwrap_or(0) + 1;
        check_equivalent(&g, &order, need + m_extra, policy_kind, policy_seed)?;
    }
}

/// The proptest draws small random bases; this pins a real one deeper:
/// Strassen `G_3` in recursive order under every policy, from a cache
/// barely above the in-degree to one that holds most of the graph.
#[test]
fn strassen_r3_recursive_order_matches_reference() {
    let g = build_cdag(&mmio_algos::strassen::strassen(), 3);
    let order = orders::recursive_order(&g);
    for policy_kind in 0..3 {
        for m in [8usize, 32, 512] {
            if let Err(e) = check_equivalent(&g, &order, m, policy_kind, 7) {
                panic!("policy {policy_kind}, M = {m}: {e}");
            }
        }
    }
}
