//! Properties of the SoA distsim engine's contention model over random
//! instances: for any registry base, depth, processor count, memory,
//! assignment strategy, and topology, the contended makespan (with β ≥ 1)
//! dominates the uncontended critical-path word count, without perturbing
//! any word counter. Equivalence with the reference engine is a unit test
//! of `mmio-parallel` (`distsim::tests`).

use mmio_cdag::build::build_cdag;
use mmio_cdag::Cdag;
use mmio_parallel::assign::{
    all_on_one, block_per_rank, by_top_subproblem, cyclic_per_rank, Assignment,
};
use mmio_parallel::distsim::{simulate, simulate_traced_on, MachineModel, Topology};
use mmio_parallel::Pool;
use mmio_pebble::orders::recursive_order;
use proptest::prelude::*;

fn cheap_bases() -> Vec<mmio_cdag::BaseGraph> {
    vec![
        mmio_algos::strassen::strassen(),
        mmio_algos::strassen::winograd(),
        mmio_algos::classical::classical(2),
    ]
}

fn pick_assignment(g: &Cdag, p: u32, which: usize) -> (&'static str, Assignment) {
    match which {
        0 => ("cyclic_per_rank", cyclic_per_rank(g, p)),
        1 => ("block_per_rank", block_per_rank(g, p)),
        2 => ("by_top_subproblem", by_top_subproblem(g, p)),
        _ => ("all_on_one", all_on_one(g, p)),
    }
}

proptest! {
    #[test]
    fn contended_makespan_dominates_critical_path_on_random_instances(
        algo in 0usize..3,
        k in 1u32..3,
        q in 2u32..4,
        slack in 0usize..24,
        which in 0usize..4,
        topo_idx in 0usize..3,
        alpha in 0u64..4,
        beta in 1u64..4,
        gamma in 0u64..3,
        threads in 1usize..5,
    ) {
        // A q×q processor grid keeps every topology (incl. the torus) valid.
        let p = q * q;
        let base = cheap_bases().swap_remove(algo);
        let g = build_cdag(&base, k);
        let order = recursive_order(&g);
        let need = g.vertices().map(|v| g.preds(v).len()).max().unwrap() + 1;
        let m = need + slack;
        let (name, a) = pick_assignment(&g, p, which);
        let topo = match topo_idx {
            0 => Topology::Full,
            1 => Topology::Ring,
            _ => Topology::Torus2d { q },
        };
        let ctx = format!("{} k={k} p={p} m={m} {name} {:?}", base.name(), topo);

        let plain = simulate(&g, &a, &order, m);
        let mm = Some(MachineModel::new(topo, alpha, beta, gamma));
        let t = simulate_traced_on(&g, &a, &order, m, mm, &Pool::new(threads));
        assert_eq!(t.claimed, plain, "{ctx}: machine model changed counts");
        let c = t.contention.as_ref().expect("machine model requested");
        assert!(
            c.makespan >= plain.critical_path_words,
            "{ctx}: makespan {} < critical path {}",
            c.makespan,
            plain.critical_path_words
        );
        // Per-round link load can never exceed the round's total words, and
        // the claimed makespan is exactly the sum of the round times.
        let sum: u64 = c.rounds.iter().map(|r| r.time).sum();
        assert_eq!(sum, c.makespan, "{ctx}: makespan != Σ round times");
        for r in &c.rounds {
            assert!(r.max_link_words <= r.words, "{ctx}: link load > round words");
            assert!(r.max_rank_words <= 2 * r.words, "{ctx}: rank load > 2·words");
        }
    }
}
