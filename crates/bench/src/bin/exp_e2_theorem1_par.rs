//! E2 — Theorem 1, parallel: CAPS bandwidth versus the two parallel lower
//! bounds (`(n/√M)^{ω₀}·M/P` and the memory-independent `n²/P^{2/ω₀}`),
//! plus distributed-CDAG measurements showing the load-balance hypothesis
//! matters, and strong scaling of the contended distributed simulator at
//! up to 4096 ranks against the memory-independent bound.
//!
//! Expected shape: per-processor words fall like `1/P` in the
//! memory-bound regime and flatten onto the memory-independent floor as
//! `M` grows; the all-on-one assignment beats the floor only by being
//! rank-imbalanced; the contended makespan stops scaling well before the
//! per-rank words stop falling.

use mmio_algos::strassen::strassen;
use mmio_bench::{write_record, Row};
use mmio_cdag::build::build_cdag;
use mmio_cdag::{CdagView, IndexView};
use mmio_core::theorem1::LowerBound;
use mmio_parallel::assign::{all_on_one, cyclic_per_rank};
use mmio_parallel::bandwidth::measure;
use mmio_parallel::caps::simulate;
use mmio_parallel::distsim::{simulate_on, MachineModel, Topology};
use mmio_parallel::Pool;
use mmio_pebble::orders::recursive_order;

fn main() {
    let base = strassen();
    mmio_bench::preflight(&base);
    let lb = LowerBound::new(&base);
    let n = 1u64 << 10;
    let mut rows = Vec::new();

    println!("E2a: CAPS bandwidth per processor, n = {n}\n");
    println!(
        "{:>6} {:>10} | {:>12} {:>10} | {:>14} {:>14}",
        "P", "M", "words/proc", "steps", "Ω (n/√M)^ω M/P", "Ω n²/P^(2/ω)"
    );
    for t in 1..=5u32 {
        let p = 7u64.pow(t);
        for m in [n * n / p, 4 * n * n / p, u64::MAX / 4] {
            let run = simulate(&base, n, p, m);
            let b1 = lb.parallel_bandwidth(n, m.min(n * n), p);
            let b2 = lb.memory_independent_bandwidth(n, p);
            let m_str = if m > n * n {
                "∞".to_string()
            } else {
                m.to_string()
            };
            println!(
                "{p:>6} {m_str:>10} | {:>12.0} {:>10} | {b1:>14.0} {b2:>14.0}",
                run.words_per_proc, run.steps
            );
            rows.push(
                Row::new(format!("P={p},M={m_str}"))
                    .push("words", run.words_per_proc)
                    .push("bound_mem", b1)
                    .push("bound_indep", b2),
            );
        }
    }

    println!("\nE2b: distributed-CDAG critical-path words (n = 16, r = 4)\n");
    println!(
        "{:>4} | {:>12} {:>10} | {:>12} {:>10} | {:>14}",
        "P", "cyclic", "balanced", "all-on-one", "balanced", "Ω n²/P^(2/ω)"
    );
    let g = build_cdag(&base, 4);
    for p in [2u32, 4, 8, 16] {
        let cyc = measure(&g, &cyclic_per_rank(&g, p));
        let one = measure(&g, &all_on_one(&g, p));
        println!(
            "{p:>4} | {:>12} {:>10} | {:>12} {:>10} | {:>14.0}",
            cyc.critical_path,
            cyc.rank_balanced,
            one.critical_path,
            one.rank_balanced,
            lb.memory_independent_bandwidth(g.n(), p as u64)
        );
    }
    println!("\nThe imbalanced assignment communicates 0 words — legal, but it");
    println!("violates the per-rank load-balance hypothesis of the memory-");
    println!("independent bound, which is why the hypothesis appears in the theorem.");

    // Strong scaling on the closed-form view: the contended makespan of a
    // fixed problem as P grows, and per-rank words against n²/P^{2/ω₀}.
    let r = 5;
    let view = IndexView::from_base(&base, r);
    let order = recursive_order(&view);
    let m = (view.max_indegree() + 1).max(16);
    let n = mmio_cdag::index::pow(base.n0(), r);
    let pool = Pool::from_env(None);
    println!(
        "\nE2c: strong scaling — strassen r = {r} (n = {n}, {} vertices), \
         cyclic assignment, 2D torus, α = β = γ = 1\n",
        CdagView::n_vertices(&view)
    );
    println!(
        "{:>6} | {:>12} {:>12} {:>12} | {:>10} {:>8} | {:>8}",
        "P", "words", "crit path", "makespan", "Ω bound", "ratio", "eff"
    );
    // Perfect strong scaling: the longest prefix of the P grid whose
    // efficiency stays ≥ 0.5, i.e. makespan·P within 2× of its P₀ value.
    let (mut p0_cost, mut scaling, mut perfect_up_to) = (None, true, 0);
    for p in [64u32, 256, 1024, 4096] {
        let topo = Topology::parse("torus", p).expect("square P grid");
        let mm = Some(MachineModel::new(topo, 1, 1, 1));
        let out = simulate_on(&view, &cyclic_per_rank(&view, p), &order, m, mm, &pool);
        let makespan = out.contention.expect("machine model attached").makespan;
        let bound = lb.memory_independent_bandwidth(n, p as u64);
        let ratio = out.run.critical_path_words as f64 / bound;
        // makespan(P₀)·P₀ / (makespan(P)·P): 1.0 is perfect strong scaling.
        let cost = makespan * p as u64;
        let efficiency = *p0_cost.get_or_insert(cost) as f64 / cost as f64;
        scaling &= efficiency >= 0.5;
        if scaling {
            perfect_up_to = p;
        }
        println!(
            "{p:>6} | {:>12} {:>12} {makespan:>12} | {bound:>10.1} {ratio:>7.1}x | {efficiency:>8.3}",
            out.run.total_words, out.run.critical_path_words
        );
        rows.push(
            Row::new(format!("E2c,P={p}"))
                .push("words", out.run.total_words as f64)
                .push("critical_path", out.run.critical_path_words as f64)
                .push("makespan", makespan as f64)
                .push("bound_indep", bound)
                .push("ratio", ratio)
                .push("efficiency", efficiency),
        );
    }
    println!("\nperfect strong scaling (efficiency ≥ 0.5) holds up to P = {perfect_up_to}");
    rows.push(Row::new("E2c,perfect_scaling").push("up_to_p", perfect_up_to as f64));
    write_record("e2_theorem1_par", &rows);
}
