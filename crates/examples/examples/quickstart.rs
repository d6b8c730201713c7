//! Quickstart: the whole pipeline on one page.
//!
//! 1. Take Strassen's base graph and *prove* it multiplies matrices
//!    (exact tensor check).
//! 2. Multiply two real matrices with it and cross-check against the
//!    classical algorithm.
//! 3. Build the computation DAG `G_r`, run it through the two-level memory
//!    simulator with the recursive schedule, and compare the measured I/O
//!    against Theorem 1's lower bound.
//!
//! ```text
//! cargo run --release -p mmio-examples --example quickstart
//! ```

use mmio_algos::strassen::strassen;
use mmio_algos::Executor;
use mmio_cdag::build::build_cdag;
use mmio_core::theorem1::LowerBound;
use mmio_examples::ratio_line;
use mmio_matrix::classical::multiply_naive;
use mmio_matrix::random::random_i64_matrix;
use mmio_pebble::orders::recursive_order;
use mmio_pebble::policy::Lru;
use mmio_pebble::AutoScheduler;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // 1. The algorithm, symbolically verified.
    let base = strassen();
    base.verify_correctness()
        .expect("Strassen satisfies the matmul tensor identity");
    println!(
        "base graph {:?}: a={}, b={}, ω₀={:.4}, fast={}",
        base.name(),
        base.a(),
        base.b(),
        base.omega0(),
        base.is_fast()
    );

    // 2. Multiply real matrices.
    let mut rng = StdRng::seed_from_u64(2015);
    let n = 64usize;
    let a = random_i64_matrix(n, n, &mut rng);
    let b = random_i64_matrix(n, n, &mut rng);
    let exec = Executor::new(base.clone(), 8);
    let (c, counts) = exec.multiply_counted(&a, &b);
    assert!(c.exactly_equals(&multiply_naive(&a, &b)));
    println!(
        "multiplied {n}×{n}: {} leaf mults, {} adds — result matches classical",
        counts.leaf_mults, counts.adds
    );

    // 3. The CDAG and its I/O under a real schedule.
    let r = 5; // 32×32
    let g = build_cdag(&base, r);
    println!(
        "built G_{r}: {} vertices, {} edges (n = {})",
        g.n_vertices(),
        g.n_edges(),
        g.n()
    );
    let order = recursive_order(&g);
    let lb = LowerBound::new(&base);
    println!(
        "\nI/O of the recursive schedule vs Theorem 1 (n = {}):",
        g.n()
    );
    for m in [16usize, 64, 256, 1024] {
        let stats = AutoScheduler::new(&g, m).run(&order, &Lru);
        let bound = lb.sequential_io(g.n(), m as u64);
        println!("{}", ratio_line(&format!("M = {m}"), stats.io(), bound));
    }
    println!("\nThe ratio stays Θ(1) as M varies: the bound is tight (Theorem 1 + [3]).");
}
