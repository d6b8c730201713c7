//! The red–blue pebble game on a tiny CDAG: the exact optimum (full
//! state-space search) versus the automatic scheduler under different
//! replacement policies, and the DOT rendering of the graph (paper
//! Figure 1 at miniature scale).
//!
//! ```text
//! cargo run --release -p mmio-examples --example pebble_playground
//! ```

use mmio_cdag::build::build_cdag;
use mmio_cdag::dot::{to_dot, DotOptions};
use mmio_cdag::BaseGraph;
use mmio_matrix::{Matrix, Rational};
use mmio_pebble::game::min_io;
use mmio_pebble::orders::{rank_order, recursive_order};
use mmio_pebble::policy::{Belady, Lru};
use mmio_pebble::AutoScheduler;

fn main() {
    // A 1×1 "Strassen-like" base graph recursed twice: 10 vertices, small
    // enough for the exact game search.
    let one = Matrix::from_vec(1, 1, vec![Rational::ONE]);
    let base = BaseGraph::new("unit", 1, one.clone(), one.clone(), one);
    let g = build_cdag(&base, 2);
    println!(
        "graph: {} vertices, {} edges, inputs {}, outputs {}",
        g.n_vertices(),
        g.n_edges(),
        g.inputs().count(),
        g.outputs().count()
    );

    println!(
        "\n{:>3} | {:>8} | {:>10} {:>10} {:>10}",
        "M", "optimal", "rec+belady", "rec+lru", "rank+lru"
    );
    let rec = recursive_order(&g);
    let rank = rank_order(&g);
    for m in [3usize, 4, 6, 10] {
        let opt = min_io(&g, m, 5_000_000)
            .map(|x| x.to_string())
            .unwrap_or_else(|| "?".into());
        let rb = AutoScheduler::new(&g, m).run(&rec, &Belady).io();
        let rl = AutoScheduler::new(&g, m).run(&rec, &Lru).io();
        let kl = AutoScheduler::new(&g, m).run(&rank, &Lru).io();
        println!("{m:>3} | {opt:>8} | {rb:>10} {rl:>10} {kl:>10}");
    }

    println!("\nDOT of the graph (render with `dot -Tpng`):\n");
    println!("{}", to_dot(&g, &DotOptions::default()));
}
