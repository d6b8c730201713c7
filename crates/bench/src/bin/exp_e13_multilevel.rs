//! E13 — multi-level memory hierarchies: Theorem 1 applied per boundary.
//!
//! The paper's introduction motivates the bound by "communication of data
//! within memory hierarchy"; the 2-level result composes level-by-level
//! (the standard inclusive-hierarchy argument). We simulate a 4-level
//! hierarchy and check that the traffic across every boundary `i`
//! dominates `(n/√M_i)^{ω₀}·M_i` in shape.
//!
//! The per-boundary runs go through `Hierarchy::measure` (a
//! `mmio_pebble::sweep` over the level sizes on the shared thread pool) and
//! are asserted against the pre-migration boundary traffic.

use mmio_algos::strassen::strassen;
use mmio_bench::{write_record, Row};
use mmio_cdag::build::build_cdag;
use mmio_core::theorem1::LowerBound;
use mmio_parallel::Pool;
use mmio_pebble::hierarchy::Hierarchy;
use mmio_pebble::orders::recursive_order;
use mmio_pebble::sweep::PolicySpec;

/// Pre-migration boundary traffic for the 4 levels below.
const EXPECTED_IO: [u64; 4] = [178517, 95800, 47289, 19889];

fn main() {
    let base = strassen();
    mmio_bench::preflight(&base);
    let lb = LowerBound::new(&base);
    let g = build_cdag(&base, 5);
    let order = recursive_order(&g);
    let h = Hierarchy::new(vec![8, 32, 128, 512]);
    let traffic = h.measure(&g, &order, PolicySpec::Belady, &Pool::from_env(None));
    assert_eq!(
        traffic.boundary_io, EXPECTED_IO,
        "pooled hierarchy traffic diverged from pre-migration values"
    );
    let mut rows = Vec::new();

    println!("E13: 4-level hierarchy, Strassen r=5 (n = {})\n", g.n());
    println!(
        "{:>10} | {:>12} | {:>12} {:>8}",
        "level size", "boundary IO", "Ω bound", "ratio"
    );
    for (i, (&m, &io)) in traffic
        .level_sizes
        .iter()
        .zip(&traffic.boundary_io)
        .enumerate()
    {
        let bound = lb.sequential_io(g.n(), m as u64);
        println!(
            "{m:>10} | {io:>12} | {bound:>12.0} {:>8.2}",
            io as f64 / bound
        );
        rows.push(
            Row::new(format!("L{i},M={m}"))
                .push("io", io as f64)
                .push("bound", bound),
        );
        assert!(io as f64 >= bound, "Theorem 1 must hold per boundary");
    }
    println!("\nEvery boundary's traffic dominates its own (n/√M)^ω₀·M —");
    println!("the lower bound composes across the hierarchy.");
    write_record("e13_multilevel", &rows);
}
