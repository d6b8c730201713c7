//! E7 — Lemma 1: the fraction of mutually input-disjoint subcomputations
//! `G_k^i`, measured by explicit greedy selection with verified
//! disjointness, against the paper's `1/b²` guarantee.
//!
//! Expected shape: for base graphs satisfying the Lemma 1 condition the
//! selected fraction is far above `1/b²`; classical (which violates the
//! condition) falls below it.

use mmio_algos::classical::classical;
use mmio_algos::strassen::{strassen, winograd};
use mmio_bench::{write_record, Row};
use mmio_cdag::build::build_cdag;
use mmio_cdag::MetaVertices;
use mmio_core::lemma1::{select_input_disjoint, verify_disjoint};

fn main() {
    let mut rows = Vec::new();
    println!("E7: mutually input-disjoint subcomputations\n");
    println!(
        "{:<12} {:>2} {:>2} | {:>8} {:>10} | {:>10} {:>12} {:>8}",
        "base", "r", "k", "total", "selected", "fraction", "1/b² target", "meets?"
    );
    for (base, r, ks) in [
        (strassen(), 4u32, vec![1u32, 2]),
        (strassen(), 5, vec![1, 2, 3]),
        (winograd(), 4, vec![1, 2]),
        (classical(2), 4, vec![1, 2]),
    ] {
        mmio_bench::preflight(&base);
        let g = build_cdag(&base, r);
        let meta = MetaVertices::compute(&g);
        for &k in &ks {
            let total = mmio_cdag::index::pow(base.b(), r - k);
            let chosen = select_input_disjoint(&g, &meta, k);
            assert!(verify_disjoint(&g, &meta, k, &chosen));
            let fraction = chosen.len() as f64 / total as f64;
            let target = 1.0 / (base.b() * base.b()) as f64;
            println!(
                "{:<12} {r:>2} {k:>2} | {total:>8} {:>10} | {fraction:>10.4} {target:>12.4} {:>8}",
                base.name(),
                chosen.len(),
                fraction >= target
            );
            rows.push(
                Row::new(format!("{},r={r},k={k}", base.name()))
                    .push("fraction", fraction)
                    .push("target", target),
            );
        }
    }
    write_record("e7_lemma1", &rows);
}
