//! The I/O-vs-cache-size sweep: measured I/O of three schedules against
//! the Theorem 1 lower bound and the classical Hong–Kung baseline.
//!
//! ```text
//! cargo run --release -p mmio-examples --example io_sweep
//! ```

use mmio_algos::strassen::strassen;
use mmio_cdag::build::build_cdag;
use mmio_core::theorem1::LowerBound;
use mmio_pebble::blocked::blocked_io;
use mmio_pebble::orders::{rank_order, recursive_order};
use mmio_pebble::policy::{Belady, Lru};
use mmio_pebble::AutoScheduler;

fn main() {
    let base = strassen();
    let r = 5;
    let g = build_cdag(&base, r);
    let n = g.n();
    let lb = LowerBound::new(&base);
    let recursive = recursive_order(&g);
    let ranked = rank_order(&g);

    println!("n = {n} (Strassen, r = {r}); I/O by schedule and cache size\n");
    println!(
        "{:>6} | {:>12} {:>12} {:>12} | {:>12} {:>14}",
        "M", "rec+belady", "rec+lru", "rank+lru", "Ω bound", "classical(blk)"
    );
    for m in [8usize, 16, 32, 64, 128, 256, 512, 1024] {
        let rb = AutoScheduler::new(&g, m).run(&recursive, &Belady).io();
        let rl = AutoScheduler::new(&g, m).run(&recursive, &Lru).io();
        let kl = AutoScheduler::new(&g, m).run(&ranked, &Lru).io();
        let bound = lb.sequential_io(n, m as u64);
        let classical = blocked_io(n, m as u64);
        println!("{m:>6} | {rb:>12} {rl:>12} {kl:>12} | {bound:>12.0} {classical:>14}",);
    }
    println!("\nShape checks:");
    println!("- the recursive schedule tracks the Ω bound within a constant;");
    println!("- the rank-by-rank schedule degrades sharply at small M;");
    println!("- blocked classical follows n³/√M — worse than Strassen's");
    println!("  (n/√M)^2.807·M for large n at every M.");
}
