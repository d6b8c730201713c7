//! E10 — classical vs fast crossover: blocked classical I/O
//! (`Θ(n³/√M)`, Hong–Kung) against Strassen's recursive-schedule I/O
//! (`Θ((n/√M)^{2.807}·M)`), both measured on the simulator, plus the
//! analytic curves.
//!
//! Expected shape: the classical/Strassen I/O ratio grows like
//! `(n/√M)^{3−ω₀} ≈ (n/√M)^{0.193}` — Strassen wins for every `M` once `n`
//! is large enough, and the advantage grows as `M` shrinks.

use mmio_algos::classical::classical;
use mmio_algos::strassen::strassen;
use mmio_bench::{write_record, Row};
use mmio_cdag::build::build_cdag;
use mmio_core::theorem1::LowerBound;
use mmio_pebble::blocked::{blocked_io, hong_kung_lower_bound};
use mmio_pebble::orders::recursive_order;
use mmio_pebble::policy::Belady;
use mmio_pebble::AutoScheduler;

fn main() {
    let strassen_base = strassen();
    let classical_base = classical(2);
    mmio_bench::preflight(&strassen_base);
    mmio_bench::preflight(&classical_base);
    let lb = LowerBound::new(&strassen_base);
    let mut rows = Vec::new();

    println!("E10a: measured I/O on the simulator (same n, same M)\n");
    println!(
        "{:>4} {:>5} | {:>12} {:>12} {:>8}",
        "n", "M", "classicalIO", "strassenIO", "ratio"
    );
    for r in 3..=5u32 {
        let gs = build_cdag(&strassen_base, r);
        let gc = build_cdag(&classical_base, r);
        let os = recursive_order(&gs);
        let oc = recursive_order(&gc);
        for m in [8usize, 32, 128] {
            if (m * 4) as u64 > gs.n() * gs.n() {
                continue;
            }
            let s_io = AutoScheduler::new(&gs, m).run(&os, &Belady).io();
            let c_io = AutoScheduler::new(&gc, m).run(&oc, &Belady).io();
            let ratio = c_io as f64 / s_io as f64;
            println!("{:>4} {m:>5} | {c_io:>12} {s_io:>12} {ratio:>8.3}", gs.n());
            rows.push(
                Row::new(format!("n={},M={m}", gs.n()))
                    .push("classical", c_io as f64)
                    .push("strassen", s_io as f64),
            );
        }
    }

    println!("\nE10b: analytic curves at scale (blocked classical vs Strassen Ω)\n");
    println!(
        "{:>8} {:>8} | {:>16} {:>16} {:>16} {:>8}",
        "n", "M", "blocked classic", "Hong-Kung Ω", "Strassen Ω", "c/s"
    );
    for logn in [10u32, 12, 14, 16] {
        let n = 1u64 << logn;
        for m in [1u64 << 10, 1 << 14] {
            let c = blocked_io(n, m) as f64;
            let hk = hong_kung_lower_bound(n, m);
            let s = lb.sequential_io(n, m);
            println!(
                "{n:>8} {m:>8} | {c:>16.3e} {hk:>16.3e} {s:>16.3e} {:>8.2}",
                c / s
            );
        }
    }
    println!("\nThe classical/Strassen ratio grows with n/√M in both the");
    println!("measured (small-scale) and analytic (large-scale) regimes —");
    println!("fast matrix multiplication wins on communication, not just flops.");
    write_record("e10_crossover", &rows);
}
