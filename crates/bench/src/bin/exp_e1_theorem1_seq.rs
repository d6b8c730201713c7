//! E1 — Theorem 1, sequential: measured I/O of the communication-optimal
//! recursive schedule versus the `(n/√M)^{ω₀}·M` lower bound, swept over
//! `n` and `M`.
//!
//! Expected shape: the measured/bound ratio is bounded above and below by
//! constants across the sweep (the bound is tight, attained by \[3\]'s
//! schedule), and for fixed `M` the measured I/O grows like `n^{ω₀}`.
//!
//! The grid runs on `mmio_pebble::sweep` over the shared thread pool
//! (`MMIO_THREADS` controls width; results are identical at any width), and
//! every grid point is asserted against its pre-migration I/O count — the
//! pooled fast engine must reproduce the serial reference numbers exactly.

use mmio_algos::strassen::strassen;
use mmio_bench::{write_record, Row};
use mmio_cdag::build::build_cdag;
use mmio_core::theorem1::LowerBound;
use mmio_parallel::Pool;
use mmio_pebble::orders::recursive_order;
use mmio_pebble::sweep::{sweep, PolicySpec};

const MS: [usize; 4] = [8, 32, 128, 512];

/// Pre-migration I/O counts (naive serial engine) at every reported grid
/// point; the sweep must reproduce them exactly.
const EXPECTED_IO: &[(u64, u64, u64)] = &[
    // (n, M, io)
    (8, 8, 2877),
    (16, 8, 23536),
    (16, 32, 11757),
    (32, 8, 178517),
    (32, 32, 95800),
    (32, 128, 47289),
    (64, 8, 1304856),
    (64, 32, 725573),
    (64, 128, 384940),
    (64, 512, 189417),
];

fn main() {
    let base = strassen();
    mmio_bench::preflight(&base);
    let lb = LowerBound::new(&base);
    let pool = Pool::from_env(None);
    let mut rows = Vec::new();
    println!("E1: sequential I/O vs Theorem 1 bound (Strassen, recursive schedule, Belady)\n");
    println!(
        "{:>6} {:>6} | {:>12} {:>12} {:>8}",
        "n", "M", "measured", "bound", "ratio"
    );
    // One sweep per graph size; M=32 is re-used below for the growth check.
    let mut io_at_m32: Vec<u64> = Vec::new();
    for r in 3..=6u32 {
        let g = build_cdag(&base, r);
        let order = recursive_order(&g);
        let orders: [&[_]; 1] = [&order];
        let n = g.n();
        let pts = sweep(&g, &orders, &[PolicySpec::Belady], &MS, &pool);
        io_at_m32.push(pts[1].stats().io());
        for (pt, &m) in pts.iter().zip(MS.iter()) {
            let m = m as u64;
            if m * 4 > n * n {
                continue; // outside the M = o(n²) regime
            }
            let io = pt.stats().io();
            let expected = EXPECTED_IO
                .iter()
                .find(|&&(en, em, _)| en == n && em == m)
                .map(|&(_, _, eio)| eio)
                .expect("every reported grid point has a pinned value");
            assert_eq!(
                io, expected,
                "n={n},M={m}: sweep I/O diverged from pre-migration value"
            );
            let bound = lb.sequential_io(n, m);
            let ratio = io as f64 / bound;
            println!("{n:>6} {m:>6} | {io:>12} {bound:>12.0} {ratio:>8.2}");
            rows.push(
                Row::new(format!("n={n},M={m}"))
                    .push("measured", io as f64)
                    .push("bound", bound)
                    .push("ratio", ratio),
            );
        }
    }
    // Growth in n at fixed M: successive ratios ≈ 7 (= 2^ω₀).
    println!("\nGrowth factors at fixed M=32 when n doubles (expect ≈ 7):");
    for (i, w) in io_at_m32.windows(2).enumerate() {
        let n = 8u64 << i; // r = 3 + i
        println!("  n {} → {}: ×{:.2}", n, n * 2, w[1] as f64 / w[0] as f64);
    }
    write_record("e1_theorem1_seq", &rows);
}
