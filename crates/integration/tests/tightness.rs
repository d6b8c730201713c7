//! Tightness of Theorem 1: the measured I/O of the recursive schedule
//! *scales* like the lower-bound formula — log-log regression slopes match
//! the predicted exponents.

use mmio_algos::strassen::strassen;
use mmio_cdag::build::build_cdag;
use mmio_pebble::orders::recursive_order;
use mmio_pebble::policy::Belady;
use mmio_pebble::AutoScheduler;

/// Least-squares slope of y against x.
fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

#[test]
fn io_scales_as_n_to_omega0_at_fixed_m() {
    let base = strassen();
    let m = 16usize;
    let mut points = Vec::new();
    for r in 3..=6u32 {
        let g = build_cdag(&base, r);
        let order = recursive_order(&g);
        let io = AutoScheduler::new(&g, m).run(&order, &Belady).io();
        points.push(((g.n() as f64).ln(), (io as f64).ln()));
    }
    let s = slope(&points);
    let omega0 = base.omega0();
    assert!(
        (s - omega0).abs() < 0.35,
        "n-slope {s:.3} should be ≈ ω₀ = {omega0:.3}"
    );
}

#[test]
fn io_scales_as_m_to_one_minus_half_omega0_at_fixed_n() {
    // (n/√M)^ω₀·M = n^ω₀ · M^{1-ω₀/2}: predicted M-exponent ≈ −0.404.
    let base = strassen();
    let g = build_cdag(&base, 6);
    let order = recursive_order(&g);
    let mut points = Vec::new();
    for m in [16usize, 64, 256, 1024] {
        let io = AutoScheduler::new(&g, m).run(&order, &Belady).io();
        points.push(((m as f64).ln(), (io as f64).ln()));
    }
    let s = slope(&points);
    let predicted = 1.0 - base.omega0() / 2.0;
    assert!(
        (s - predicted).abs() < 0.25,
        "M-slope {s:.3} should be ≈ {predicted:.3}"
    );
}

#[test]
fn classical_io_scales_as_cube_at_fixed_m() {
    use mmio_algos::classical::classical;
    let base = classical(2);
    let m = 16usize;
    let mut points = Vec::new();
    for r in 3..=5u32 {
        let g = build_cdag(&base, r);
        let order = recursive_order(&g);
        let io = AutoScheduler::new(&g, m).run(&order, &Belady).io();
        points.push(((g.n() as f64).ln(), (io as f64).ln()));
    }
    let s = slope(&points);
    assert!(
        (s - 3.0).abs() < 0.35,
        "classical n-slope {s:.3} should be ≈ 3"
    );
}
