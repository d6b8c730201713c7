//! Classical blocked matrix multiplication I/O: the Hong–Kung baseline.
//!
//! Hong and Kung \[10\] proved the classical algorithm needs `Θ(n³/√M)` I/Os,
//! attained by multiplying in `s×s` tiles with `3s² ≤ M`. This module
//! provides both the closed-form tile-level count and the corresponding
//! lower-bound formula, used as the classical side of the crossover
//! experiment (E10).

/// Largest tile side `s` with three tiles fitting in cache: `s = ⌊√(M/3)⌋`.
pub fn tile_side(m: u64) -> u64 {
    let mut s = ((m / 3) as f64).sqrt() as u64;
    while 3 * (s + 1) * (s + 1) <= m {
        s += 1;
    }
    while s > 0 && 3 * s * s > m {
        s -= 1;
    }
    s.max(1)
}

/// I/O count of tiled classical multiplication of `n×n` matrices with tile
/// side `s` (tiles assumed to divide `n` for the closed form; callers pass
/// `n` divisible by `s` or accept the ceiling approximation):
/// each of the `⌈n/s⌉³` tile-multiplications loads two tiles and each of the
/// `⌈n/s⌉²` output tiles is loaded/stored once per sweep — totalling
/// `2·⌈n/s⌉³·s² + 2·n²` in the standard accounting (output tile kept across
/// the inner sweep).
pub fn blocked_io(n: u64, m: u64) -> u64 {
    let s = tile_side(m);
    let t = n.div_ceil(s);
    2 * t * t * t * s * s + 2 * n * n
}

/// The Hong–Kung lower bound in its usual explicit form:
/// `n³ / (2√2 · √M) − M` (see \[5\] for the constant).
pub fn hong_kung_lower_bound(n: u64, m: u64) -> f64 {
    let n = n as f64;
    let m = m as f64;
    (n * n * n) / (2.0 * (2.0 * m).sqrt()) - m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_side_fits() {
        for m in [3u64, 12, 48, 300, 10_000] {
            let s = tile_side(m);
            assert!(3 * s * s <= m, "m={m}");
            assert!(3 * (s + 1) * (s + 1) > m, "m={m} not maximal");
        }
    }

    #[test]
    fn tile_side_minimum_one() {
        assert_eq!(tile_side(1), 1);
        assert_eq!(tile_side(2), 1);
    }

    #[test]
    fn blocked_io_scales_as_n3_over_sqrt_m() {
        // Doubling n multiplies I/O by ~8; quadrupling M halves it (for the
        // dominant term).
        let base = blocked_io(1 << 10, 3 * (1 << 8));
        let big_n = blocked_io(1 << 11, 3 * (1 << 8));
        let ratio = big_n as f64 / base as f64;
        assert!((7.0..9.0).contains(&ratio), "n-scaling ratio {ratio}");

        let big_m = blocked_io(1 << 10, 3 * (1 << 10));
        let ratio_m = base as f64 / big_m as f64;
        assert!((1.6..2.4).contains(&ratio_m), "M-scaling ratio {ratio_m}");
    }

    #[test]
    fn blocked_io_beats_lower_bound() {
        for (n, m) in [(256u64, 192u64), (1024, 3072), (4096, 12288)] {
            let upper = blocked_io(n, m) as f64;
            let lower = hong_kung_lower_bound(n, m);
            assert!(upper >= lower, "n={n} m={m}: {upper} < {lower}");
            // And within a constant factor (the bound is tight).
            assert!(upper <= 40.0 * lower.max(1.0), "n={n} m={m} too loose");
        }
    }
}
