//! Closed-form arithmetic-complexity formulas for Strassen-like algorithms.
//!
//! A base graph with `a = n₀²` inputs per matrix and `b` multiplications,
//! run for `r` levels, performs `b^r` leaf multiplications and
//! `Θ(n^{ω₀})` total operations with `ω₀ = 2·log_a b = log_{n₀} b`. These
//! formulas calibrate the lower bounds of Theorem 1. The vertex count of
//! `G_r` is `mmio_cdag::view::count_vertices`.

use mmio_cdag::BaseGraph;

/// `b^r`: scalar multiplications of a full recursion.
pub fn multiplications(base: &BaseGraph, r: u32) -> u64 {
    (base.b() as u64)
        .checked_pow(r)
        .expect("multiplication count overflow")
}

/// `Θ(n^{ω₀})` evaluated literally: `n^{ω₀}` for `n = n₀^r`.
pub fn arithmetic_estimate(base: &BaseGraph, r: u32) -> f64 {
    let n = (base.n0() as f64).powi(r as i32);
    n.powf(base.omega0())
}

/// Number of vertices on decoding rank `k` of `G_r`: `a^k·b^{r-k}`
/// (Section 5 counts these to size its segments).
pub fn decoding_rank_size(base: &BaseGraph, r: u32, k: u32) -> u64 {
    assert!(k <= r);
    (base.a() as u64).pow(k) * (base.b() as u64).pow(r - k)
}

/// Number of counted vertices for the Section 6 argument: decoding rank `k`
/// plus encoding rank `r-k` of both sides, `3·a^k·b^{r-k}` in total.
pub fn counted_rank_size(base: &BaseGraph, r: u32, k: u32) -> u64 {
    3 * decoding_rank_size(base, r, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strassen::strassen;
    use mmio_cdag::build::build_cdag;

    #[test]
    fn vertex_formula_matches_builder() {
        use mmio_cdag::view::count_vertices;
        let base = strassen();
        for r in 0..=4 {
            let g = build_cdag(&base, r);
            assert_eq!(
                count_vertices(base.a() as u64, base.b() as u64, r),
                Some(g.n_vertices() as u64),
                "r={r}"
            );
        }
    }

    #[test]
    fn multiplications_formula() {
        let base = strassen();
        assert_eq!(multiplications(&base, 0), 1);
        assert_eq!(multiplications(&base, 5), 16807);
    }

    #[test]
    fn b_pow_r_equals_n_pow_omega0() {
        // b^r = (n₀^r)^{ω₀} exactly, since ω₀ = log_{n₀} b.
        let base = strassen();
        for r in 1..=6u32 {
            let exact = multiplications(&base, r) as f64;
            let estimate = arithmetic_estimate(&base, r);
            assert!((exact - estimate).abs() / exact < 1e-9, "r={r}");
        }
    }

    #[test]
    fn rank_sizes() {
        let base = strassen();
        let g = build_cdag(&base, 3);
        for k in 0..=3 {
            assert_eq!(
                decoding_rank_size(&base, 3, k),
                g.segment_len(mmio_cdag::Layer::Dec, k)
            );
        }
        assert_eq!(counted_rank_size(&base, 3, 1), 3 * 4 * 49);
    }
}
