//! Structural profiles of CDAGs: per-rank vertex counts, degree
//! distributions, copying statistics. Used by examples, experiments, and
//! as cross-checks against the closed-form counts.

use crate::graph::Cdag;
use crate::meta::MetaVertices;
use serde::Serialize;

/// A structural profile of one CDAG.
#[derive(Clone, Debug, Serialize)]
pub struct CdagProfile {
    /// Base-graph name.
    pub base: String,
    /// Recursion depth.
    pub r: u32,
    /// Matrix side.
    pub n: u64,
    /// Total vertices.
    pub vertices: usize,
    /// Total directed edges.
    pub edges: usize,
    /// Vertex count per global rank `0..=2r+1`.
    pub rank_sizes: Vec<u64>,
    /// Maximum in-degree (bounds the minimum feasible cache size − 1).
    pub max_in_degree: usize,
    /// Maximum out-degree.
    pub max_out_degree: usize,
    /// Number of meta-vertices (distinct values).
    pub meta_vertices: usize,
    /// Number of duplicated vertices (members of non-singleton metas).
    pub duplicated_vertices: usize,
    /// Largest meta-vertex size.
    pub max_meta_size: usize,
}

/// Computes the profile of `g`.
pub fn profile(g: &Cdag) -> CdagProfile {
    let max_rank = 2 * g.r() + 1;
    let mut rank_sizes = vec![0u64; max_rank as usize + 1];
    let mut max_in = 0;
    let mut max_out = 0;
    for v in g.vertices() {
        rank_sizes[g.rank(v) as usize] += 1;
        max_in = max_in.max(g.preds(v).len());
        max_out = max_out.max(g.succs(v).len());
    }
    let meta = MetaVertices::compute(g);
    let mut duplicated = 0;
    let mut max_meta = 1;
    for v in g.vertices() {
        if meta.is_duplicated(v) {
            duplicated += 1;
        }
        max_meta = max_meta.max(meta.size_of(v));
    }
    CdagProfile {
        base: g.base().name().to_string(),
        r: g.r(),
        n: g.n(),
        vertices: g.n_vertices(),
        edges: g.n_edges(),
        rank_sizes,
        max_in_degree: max_in,
        max_out_degree: max_out,
        meta_vertices: meta.count(g),
        duplicated_vertices: duplicated,
        max_meta_size: max_meta,
    }
}

/// Closed-form rank size: encoding ranks `t ≤ r` hold `2·b^t·a^{r-t}`
/// vertices (both sides), decoding rank `k` (global rank `r+1+k`) holds
/// `b^{r-k}·a^k`.
#[cfg(test)]
pub fn expected_rank_size(g: &Cdag, rank: u32) -> u64 {
    let (a, b, r) = (g.base().a(), g.base().b(), g.r());
    if rank <= r {
        2 * crate::index::pow(b, rank) * crate::index::pow(a, r - rank)
    } else {
        let k = rank - r - 1;
        crate::index::pow(b, r - k) * crate::index::pow(a, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_cdag;
    use mmio_matrix::{Matrix, Rational};

    fn tiny_base() -> crate::BaseGraph {
        let one = Matrix::from_vec(1, 1, vec![Rational::ONE]);
        crate::BaseGraph::new("unit", 1, one.clone(), one.clone(), one)
    }

    #[test]
    fn profile_counts_consistent() {
        let g = build_cdag(&tiny_base(), 2);
        let p = profile(&g);
        assert_eq!(p.vertices, g.n_vertices());
        assert_eq!(p.rank_sizes.iter().sum::<u64>(), g.n_vertices() as u64);
        assert_eq!(p.max_in_degree, 2); // the product vertices
    }

    #[test]
    fn rank_sizes_match_closed_form() {
        let g = build_cdag(&tiny_base(), 3);
        let p = profile(&g);
        for rank in 0..=(2 * g.r() + 1) {
            assert_eq!(
                p.rank_sizes[rank as usize],
                expected_rank_size(&g, rank),
                "rank {rank}"
            );
        }
    }

    #[test]
    fn duplicated_counts() {
        // The unit base graph has all-trivial rows: every encoding vertex
        // above rank 0 is a copy; metas have size 3 on each side chain.
        let g = build_cdag(&tiny_base(), 2);
        let p = profile(&g);
        assert!(p.duplicated_vertices > 0);
        assert!(p.max_meta_size >= 3);
        assert!(p.meta_vertices < p.vertices);
    }
}
