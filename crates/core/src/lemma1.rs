//! Lemma 1: a `1/b²` fraction of the subcomputations `G_k^i` are mutually
//! *input-disjoint* (no two share an input meta-vertex).
//!
//! The library selects an explicitly verified collection: a greedy sweep
//! that keeps a subcomputation iff its input meta-vertices are disjoint
//! from everything already kept. The paper's counting argument guarantees
//! the greedy result has size at least `b^{r-k-2}` whenever the Lemma 1
//! condition holds (both encodings contain a nontrivial row); tests check
//! that guarantee on every library base graph.

use mmio_cdag::meta::MetaId;
use mmio_cdag::{index, CdagView, Layer, MetaVertices, VertexRef};
use std::collections::HashSet;

/// The input meta-vertex set of subcomputation `i` of depth `k`.
///
/// Inputs are written in closed form (the Fact-1 copy's `2a^k` encoding
/// rank-`r-k` vertices with `mul = i`), so this works over any
/// [`CdagView`] without materializing the graph.
pub fn input_metas<V: CdagView>(
    g: &V,
    meta: &MetaVertices,
    k: u32,
    prefix: u64,
) -> HashSet<MetaId> {
    input_roots(g, meta, k, prefix).map(MetaId).collect()
}

/// The meta roots of subcomputation `prefix`'s inputs, one per input, in
/// the order of [`input_metas`]' closed form.
fn input_roots<'a, V: CdagView>(
    g: &'a V,
    meta: &'a MetaVertices,
    k: u32,
    prefix: u64,
) -> impl Iterator<Item = u32> + 'a {
    let ak = index::pow(g.a(), k);
    [Layer::EncA, Layer::EncB]
        .into_iter()
        .flat_map(move |layer| {
            (0..ak).map(move |entry| {
                let v = g
                    .try_id(VertexRef {
                        layer,
                        level: g.r() - k,
                        mul: prefix,
                        entry,
                    })
                    .expect("subcomputation input in range");
                meta.meta_of(v).0
            })
        })
}

/// Greedily selects a maximal prefix-ordered collection of mutually
/// input-disjoint subcomputations of depth `k`. Disjointness is *verified*,
/// not assumed: a subcomputation is kept iff none of its input
/// meta-vertices is marked, and keeping it marks them all. The marks are
/// one `|V|`-sized array indexed by meta root, and each prefix's input
/// roots are gathered into one reused buffer.
pub fn select_input_disjoint<V: CdagView>(g: &V, meta: &MetaVertices, k: u32) -> Vec<u64> {
    assert!(k <= g.r(), "k must be at most r");
    let count = index::pow(g.b(), g.r() - k);
    let mut used = vec![false; g.n_vertices()];
    let mut roots: Vec<usize> = Vec::new();
    let mut chosen = Vec::new();
    for prefix in 0..count {
        roots.clear();
        roots.extend(input_roots(g, meta, k, prefix).map(|m| m as usize));
        if roots.iter().all(|&m| !used[m]) {
            for &m in &roots {
                used[m] = true;
            }
            chosen.push(prefix);
        }
    }
    chosen
}

/// The Lemma 1 target size: `b^{r-k-2}` (for `k ≤ r-2`).
pub fn lemma1_target<V: CdagView>(g: &V, k: u32) -> u64 {
    assert!(k + 2 <= g.r(), "Lemma 1 requires k ≤ r-2");
    index::pow(g.b(), g.r() - k - 2)
}

/// Exhaustively verifies that the selection is mutually input-disjoint.
pub fn verify_disjoint<V: CdagView>(g: &V, meta: &MetaVertices, k: u32, chosen: &[u64]) -> bool {
    let mut seen: HashSet<MetaId> = HashSet::new();
    for &prefix in chosen {
        for m in input_metas(g, meta, k, prefix) {
            if !seen.insert(m) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmio_algos::classical::classical;
    use mmio_algos::strassen::{strassen, winograd};
    use mmio_cdag::build::build_cdag;

    /// The `HashSet` greedy the mark array replaced: the oracle of
    /// [`select_input_disjoint`].
    fn select_by_hash_sets<V: CdagView>(g: &V, meta: &MetaVertices, k: u32) -> Vec<u64> {
        let count = index::pow(g.b(), g.r() - k);
        let mut used: HashSet<MetaId> = HashSet::new();
        let mut chosen = Vec::new();
        for prefix in 0..count {
            let metas = input_metas(g, meta, k, prefix);
            if metas.iter().all(|m| !used.contains(m)) {
                used.extend(metas);
                chosen.push(prefix);
            }
        }
        chosen
    }

    /// Every registry base at every `r ≤ 4` whose `G_r` has at most 2²²
    /// vertices (the tensor-square bases stop at `r = 3`), every `k ≤ r`.
    #[test]
    fn marks_select_what_hash_sets_select() {
        use mmio_cdag::view::count_vertices;
        for base in mmio_algos::registry::all_base_graphs() {
            for r in 1..=4u32 {
                let size = count_vertices(base.a() as u64, base.b() as u64, r);
                if size.is_none_or(|n| n > 1 << 22) {
                    continue;
                }
                let view = mmio_cdag::IndexView::from_base(&base, r);
                let meta = MetaVertices::compute_view(&view);
                for k in 1..=r {
                    let chosen = select_input_disjoint(&view, &meta, k);
                    assert_eq!(
                        chosen,
                        select_by_hash_sets(&view, &meta, k),
                        "{} r={r} k={k}",
                        base.name()
                    );
                    assert!(verify_disjoint(&view, &meta, k, &chosen));
                }
            }
        }
    }

    #[test]
    fn strassen_selection_meets_lemma1_bound() {
        for (r, k) in [(3u32, 1u32), (4, 1), (4, 2)] {
            let g = build_cdag(&strassen(), r);
            let meta = MetaVertices::compute(&g);
            let chosen = select_input_disjoint(&g, &meta, k);
            assert!(verify_disjoint(&g, &meta, k, &chosen));
            let target = lemma1_target(&g, k);
            assert!(
                chosen.len() as u64 >= target,
                "r={r} k={k}: selected {} < target {target}",
                chosen.len()
            );
        }
    }

    #[test]
    fn winograd_selection_meets_lemma1_bound() {
        let g = build_cdag(&winograd(), 3);
        let meta = MetaVertices::compute(&g);
        let chosen = select_input_disjoint(&g, &meta, 1);
        assert!(verify_disjoint(&g, &meta, 1, &chosen));
        assert!(chosen.len() as u64 >= lemma1_target(&g, 1));
    }

    #[test]
    fn classical_shares_inputs_heavily() {
        // Classical copies every input to many subcomputations: far fewer
        // disjoint subcomputations are available. (Lemma 1's hypothesis
        // fails for classical; the selection still runs, it just can't be
        // large.) At r=3, k=1: 64 subcomputations, inputs heavily shared.
        let g = build_cdag(&classical(2), 3);
        let meta = MetaVertices::compute(&g);
        let chosen = select_input_disjoint(&g, &meta, 1);
        assert!(verify_disjoint(&g, &meta, 1, &chosen));
        assert!(
            (chosen.len() as u64) < index::pow(g.base().b(), g.r() - 1),
            "classical cannot have all subcomputations disjoint"
        );
    }

    #[test]
    fn disjointness_checker_catches_overlap() {
        let g = build_cdag(&strassen(), 3);
        let meta = MetaVertices::compute(&g);
        // Two children of the same parent share encoded inputs through
        // their parent's combination meta-vertices only if trivial rows
        // align; prefixes 0 and 0 trivially overlap.
        assert!(!verify_disjoint(&g, &meta, 1, &[0, 0]));
    }

    #[test]
    #[should_panic(expected = "k ≤ r-2")]
    fn lemma1_range_enforced() {
        let g = build_cdag(&strassen(), 2);
        let _ = lemma1_target(&g, 1);
    }
}
