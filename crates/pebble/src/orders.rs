//! Compute orders: the degree of freedom the paper's lower bound quantifies
//! over ("the number of cache I/Os required may depend on the order in which
//! intermediate values of the algorithm are computed", Section 1).

use crate::graph::PebbleGraph;
use mmio_cdag::{Cdag, CdagView, Layer, VertexId, VertexRef};
use rand::Rng;

/// Rank-by-rank order (all of encoding rank 1, then rank 2, …): the natural
/// breadth-first order with pessimal temporal locality — entire ranks
/// (`Θ(n²)` and larger) must round-trip through slow memory once `M` is
/// small. (Dense id order *is* rank order, so filtering ids suffices.)
pub fn rank_order<G: PebbleGraph>(g: &G) -> Vec<VertexId> {
    (0..g.n_vertices() as u32)
        .map(VertexId)
        .filter(|&v| !g.is_input(v))
        .collect()
}

/// The recursive depth-first order of the actual Strassen-like algorithm:
/// subproblems are completed one at a time, so the working set at recursion
/// depth `d` is `O(a^{r-d})` — the cache-oblivious schedule that attains the
/// Theorem 1 lower bound (cf. \[3\]).
///
/// Emission for a subproblem with multiplication prefix `p` at depth `d`:
/// for each child `m`: emit the child's encoded inputs (both sides), recurse;
/// afterwards emit the decode of this subproblem's outputs.
pub fn recursive_order<V: CdagView>(g: &V) -> Vec<VertexId> {
    recursive_order_in(g, Vec::with_capacity(g.n_vertices()))
}

/// [`recursive_order`], written into `order` after clearing it. Nothing
/// is allocated when `order` has room for `g.n_vertices()` ids, so a
/// caller can allocate the order on its own thread and compute it on a
/// worker (see `mmio_parallel::Pool::join`).
pub fn recursive_order_in<V: CdagView>(g: &V, mut order: Vec<VertexId>) -> Vec<VertexId> {
    let r = g.r();
    let (a, b) = (g.a(), g.b());
    order.clear();

    fn visit<V: CdagView>(
        g: &V,
        order: &mut Vec<VertexId>,
        prefix: u64,
        depth: u32,
        a: usize,
        b: usize,
        r: u32,
    ) {
        let id = |vr: VertexRef| g.try_id(vr).expect("recursive order stays in range");
        if depth == r {
            // Leaf: the product vertex itself.
            order.push(id(VertexRef {
                layer: Layer::Dec,
                level: 0,
                mul: prefix,
                entry: 0,
            }));
            return;
        }
        let suffix = mmio_cdag::index::pow(a, r - depth - 1);
        for m in 0..b as u64 {
            let child = prefix * b as u64 + m;
            // Encode the child's inputs (both sides, all entries).
            for layer in [Layer::EncA, Layer::EncB] {
                for e in 0..suffix {
                    order.push(id(VertexRef {
                        layer,
                        level: depth + 1,
                        mul: child,
                        entry: e,
                    }));
                }
            }
            visit(g, order, child, depth + 1, a, b, r);
        }
        // Decode this subproblem's outputs (decoding rank r-depth).
        let out_suffix = mmio_cdag::index::pow(a, r - depth);
        for e in 0..out_suffix {
            order.push(id(VertexRef {
                layer: Layer::Dec,
                level: r - depth,
                mul: prefix,
                entry: e,
            }));
        }
    }

    visit(g, &mut order, 0, 0, a, b, r);
    order
}

/// A uniformly random topological order (Kahn's algorithm with random
/// tie-breaking), excluding inputs.
pub fn random_topo_order<R: Rng>(g: &Cdag, rng: &mut R) -> Vec<VertexId> {
    let n = g.n_vertices();
    let mut indeg: Vec<u32> = (0..n)
        .map(|i| g.preds(VertexId(i as u32)).len() as u32)
        .collect();
    let mut ready: Vec<VertexId> = g.vertices().filter(|&v| g.is_input(v)).collect();
    let mut order = Vec::with_capacity(n);
    while !ready.is_empty() {
        let pick = rng.gen_range(0..ready.len());
        let v = ready.swap_remove(pick);
        if !g.is_input(v) {
            order.push(v);
        }
        for &s in g.succs(v) {
            indeg[s.idx()] -= 1;
            if indeg[s.idx()] == 0 {
                ready.push(s);
            }
        }
    }
    debug_assert_eq!(
        order.len(),
        g.vertices().filter(|&v| !g.is_input(v)).count()
    );
    order
}

/// Checks that `order` covers every non-input vertex once, in an order
/// consistent with the dependencies.
#[cfg(test)]
pub fn is_valid_compute_order<G: PebbleGraph>(g: &G, order: &[VertexId]) -> bool {
    let n = g.n_vertices();
    let noninput = (0..n as u32).filter(|&i| !g.is_input(VertexId(i))).count();
    if order.len() != noninput {
        return false;
    }
    let mut pos = vec![u64::MAX; n];
    for (i, &v) in order.iter().enumerate() {
        if g.is_input(v) || pos[v.idx()] != u64::MAX {
            return false;
        }
        pos[v.idx()] = i as u64;
    }
    order.iter().all(|&v| {
        g.preds(v)
            .iter()
            .all(|&p| g.is_input(p) || pos[p.idx()] < pos[v.idx()])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmio_cdag::build::build_cdag;

    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use crate::testutil::classical2_base;

    #[test]
    fn all_orders_valid() {
        let g = build_cdag(&classical2_base(), 3);
        let mut rng = StdRng::seed_from_u64(5);
        assert!(is_valid_compute_order(&g, &rank_order(&g)));
        assert!(is_valid_compute_order(&g, &recursive_order(&g)));
        assert!(is_valid_compute_order(&g, &random_topo_order(&g, &mut rng)));
    }

    #[test]
    fn recursive_order_structure() {
        let g = build_cdag(&classical2_base(), 1);
        let order = recursive_order(&g);
        // For r=1: per product m: encA combo, encB combo, product; then
        // 4 outputs. 8 products × 3 + 4 = 28 vertices.
        assert_eq!(order.len(), 28);
        // The first product must be computed right after its two combos.
        let first_product = g.products().next().unwrap();
        let pos = order.iter().position(|&v| v == first_product).unwrap();
        assert_eq!(pos, 2);
    }

    #[test]
    fn random_orders_differ() {
        let g = build_cdag(&classical2_base(), 2);
        let mut rng = StdRng::seed_from_u64(7);
        let o1 = random_topo_order(&g, &mut rng);
        let o2 = random_topo_order(&g, &mut rng);
        assert_ne!(o1, o2, "two random orders should almost surely differ");
    }

    #[test]
    fn invalid_orders_detected() {
        let g = build_cdag(&classical2_base(), 1);
        let mut order = rank_order(&g);
        // Reversed: dependencies violated.
        order.reverse();
        assert!(!is_valid_compute_order(&g, &order));
        // Truncated: incomplete.
        let order2 = rank_order(&g);
        assert!(!is_valid_compute_order(&g, &order2[1..]));
    }
}
