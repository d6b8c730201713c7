//! CDAG evaluation on concrete inputs, the semantic oracle of `G_r`; test
//! builds add the topological-order check, undirected BFS and connected
//! components.

use crate::graph::Cdag;
#[cfg(test)]
use crate::graph::VertexId;
use mmio_matrix::{Matrix, Scalar};

/// A topological order of the CDAG. Dense id order is topological by
/// construction, so this is simply `0..n`; exposed as a function so callers
/// don't depend on that layout detail.
#[cfg(test)]
pub fn topological_order(g: &Cdag) -> Vec<VertexId> {
    g.vertices().collect()
}

/// Verifies that `order` is a permutation of all vertices in which every
/// vertex appears after all of its predecessors.
#[cfg(test)]
pub fn is_topological(g: &Cdag, order: &[VertexId]) -> bool {
    if order.len() != g.n_vertices() {
        return false;
    }
    let mut pos = vec![usize::MAX; g.n_vertices()];
    for (i, &v) in order.iter().enumerate() {
        if pos[v.idx()] != usize::MAX {
            return false; // duplicate
        }
        pos[v.idx()] = i;
    }
    order
        .iter()
        .all(|&v| g.preds(v).iter().all(|&p| pos[p.idx()] < pos[v.idx()]))
}

/// Undirected breadth-first search from `start`, restricted to vertices for
/// which `allowed` returns true. Returns the set of reached vertices
/// (including `start` when allowed).
#[cfg(test)]
pub fn undirected_bfs(
    g: &Cdag,
    start: VertexId,
    allowed: impl Fn(VertexId) -> bool,
) -> Vec<VertexId> {
    if !allowed(start) {
        return Vec::new();
    }
    let mut visited = vec![false; g.n_vertices()];
    let mut queue = std::collections::VecDeque::new();
    let mut reached = Vec::new();
    visited[start.idx()] = true;
    queue.push_back(start);
    while let Some(v) = queue.pop_front() {
        reached.push(v);
        for &w in g.preds(v).iter().chain(g.succs(v)) {
            if !visited[w.idx()] && allowed(w) {
                visited[w.idx()] = true;
                queue.push_back(w);
            }
        }
    }
    reached
}

/// Number of undirected connected components of the induced subgraph on the
/// vertices satisfying `allowed`.
#[cfg(test)]
pub fn component_count(g: &Cdag, allowed: impl Fn(VertexId) -> bool + Copy) -> usize {
    let mut visited = vec![false; g.n_vertices()];
    let mut components = 0;
    for v in g.vertices() {
        if !allowed(v) || visited[v.idx()] {
            continue;
        }
        components += 1;
        for w in undirected_bfs(g, v, allowed) {
            visited[w.idx()] = true;
        }
    }
    components
}

/// Evaluates the CDAG on concrete input matrices, returning every vertex's
/// value. Combination vertices compute `Σ coeff·pred`; product vertices
/// (decoding rank 0) multiply their two operands.
///
/// This is the semantic ground truth for the whole workspace: the outputs of
/// the returned valuation must equal `A·B` for a correct base graph (see
/// [`eval_outputs`]).
///
/// # Panics
/// Panics if the matrix sides don't equal `n₀^r`.
pub fn evaluate<T: Scalar>(g: &Cdag, a: &Matrix<T>, b: &Matrix<T>) -> Vec<T> {
    let n = g.n() as usize;
    assert_eq!(a.rows(), n, "A side must be n0^r");
    assert!(a.is_square() && b.is_square() && b.rows() == n);
    let mut values = vec![T::zero(); g.n_vertices()];
    for row in 0..n {
        for col in 0..n {
            values[g.input_a(row, col).idx()] = a[(row, col)];
            values[g.input_b(row, col).idx()] = b[(row, col)];
        }
    }
    for v in g.vertices() {
        if g.is_input(v) {
            continue;
        }
        let vr = g.vref(v);
        let is_product = vr.layer == crate::graph::Layer::Dec && vr.level == 0;
        let preds = g.preds(v);
        values[v.idx()] = if is_product {
            debug_assert_eq!(preds.len(), 2);
            values[preds[0].idx()] * values[preds[1].idx()]
        } else {
            let coeffs = g.pred_coeffs(v);
            let mut acc = T::zero();
            for (&p, &c) in preds.iter().zip(coeffs) {
                acc += T::from_rational(c) * values[p.idx()];
            }
            acc
        };
    }
    values
}

/// Evaluates the CDAG and extracts the output matrix `C`.
// audit: safe — the semantic oracle of G_r (evaluating it yields A·B), run by mmio-algos' executor tests and the integration crate's end_to_end.rs, which cannot see #[cfg(test)] items
pub fn eval_outputs<T: Scalar>(g: &Cdag, a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    let values = evaluate(g, a, b);
    let n = g.n() as usize;
    Matrix::from_fn(n, n, |row, col| values[g.output(row, col).idx()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_cdag;
    use crate::fixtures::classical2;
    use mmio_matrix::classical::multiply_naive;
    use mmio_matrix::Matrix;

    #[test]
    fn dense_order_is_topological_order() {
        let g = build_cdag(&classical2(), 2);
        assert!(is_topological(&g, &topological_order(&g)));
    }

    #[test]
    fn bad_orders_rejected() {
        let g = build_cdag(&classical2(), 1);
        let mut order = topological_order(&g);
        order.swap(0, g.n_vertices() - 1);
        assert!(!is_topological(&g, &order));
        let dup: Vec<_> = std::iter::repeat_n(order[0], g.n_vertices()).collect();
        assert!(!is_topological(&g, &dup));
        assert!(!is_topological(&g, &order[..3]));
    }

    #[test]
    fn whole_cdag_is_connected() {
        let g = build_cdag(&classical2(), 2);
        assert_eq!(component_count(&g, |_| true), 1);
    }

    #[test]
    fn evaluation_matches_matmul() {
        let g = build_cdag(&classical2(), 2);
        let a = Matrix::from_fn(4, 4, |i, j| (i as i64 * 2 - j as i64) * 3 + 1);
        let b = Matrix::from_fn(4, 4, |i, j| (j as i64 - i as i64) + 2);
        let c = eval_outputs(&g, &a, &b);
        assert!(c.exactly_equals(&multiply_naive(&a, &b)));
    }

    #[test]
    fn bfs_restriction() {
        let g = build_cdag(&classical2(), 1);
        // Restricted to a single vertex, BFS reaches exactly that vertex.
        let v = g.inputs().next().unwrap();
        assert_eq!(undirected_bfs(&g, v, |w| w == v), vec![v]);
        // Not allowed at all: empty.
        assert!(undirected_bfs(&g, v, |_| false).is_empty());
    }
}
