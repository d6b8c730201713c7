//! Definition 1: `R(S)`, `W(S)`, `δ(S)` on vertices, and boundary-crossing
//! path counting.
//!
//! For a set `S` of consecutively-computed vertices, `R(S)` are values that
//! must be read into cache (predecessors outside `S`) and `W(S)` values
//! that must survive `S` (members with successors outside `S`); the paper's
//! segment argument lower-bounds `|δ(S)| = |R(S)| + |W(S)|` via routings.
//! The meta-vertex analogue `δ'(S')` lives in
//! [`mmio_cdag::MetaVertices::meta_boundary`].

use mmio_cdag::{Cdag, VertexId};

/// `R(S)`: vertices outside `S` with an edge into `S`.
#[cfg(test)]
pub fn read_set(g: &Cdag, in_set: &[bool]) -> Vec<VertexId> {
    let mut out = Vec::new();
    let mut seen = vec![false; g.n_vertices()];
    for v in g.vertices() {
        if !in_set[v.idx()] {
            continue;
        }
        for &p in g.preds(v) {
            if !in_set[p.idx()] && !seen[p.idx()] {
                seen[p.idx()] = true;
                out.push(p);
            }
        }
    }
    out
}

/// `W(S)`: vertices inside `S` with an edge out of `S`.
#[cfg(test)]
pub fn write_set(g: &Cdag, in_set: &[bool]) -> Vec<VertexId> {
    g.vertices()
        .filter(|&v| in_set[v.idx()] && g.succs(v).iter().any(|&s| !in_set[s.idx()]))
        .collect()
}

/// `|δ(S)| = |R(S)| + |W(S)|` (the two sets are disjoint by definition).
#[cfg(test)]
pub fn boundary_size(g: &Cdag, in_set: &[bool]) -> usize {
    read_set(g, in_set).len() + write_set(g, in_set).len()
}

/// Whether `path` is boundary-crossing with respect to `S` (Definition 3):
/// contains at least one vertex in `S` and one outside.
pub fn is_boundary_crossing(in_set: &[bool], path: &[VertexId]) -> bool {
    let mut inside = false;
    let mut outside = false;
    for &v in path {
        if in_set[v.idx()] {
            inside = true;
        } else {
            outside = true;
        }
        if inside && outside {
            return true;
        }
    }
    false
}

/// Builds a membership mask from a vertex list.
pub fn mask_of(g: &Cdag, set: &[VertexId]) -> Vec<bool> {
    let mut mask = vec![false; g.n_vertices()];
    for &v in set {
        mask[v.idx()] = true;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmio_algos::strassen::strassen;
    use mmio_cdag::build::build_cdag;

    #[test]
    fn boundary_of_single_product() {
        let g = build_cdag(&strassen(), 1);
        let p = g.products().next().unwrap();
        let mask = mask_of(&g, &[p]);
        let r = read_set(&g, &mask);
        let w = write_set(&g, &mask);
        assert_eq!(r.len(), 2, "a product reads two combinations");
        assert_eq!(w.len(), 1, "the product itself feeds outputs");
        assert_eq!(w[0], p);
        assert_eq!(boundary_size(&g, &mask), 3);
    }

    #[test]
    fn boundary_of_everything_is_empty() {
        let g = build_cdag(&strassen(), 1);
        let mask = vec![true; g.n_vertices()];
        assert_eq!(boundary_size(&g, &mask), 0);
    }

    #[test]
    fn r_and_w_disjoint() {
        let g = build_cdag(&strassen(), 2);
        // S = first half of the vertices.
        let mask: Vec<bool> = (0..g.n_vertices())
            .map(|i| i < g.n_vertices() / 2)
            .collect();
        let r = read_set(&g, &mask);
        let w = write_set(&g, &mask);
        for v in &r {
            assert!(!w.contains(v));
        }
    }

    #[test]
    fn crossing_detection() {
        let g = build_cdag(&strassen(), 1);
        let input = g.inputs().next().unwrap();
        let combo = g.succs(input)[0];
        let mask = mask_of(&g, &[combo]);
        assert!(is_boundary_crossing(&mask, &[input, combo]));
        assert!(!is_boundary_crossing(&mask, &[combo]));
        assert!(!is_boundary_crossing(&mask, &[input]));
    }
}
