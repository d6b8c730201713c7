//! Guaranteed dependencies (Section 7).
//!
//! For `v ∈ In` and `w ∈ Out` of `G_k`, the pair `(v, w)` is a *guaranteed
//! dependence* if every correct matrix multiplication algorithm must contain
//! a chain from `v` to `w`: for `v = a_{ij}` and `w = c_{i'j'}` exactly when
//! `i = i'`; for `v = b_{ij}` exactly when `j = j'`. At recursion depth `k`
//! indices are digit vectors and the conditions hold digitwise.

use mmio_cdag::index;
#[cfg(test)]
use mmio_cdag::{Cdag, Layer, VertexId, VertexRef};

/// Which input matrix a dependence starts from.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DepSide {
    /// `(a_{ij}, c_{ij'})`.
    A,
    /// `(b_{ij}, c_{i'j})`.
    B,
}

/// A guaranteed dependence in `G_k`, in digit form: each index is a packed
/// base-`n₀` digit vector of length `k`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Dependence {
    /// Side of the input.
    pub side: DepSide,
    /// Row digits of the input entry.
    pub in_row: u64,
    /// Column digits of the input entry.
    pub in_col: u64,
    /// Row digits of the output entry.
    pub out_row: u64,
    /// Column digits of the output entry.
    pub out_col: u64,
}

impl Dependence {
    /// Creates an A-side dependence `(a_{ij}, c_{ij'})`.
    pub fn a_side(i: u64, j: u64, j2: u64) -> Dependence {
        Dependence {
            side: DepSide::A,
            in_row: i,
            in_col: j,
            out_row: i,
            out_col: j2,
        }
    }

    /// Creates a B-side dependence `(b_{ij}, c_{i'j})`.
    pub fn b_side(i: u64, j: u64, i2: u64) -> Dependence {
        Dependence {
            side: DepSide::B,
            in_row: i,
            in_col: j,
            out_row: i2,
            out_col: j,
        }
    }

    /// The guaranteed-dependence condition: rows match (A side) or columns
    /// match (B side).
    pub fn is_guaranteed(&self) -> bool {
        match self.side {
            DepSide::A => self.in_row == self.out_row,
            DepSide::B => self.in_col == self.out_col,
        }
    }
}

/// Packs per-level `(row, col)` digit pairs into the single `[a]`-digit
/// entry index used by `mmio-cdag` (entry digit = `row·n₀ + col`).
#[cfg(test)]
pub fn pack_entry(row: u64, col: u64, n0: usize, k: u32) -> u64 {
    let rd = index::unpack(row, n0, k as usize);
    let cd = index::unpack(col, n0, k as usize);
    let digits: Vec<usize> = rd.iter().zip(&cd).map(|(&r, &c)| r * n0 + c).collect();
    index::pack(&digits, n0 * n0)
}

/// Splits a packed `[a]`-digit entry index into packed row and column digit
/// vectors.
pub fn unpack_entry(entry: u64, n0: usize, k: u32) -> (u64, u64) {
    let digits = index::unpack(entry, n0 * n0, k as usize);
    let rows: Vec<usize> = digits.iter().map(|&d| d / n0).collect();
    let cols: Vec<usize> = digits.iter().map(|&d| d % n0).collect();
    (index::pack(&rows, n0), index::pack(&cols, n0))
}

/// The input vertex of `g` corresponding to a dependence's input entry.
#[cfg(test)]
pub fn input_vertex(g: &Cdag, dep: &Dependence) -> VertexId {
    let n0 = g.base().n0();
    let layer = match dep.side {
        DepSide::A => Layer::EncA,
        DepSide::B => Layer::EncB,
    };
    g.id(VertexRef {
        layer,
        level: 0,
        mul: 0,
        entry: pack_entry(dep.in_row, dep.in_col, n0, g.r()),
    })
}

/// The output vertex of `g` corresponding to a dependence's output entry.
#[cfg(test)]
pub fn output_vertex(g: &Cdag, dep: &Dependence) -> VertexId {
    let n0 = g.base().n0();
    g.id(VertexRef {
        layer: Layer::Dec,
        level: g.r(),
        mul: 0,
        entry: pack_entry(dep.out_row, dep.out_col, n0, g.r()),
    })
}

/// Enumerates the full set `F` of guaranteed dependencies of `G_k`
/// (`2·n₀^{3k}` of them).
pub fn all_dependencies(n0: usize, k: u32) -> Vec<Dependence> {
    let nk = index::pow(n0, k);
    let mut out = Vec::with_capacity(2 * (nk * nk * nk) as usize);
    for i in 0..nk {
        for j in 0..nk {
            for l in 0..nk {
                out.push(Dependence::a_side(i, j, l));
                out.push(Dependence::b_side(i, j, l));
            }
        }
    }
    out
}

/// Checks a dependence against the CDAG: directed reachability from the
/// input vertex to the output vertex. Ground truth for the "guaranteed"
/// definition (correct algorithms must realize every guaranteed dependence).
#[cfg(test)]
pub fn dependence_realized(g: &Cdag, dep: &Dependence) -> bool {
    let src = input_vertex(g, dep);
    let dst = output_vertex(g, dep);
    // Forward BFS along directed edges.
    let mut visited = vec![false; g.n_vertices()];
    let mut queue = std::collections::VecDeque::new();
    visited[src.idx()] = true;
    queue.push_back(src);
    while let Some(v) = queue.pop_front() {
        if v == dst {
            return true;
        }
        for &s in g.succs(v) {
            if !visited[s.idx()] {
                visited[s.idx()] = true;
                queue.push_back(s);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmio_algos::strassen::strassen;
    use mmio_cdag::build::build_cdag;

    #[test]
    fn entry_pack_roundtrip() {
        let (n0, k) = (2usize, 3u32);
        let nk = index::pow(n0, k);
        for row in 0..nk {
            for col in 0..nk {
                let e = pack_entry(row, col, n0, k);
                assert_eq!(unpack_entry(e, n0, k), (row, col));
            }
        }
    }

    #[test]
    fn dependence_counts() {
        assert_eq!(all_dependencies(2, 1).len(), 2 * 8);
        assert_eq!(all_dependencies(2, 2).len(), 2 * 64);
        assert_eq!(all_dependencies(3, 1).len(), 2 * 27);
    }

    #[test]
    fn guaranteed_predicate() {
        assert!(Dependence::a_side(3, 1, 2).is_guaranteed());
        assert!(Dependence::b_side(0, 2, 3).is_guaranteed());
        let broken = Dependence {
            side: DepSide::A,
            in_row: 1,
            in_col: 0,
            out_row: 2,
            out_col: 0,
        };
        assert!(!broken.is_guaranteed());
    }

    #[test]
    fn all_guaranteed_dependencies_are_realized_in_strassen() {
        for k in 1..=2u32 {
            let g = build_cdag(&strassen(), k);
            for dep in all_dependencies(2, k) {
                assert!(
                    dependence_realized(&g, &dep),
                    "dep {dep:?} not realized at k={k}"
                );
            }
        }
    }

    #[test]
    fn non_guaranteed_pairs_exist_and_some_are_unrealized() {
        // In Strassen at k=1, a11 reaches ALL outputs (cancellation paths),
        // but the definition of guaranteed only promises row matches. We
        // check realization is a superset of guarantee — and that the
        // realized relation is not trivially empty.
        let g = build_cdag(&strassen(), 1);
        let realized_count = all_dependencies(2, 1)
            .iter()
            .filter(|d| dependence_realized(&g, d))
            .count();
        assert_eq!(realized_count, 16, "all guaranteed deps realized");
    }

    #[test]
    fn input_output_vertices_land_on_correct_ranks() {
        let g = build_cdag(&strassen(), 2);
        let dep = Dependence::a_side(2, 1, 3);
        assert!(g.is_input(input_vertex(&g, &dep)));
        assert!(g.is_output(output_vertex(&g, &dep)));
        // Input row/col digits must match the matrix-position accessor.
        let v = input_vertex(&g, &dep);
        assert_eq!(v, g.input_a(2, 1));
        let w = output_vertex(&g, &dep);
        assert_eq!(w, g.output(2, 3));
    }
}
