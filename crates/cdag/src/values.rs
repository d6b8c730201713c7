//! Value-equivalence classes: vertices holding the *same symbolic value*.
//!
//! Meta-vertices ([`crate::meta`]) group copies — syntactic equality. When
//! the single-use assumption is violated, two distinct nontrivial
//! combination vertices can compute the same linear combination without
//! either being a copy; the paper's Section 8 extension reasons about
//! exactly these *value classes* ("paths may jump to other vertices on the
//! same rank … that have the same membership in S"). This module computes
//! them exactly, by symbolic evaluation: every encoding vertex's value is
//! a linear functional over the `2a^r` inputs; products and decoding
//! vertices are polynomial and are grouped with their meta-vertex (copies)
//! only — correct algorithms cannot duplicate them (Lemma 2), and the
//! synthetic single-use violations the workspace studies duplicate
//! encodings and products, which we detect via identical operand classes.

use crate::graph::{Cdag, Layer, VertexId};
use crate::meta::MetaVertices;
use mmio_matrix::Rational;
use std::collections::HashMap;

/// Identifier of a value class: the smallest vertex id holding the value.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ClassId(pub u32);

/// The value-class partition of a CDAG.
pub struct ValueClasses {
    class: Vec<u32>,
    members: HashMap<u32, Vec<VertexId>>,
}

impl ValueClasses {
    /// Computes value classes by exact symbolic evaluation of encoding
    /// functionals (sparse, over the graph's inputs), product operand
    /// pairs, and decoding-side copies.
    ///
    /// Cost is `O(|V| · nnz(functional))`; intended for the analysis sizes
    /// (`k ≤ 4`), matching the rest of the lower-bound machinery.
    pub fn compute(g: &Cdag) -> ValueClasses {
        let n = g.n_vertices();
        let meta = MetaVertices::compute(g);
        // Canonical functional per encoding vertex: sorted sparse vector
        // over input ids.
        let mut functional: Vec<Option<Vec<(u32, Rational)>>> = vec![None; n];
        let mut key_to_class: HashMap<Vec<(u32, Rational)>, u32> = HashMap::new();
        let mut class: Vec<u32> = (0..n as u32).collect();

        for v in g.vertices() {
            let vr = g.vref(v);
            match vr.layer {
                Layer::EncA | Layer::EncB => {
                    let func = if g.is_input(v) {
                        vec![(v.0, Rational::ONE)]
                    } else {
                        let mut acc: HashMap<u32, Rational> = HashMap::new();
                        for (&p, &c) in g.preds(v).iter().zip(g.pred_coeffs(v)) {
                            let pf = functional[p.idx()]
                                .as_ref()
                                .expect("encoding preds precede in id order");
                            for &(input, coeff) in pf {
                                let e = acc.entry(input).or_insert(Rational::ZERO);
                                *e += c * coeff;
                            }
                        }
                        let mut func: Vec<(u32, Rational)> =
                            acc.into_iter().filter(|(_, c)| !c.is_zero()).collect();
                        func.sort_unstable_by_key(|&(i, _)| i);
                        func
                    };
                    let id = *key_to_class.entry(func.clone()).or_insert(v.0);
                    class[v.idx()] = id;
                    functional[v.idx()] = Some(func);
                }
                Layer::Dec => {
                    if vr.level == 0 {
                        // Product: value determined by its operand classes
                        // (unordered pair would be for commutative scalars;
                        // keep ordered — A-side × B-side).
                        let ps = g.preds(v);
                        debug_assert_eq!(ps.len(), 2);
                        let key = vec![
                            (class[ps[0].idx()], Rational::ONE),
                            (class[ps[1].idx()], Rational::ZERO),
                        ];
                        // Tag product keys distinctly from functionals by
                        // using the zero-coefficient sentinel on the second
                        // operand (functionals never carry zero coeffs).
                        let id = *key_to_class.entry(key).or_insert(v.0);
                        class[v.idx()] = id;
                    } else {
                        // Decoding vertices: group with their meta root
                        // (copies share the root's class; non-copies keep
                        // their own id, already assigned at declaration).
                        let root = meta.root_vertex(meta.meta_of(v));
                        class[v.idx()] = class[root.idx()];
                    }
                }
            }
        }

        let mut members: HashMap<u32, Vec<VertexId>> = HashMap::new();
        for v in g.vertices() {
            members.entry(class[v.idx()]).or_default().push(v);
        }
        ValueClasses { class, members }
    }

    /// The class of a vertex.
    pub fn class_of(&self, v: VertexId) -> ClassId {
        ClassId(self.class[v.idx()])
    }

    /// All members of `v`'s class (including `v`).
    pub fn members_of(&self, v: VertexId) -> &[VertexId] {
        &self.members[&self.class[v.idx()]]
    }

    /// Number of distinct classes.
    pub fn count(&self) -> usize {
        self.members.len()
    }

    /// Whether any class has more members than its meta-vertex would —
    /// i.e. the graph computes some value in two places that are *not*
    /// copies (a single-use violation's footprint).
    pub fn has_non_copy_duplicates(&self, g: &Cdag) -> bool {
        let meta = MetaVertices::compute(g);
        g.vertices()
            .any(|v| self.members_of(v).len() > meta.size_of(v))
    }

    /// Value classes adjacent to the class-closure of `set` but not in it —
    /// the generalized `δ'` of the paper's Section 8.
    pub fn class_boundary(&self, g: &Cdag, set: &[VertexId]) -> Vec<ClassId> {
        let mut in_set = vec![false; g.n_vertices()];
        for &v in set {
            for &w in self.members_of(v) {
                in_set[w.idx()] = true;
            }
        }
        let mut seen = std::collections::HashSet::new();
        for v in g.vertices() {
            if !in_set[v.idx()] {
                continue;
            }
            for &w in g.preds(v).iter().chain(g.succs(v)) {
                if !in_set[w.idx()] {
                    seen.insert(self.class_of(w));
                }
            }
        }
        let mut out: Vec<ClassId> = seen.into_iter().collect();
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_cdag;
    use crate::BaseGraph;
    use mmio_matrix::Matrix;

    fn r(x: i64) -> Rational {
        Rational::integer(x)
    }

    /// A 1×1 base graph with two products computing the *same* nontrivial
    /// combination (2a)·(3b), decoder averaging them: a single-use
    /// violation in miniature.
    fn duplicated() -> BaseGraph {
        BaseGraph::new(
            "dup11",
            1,
            Matrix::from_vec(2, 1, vec![r(2), r(2)]),
            Matrix::from_vec(2, 1, vec![r(3), r(3)]),
            Matrix::from_vec(1, 2, vec![Rational::new(1, 12), Rational::new(1, 12)]),
        )
    }

    #[test]
    fn duplicated_combinations_share_a_class() {
        let g = build_cdag(&duplicated(), 1);
        let vc = ValueClasses::compute(&g);
        // The two EncA level-1 vertices hold the same functional 2a.
        let vs: Vec<VertexId> = g.segment(Layer::EncA, 1).collect();
        assert_eq!(vc.class_of(vs[0]), vc.class_of(vs[1]));
        // And they are NOT copies of each other (nontrivial rows).
        assert!(vc.has_non_copy_duplicates(&g));
        // The two products also coincide in value.
        let ps: Vec<VertexId> = g.products().collect();
        assert_eq!(vc.class_of(ps[0]), vc.class_of(ps[1]));
    }

    #[test]
    fn strassen_has_no_non_copy_duplicates() {
        let g = build_cdag(&crate_test_strassen(), 2);
        let vc = ValueClasses::compute(&g);
        assert!(!vc.has_non_copy_duplicates(&g));
    }

    /// Strassen's coefficients inline (mmio-algos depends on this crate,
    /// so tests here rebuild the base graph directly).
    fn crate_test_strassen() -> BaseGraph {
        let rows_a: [[i64; 4]; 7] = [
            [1, 0, 0, 1],
            [0, 0, 1, 1],
            [1, 0, 0, 0],
            [0, 0, 0, 1],
            [1, 1, 0, 0],
            [-1, 0, 1, 0],
            [0, 1, 0, -1],
        ];
        let rows_b: [[i64; 4]; 7] = [
            [1, 0, 0, 1],
            [1, 0, 0, 0],
            [0, 1, 0, -1],
            [-1, 0, 1, 0],
            [0, 0, 0, 1],
            [1, 1, 0, 0],
            [0, 0, 1, 1],
        ];
        let dec: [[i64; 7]; 4] = [
            [1, 0, 0, 1, -1, 0, 1],
            [0, 0, 1, 0, 1, 0, 0],
            [0, 1, 0, 1, 0, 0, 0],
            [1, -1, 1, 0, 0, 1, 0],
        ];
        BaseGraph::new(
            "strassen",
            2,
            Matrix::from_fn(7, 4, |m, x| r(rows_a[m][x])),
            Matrix::from_fn(7, 4, |m, x| r(rows_b[m][x])),
            Matrix::from_fn(4, 7, |y, m| r(dec[y][m])),
        )
    }

    #[test]
    fn classes_refine_into_metas() {
        // Every meta-vertex is contained in one value class (copies hold
        // equal values), so #classes ≤ #metas.
        let g = build_cdag(&crate_test_strassen(), 2);
        let vc = ValueClasses::compute(&g);
        let meta = MetaVertices::compute(&g);
        for v in g.vertices() {
            for &w in meta.members(v) {
                assert_eq!(vc.class_of(w), vc.class_of(v));
            }
        }
        assert!(vc.count() <= meta.count(&g));
    }

    #[test]
    fn class_boundary_of_everything_is_empty() {
        let g = build_cdag(&duplicated(), 1);
        let vc = ValueClasses::compute(&g);
        let all: Vec<VertexId> = g.vertices().collect();
        assert!(vc.class_boundary(&g, &all).is_empty());
    }
}
