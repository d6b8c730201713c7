//! A registry of every base graph in the library, for sweep-style tests,
//! experiments, and benches.

use crate::classical::classical;
use crate::laderman::laderman;
use crate::strassen::{strassen, winograd};
use crate::synthetic::{with_dummy_product, without_copying};
use mmio_cdag::BaseGraph;

/// Strassen ⊗ Strassen: the ⟨4,4,4;49⟩ tensor square — same ω₀ as Strassen,
/// a genuinely different (larger, denser) base graph.
pub fn strassen_squared() -> BaseGraph {
    strassen().tensor(&strassen())
}

/// Strassen ⊗ Winograd: a ⟨4,4,4;49⟩ hybrid.
pub fn strassen_winograd() -> BaseGraph {
    strassen().tensor(&winograd())
}

/// Every *fast* base graph (`ω₀ < 3`) in the library.
pub fn fast_base_graphs() -> Vec<BaseGraph> {
    vec![
        strassen(),
        winograd(),
        laderman(),
        strassen_squared(),
        strassen_winograd(),
        without_copying(&strassen()),
    ]
}

/// Every base graph in the library, fast or not, including the synthetic
/// structural variants.
pub fn all_base_graphs() -> Vec<BaseGraph> {
    let mut v = fast_base_graphs();
    v.push(classical(2));
    v.push(classical(3));
    v.push(with_dummy_product(&strassen()));
    v
}

/// Base graphs satisfying all of the main theorem's hypotheses (single-use
/// assumption and the Lemma 1 condition) — the ones the full lower-bound
/// pipeline runs on.
pub fn theorem1_base_graphs() -> Vec<BaseGraph> {
    all_base_graphs()
        .into_iter()
        .filter(|g| g.single_use_assumption_holds() && g.lemma1_condition_holds())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_graph_is_correct() {
        for g in all_base_graphs() {
            assert_eq!(g.verify_correctness(), Ok(()), "{}", g.name());
        }
    }

    #[test]
    fn fast_graphs_are_fast() {
        for g in fast_base_graphs() {
            assert!(g.is_fast(), "{} should have ω₀ < 3", g.name());
        }
    }

    #[test]
    fn tensor_square_parameters() {
        let g = strassen_squared();
        assert_eq!((g.n0(), g.a(), g.b()), (4, 16, 49));
        // Same exponent as Strassen.
        assert!((g.omega0() - 7f64.log2()).abs() < 1e-12);
    }

    #[test]
    fn theorem1_graphs_satisfy_hypotheses() {
        let graphs = theorem1_base_graphs();
        assert!(graphs.len() >= 5, "got {}", graphs.len());
        for g in &graphs {
            assert!(g.single_use_assumption_holds());
            assert!(g.lemma1_condition_holds());
        }
        // Classical is excluded: it has no nontrivial combinations.
        assert!(graphs.iter().all(|g| !g.name().starts_with("classical")));
    }

    #[test]
    fn names_are_unique() {
        let names: Vec<String> = all_base_graphs()
            .iter()
            .map(|g| g.name().to_string())
            .collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }
}
