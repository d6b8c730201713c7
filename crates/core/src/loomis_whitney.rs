//! The Loomis–Whitney segment argument (Irony–Toledo–Tiskin \[12\],
//! generalized in \[5\]) — the classical-algorithm technique the paper's
//! Section 2 contrasts with, made executable.
//!
//! For the classical algorithm, the products computed in a segment form a
//! set of lattice points `(i, j, k)`; the discrete Loomis–Whitney
//! inequality bounds their number by `√(|π_A|·|π_B|·|π_C|)` where the `π`s
//! are the three axis projections (the `A`, `B`, `C` entries touched). A
//! segment with ≤ `2M` available entries per matrix therefore computes at
//! most `2√2·M^{3/2}` products, giving `IO ≥ n³/(2√2·√M) − M`.
//!
//! Crucially, the argument needs every product to be an honest monomial
//! `a_{ik}·b_{kj}` — it has no purchase on Strassen-like algorithms whose
//! products are *linear combinations* (cancellation breaks the projection
//! counting). That failure is why dominator/LW techniques stop at
//! `ω₀ = 3` and the paper's routing technique exists.

use mmio_cdag::{Cdag, Layer, VertexId};
use std::collections::HashSet;

/// The three projection sizes of a set of classical products, plus the
/// Loomis–Whitney bound check.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LwCheck {
    /// Number of products in the set.
    pub products: usize,
    /// Distinct `(i,k)` pairs touched (entries of `A`).
    pub proj_a: usize,
    /// Distinct `(k,j)` pairs touched (entries of `B`).
    pub proj_b: usize,
    /// Distinct `(i,j)` pairs touched (entries of `C`).
    pub proj_c: usize,
}

impl LwCheck {
    /// The discrete Loomis–Whitney inequality:
    /// `products² ≤ proj_a · proj_b · proj_c`.
    pub fn holds(&self) -> bool {
        (self.products * self.products) as u128
            <= self.proj_a as u128 * self.proj_b as u128 * self.proj_c as u128
    }
}

/// Computes the projections of a set of product vertices of a *classical*
/// CDAG. Each classical product has a unique `(i, j, k)`; we recover it
/// from the product's two operand chains down to input entries.
///
/// # Panics
/// Panics if some product's operands are not single input entries (i.e.
/// the CDAG is not classical — exactly the case LW cannot handle).
pub fn projections(g: &Cdag, products: &[VertexId]) -> LwCheck {
    let mut pa: HashSet<(usize, usize)> = HashSet::new();
    let mut pb: HashSet<(usize, usize)> = HashSet::new();
    let mut pc: HashSet<(usize, usize)> = HashSet::new();
    for &p in products {
        let vr = g.vref(p);
        assert!(
            vr.layer == Layer::Dec && vr.level == 0,
            "projections expects product vertices"
        );
        // Walk each operand down its (copy) chain to the input entry.
        let mut entries = [None::<(Layer, u64, u64)>; 2];
        for (slot, &op) in g.preds(p).iter().enumerate() {
            let mut cur = op;
            loop {
                let preds = g.preds(cur);
                assert_eq!(
                    preds.len(),
                    1,
                    "classical operands are bare copies of inputs"
                );
                cur = preds[0];
                if g.is_input(cur) {
                    break;
                }
            }
            let cr = g.vref(cur);
            let (row, col) = crate::deps::unpack_entry(cr.entry, g.base().n0(), g.r());
            entries[slot] = Some((cr.layer, row, col));
        }
        let (a_entry, b_entry) = match (entries[0], entries[1]) {
            (Some(a @ (Layer::EncA, ..)), Some(b @ (Layer::EncB, ..))) => (a, b),
            (Some(b @ (Layer::EncB, ..)), Some(a @ (Layer::EncA, ..))) => (a, b),
            _ => panic!("product must read one A entry and one B entry"),
        };
        let (i, k) = (a_entry.1 as usize, a_entry.2 as usize);
        let (k2, j) = (b_entry.1 as usize, b_entry.2 as usize);
        assert_eq!(k, k2, "classical product contracts matching k");
        pa.insert((i, k));
        pb.insert((k, j));
        pc.insert((i, j));
    }
    LwCheck {
        products: products.len(),
        proj_a: pa.len(),
        proj_b: pb.len(),
        proj_c: pc.len(),
    }
}

/// Verifies the LW inequality on every window of `window` consecutive
/// products of a compute order of a classical CDAG. Returns the number of
/// windows checked.
pub fn verify_on_order(g: &Cdag, order: &[VertexId], window: usize) -> usize {
    let products: Vec<VertexId> = order
        .iter()
        .copied()
        .filter(|&v| {
            let vr = g.vref(v);
            vr.layer == Layer::Dec && vr.level == 0
        })
        .collect();
    let mut checked = 0;
    for chunk in products.chunks(window) {
        let check = projections(g, chunk);
        assert!(check.holds(), "Loomis–Whitney violated: {check:?}");
        checked += 1;
    }
    checked
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmio_algos::classical::classical;
    use mmio_algos::strassen::strassen;
    use mmio_cdag::build::build_cdag;
    use mmio_pebble::orders::{rank_order, recursive_order};

    #[test]
    fn lw_holds_on_classical_orders() {
        let g = build_cdag(&classical(2), 3);
        for order in [recursive_order(&g), rank_order(&g)] {
            for window in [4usize, 16, 64] {
                assert!(verify_on_order(&g, &order, window) > 0);
            }
        }
    }

    #[test]
    fn full_product_set_is_tight() {
        // All n³ products: projections are n² each; n³·n³ ≤ n²·n²·n² —
        // equality: LW is tight for the full cube.
        let g = build_cdag(&classical(2), 2);
        let products: Vec<VertexId> = g.products().collect();
        let check = projections(&g, &products);
        assert_eq!(check.products, 64);
        assert_eq!((check.proj_a, check.proj_b, check.proj_c), (16, 16, 16));
        assert!(check.holds());
        assert_eq!(check.products * check.products, 16 * 16 * 16);
    }

    #[test]
    fn single_product_projections() {
        let g = build_cdag(&classical(2), 1);
        let p = g.products().next().unwrap();
        let check = projections(&g, &[p]);
        assert_eq!(
            check,
            LwCheck {
                products: 1,
                proj_a: 1,
                proj_b: 1,
                proj_c: 1
            }
        );
    }

    #[test]
    #[should_panic(expected = "bare copies of inputs")]
    fn lw_refuses_strassen() {
        // The technique has no purchase on linear-combination products —
        // the module enforces that honestly rather than reporting nonsense.
        let g = build_cdag(&strassen(), 1);
        let p = g.products().next().unwrap();
        let _ = projections(&g, &[p]);
    }
}
