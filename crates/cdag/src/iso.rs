//! Structural isomorphism checking between CDAGs under an explicit vertex
//! map.
//!
//! Fact 1 claims each subcomputation `G_k^i` of `G_r` *is* a copy of `G_k`;
//! [`crate::CdagView::lift_from`] provides the map, and this module provides the
//! verification that the map really is an isomorphism (bijective on the
//! claimed vertex sets, edge-preserving in both directions, and
//! coefficient-preserving). Tests use it to validate the index arithmetic
//! exhaustively instead of trusting it.

use crate::graph::{Cdag, VertexId};
use std::collections::HashMap;

/// The ways a claimed isomorphism can fail.
#[derive(Clone, Debug, PartialEq)]
pub enum IsoError {
    /// The map is not injective: two sources share an image.
    NotInjective(VertexId, VertexId),
    /// An edge of the source has no corresponding edge in the target.
    MissingEdge { from: VertexId, to: VertexId },
    /// The image has an internal edge the source lacks (the map's image is
    /// not an induced subgraph copy).
    ExtraEdge { from: VertexId, to: VertexId },
    /// Edge coefficients differ.
    CoefficientMismatch { from: VertexId, to: VertexId },
}

/// Verifies that `map` (indexed by source dense id) embeds `src` into `dst`
/// as an induced, coefficient-preserving sub-DAG.
pub fn verify_embedding(src: &Cdag, dst: &Cdag, map: &[VertexId]) -> Result<(), IsoError> {
    assert_eq!(map.len(), src.n_vertices(), "map must cover the source");
    // Injectivity + inverse map.
    let mut inverse: HashMap<VertexId, VertexId> = HashMap::with_capacity(map.len());
    for (i, &img) in map.iter().enumerate() {
        let v = VertexId(i as u32);
        if let Some(&prev) = inverse.get(&img) {
            return Err(IsoError::NotInjective(prev, v));
        }
        inverse.insert(img, v);
    }
    for v in src.vertices() {
        let img = map[v.idx()];
        // Every source edge must map to a target edge with equal coefficient.
        for (ei, &p) in src.preds(v).iter().enumerate() {
            let img_p = map[p.idx()];
            let Some(pos) = dst.preds(img).iter().position(|&q| q == img_p) else {
                return Err(IsoError::MissingEdge { from: p, to: v });
            };
            if dst.pred_coeffs(img)[pos] != src.pred_coeffs(v)[ei] {
                return Err(IsoError::CoefficientMismatch { from: p, to: v });
            }
        }
        // Induced: target edges between image vertices must exist in source.
        for &q in dst.preds(img) {
            if let Some(&p) = inverse.get(&q) {
                if !src.preds(v).contains(&p) {
                    return Err(IsoError::ExtraEdge { from: p, to: v });
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_cdag;
    use crate::fixtures::classical2;
    use crate::view::CdagView;

    /// Every Fact-1 lift is an induced, edge- and coefficient-preserving
    /// embedding of `G_k` into `G_r`, at every depth `k ≤ r`.
    #[test]
    fn fact1_maps_are_embeddings() {
        let base = classical2();
        let g = build_cdag(&base, 3);
        for k in 0..=3 {
            let gk = build_cdag(&base, k);
            for prefix in 0..crate::index::pow(base.b(), 3 - k) {
                let map: Vec<VertexId> = gk
                    .vertices()
                    .map(|lv| g.lift_from(&gk, prefix, lv).expect("lift in range"))
                    .collect();
                verify_embedding(&gk, &g, &map).expect("Fact 1 isomorphism");
            }
        }
    }

    #[test]
    fn identity_is_an_embedding() {
        let g = build_cdag(&classical2(), 2);
        let map: Vec<VertexId> = g.vertices().collect();
        assert_eq!(verify_embedding(&g, &g, &map), Ok(()));
    }

    #[test]
    fn broken_maps_are_caught() {
        let g = build_cdag(&classical2(), 1);
        // Swap two vertices of different roles: must fail.
        let mut map: Vec<VertexId> = g.vertices().collect();
        let input = g.inputs().next().unwrap();
        let output = g.outputs().next().unwrap();
        map.swap(input.idx(), output.idx());
        assert!(verify_embedding(&g, &g, &map).is_err());
        // Non-injective map: two vertices to one image.
        let mut dup: Vec<VertexId> = g.vertices().collect();
        dup[1] = dup[0];
        assert!(matches!(
            verify_embedding(&g, &g, &dup),
            Err(IsoError::NotInjective(_, _))
        ));
    }
}
