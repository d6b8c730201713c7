//! Property tests for the Fact-1 lift — the foundation the memoized
//! routing-transport engine stands on: a routing constructed once on a
//! standalone `G_k` is only valid inside every copy of `G_k` in `G_r` if
//! `CdagView::lift_from` is inverted by `try_vref` (strip the prefix
//! digits), lands on the middle `2(k+1)` levels, and keeps copies disjoint.
//! That the copy preserves edges and coefficients is checked in
//! `mmio-cdag`'s own tests (`iso::verify_embedding`).

use mmio_algos::laderman::laderman;
use mmio_algos::strassen::{strassen, winograd};
use mmio_cdag::build::build_cdag;
use mmio_cdag::{index, CdagView, Layer, VertexId, VertexRef};
use proptest::prelude::*;

proptest! {
    #[test]
    fn fact1_iso_roundtrips(
        algo in 0usize..3,
        r_raw in 1u32..4,
        k_raw in 0u32..4,
        prefix_raw in 0u64..1_000_000,
        vseed in 0usize..1_000_000,
    ) {
        let base = match algo {
            0 => strassen(),
            1 => winograd(),
            _ => laderman(), // n₀=3: exercises non-power-of-two digits
        };
        // laderman's G_3 is large; cap its depth to keep the sweep quick.
        let r = if algo == 2 { r_raw.min(2) } else { r_raw };
        let k = k_raw % (r + 1);
        let g = build_cdag(&base, r);
        let gk = build_cdag(&base, k);
        let count = index::pow(base.b(), r - k);
        let prefix = prefix_raw % count;
        let map: Vec<VertexId> = gk
            .vertices()
            .map(|lv| g.lift_from(&gk, prefix, lv).expect("every G_k vertex lifts"))
            .collect();

        // Round-trip every local vertex: encoding layers of both sides
        // (including the meta-vertex copy-chain levels above rank r-k) and
        // the decoding layer.
        for lv in gk.vertices() {
            let lref = gk.vref(lv);
            let vr = g.try_vref(map[lv.idx()]).expect("image in range");
            prop_assert_eq!(vr.layer, lref.layer);
            // The image sits on the middle 2(k+1) levels of G_r.
            let mul_len = match vr.layer {
                Layer::EncA | Layer::EncB => {
                    prop_assert_eq!(vr.level, r - k + lref.level);
                    lref.level
                }
                Layer::Dec => {
                    prop_assert_eq!(vr.level, lref.level);
                    k - lref.level
                }
            };
            // Stripping the prefix digits recovers the local address.
            let width = index::pow(base.b(), mul_len);
            prop_assert_eq!(vr.mul / width, prefix);
            let local = VertexRef { level: lref.level, mul: vr.mul % width, ..vr };
            prop_assert_eq!(gk.try_id(local), Some(lv));
        }

        // Copies are disjoint: another prefix lifts a sampled vertex
        // outside this copy.
        if count > 1 {
            let lv = VertexId((vseed % gk.n_vertices()) as u32);
            let other = g.lift_from(&gk, (prefix + 1) % count, lv).expect("in range");
            prop_assert!(!map.contains(&other));
        }
    }
}
