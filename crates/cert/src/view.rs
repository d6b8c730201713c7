//! The verifier's closed-form model of `G_r` — a thin re-export of the
//! shared [`mmio_cdag::view`] module.
//!
//! The implementation originated here (PR 5) and was promoted into
//! `mmio-cdag` so the engines can be generic over the same audited
//! [`IndexView`]. The verifier's trust base is unchanged: `mmio-cdag` was
//! already trusted (for `hits` and `index`), `mmio-core`/`mmio-pebble`
//! still are not, and this module pins the exact surface the verifier
//! consumes. The adapters below bind the crate's untrusted [`BaseSpec`]
//! wire format to the shared constructors.

use crate::format::BaseSpec;
pub use mmio_cdag::view::{checked_pow, CdagView, IndexView, ViewError};
pub use mmio_cdag::VertexRef;

/// Builds the closed-form view of `G_r` from an untrusted certificate
/// [`BaseSpec`], validating shapes and the id space (never panics).
pub fn view_of(spec: &BaseSpec, r: u32) -> Result<IndexView, ViewError> {
    IndexView::new(spec.n0, &spec.enc_a, &spec.enc_b, &spec.dec, r)
}

/// Re-checks the matrix-multiplication tensor identity
/// `Σ_m dec[y][m]·enc_a[m][x]·enc_b[m][z] = T(x, z, y)` directly on the
/// embedded coefficients (shapes must already be consistent — build the
/// [`IndexView`] first). Returns the first violated triple.
pub fn check_tensor(spec: &BaseSpec) -> Result<(), String> {
    mmio_cdag::view::check_tensor(spec.n0, &spec.enc_a, &spec.enc_b, &spec.dec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmio_algos::strassen::strassen;
    use mmio_cdag::build::build_cdag;
    use mmio_cdag::BaseGraph;
    use mmio_matrix::Rational;

    fn spec_of(g: &BaseGraph) -> BaseSpec {
        BaseSpec::from_base(g)
    }

    /// The registry-scale equivalence suite lives in `mmio-cdag` (unit
    /// tests) and `mmio-integration` (property tests); this spot-check
    /// pins the BaseSpec adapter itself against the builder.
    #[test]
    fn spec_adapter_matches_builder() {
        let g = strassen();
        for r in [1u32, 2, 3] {
            let view = view_of(&spec_of(&g), r).unwrap();
            let cdag = build_cdag(&g, r);
            assert_eq!(view.n_vertices() as usize, cdag.n_vertices());
            let mut preds = Vec::new();
            for v in cdag.vertices() {
                preds.clear();
                assert!(view.preds_into(v.0, &mut preds));
                let want: Vec<u32> = cdag.preds(v).iter().map(|p| p.0).collect();
                assert_eq!(preds, want, "preds of {} at r={r}", v.0);
            }
        }
    }

    /// The enumeration definition of `is_edge`, kept as its oracle: `(u, v)`
    /// is an edge iff one is among the predecessors `preds_into` lists for
    /// the other.
    fn is_edge_by_enumeration(view: &IndexView, u: u32, v: u32) -> bool {
        let listed = |c: u32, p: u32| {
            let mut preds = Vec::new();
            view.preds_into(c, &mut preds) && preds.contains(&p)
        };
        listed(v, u) || listed(u, v)
    }

    /// The direct `is_edge` against its enumeration oracle on every
    /// registry base at depths 1..=3. Every ordered pair of ids is compared
    /// where `G_k` has at most 400 vertices, and every ordered pair of
    /// decoded addresses (`is_edge_vref`, the oracle's predecessor lists
    /// memoized) where it has at most 3200: every `a = 4` base through
    /// `G_3`, the `a = 9` bases through `G_2`. Larger graphs compare
    /// vertices against their predecessors and the ids next to them (±1,
    /// ±a, ±b), the near misses a wrong digit would hit: 20k evenly spaced
    /// vertices of each (the `a = 9` and `a = 16` bases' `G_3`; all of the
    /// `a = 16` bases' `G_2`). Out-of-range ids and addresses, the latter
    /// made by shifting both ends of real edges, are on no edge.
    #[test]
    fn is_edge_matches_enumeration_on_registry() {
        for g in mmio_algos::registry::all_base_graphs() {
            let (a, b) = (g.a() as u32, g.b() as u32);
            for k in 1..=3u32 {
                let view = view_of(&spec_of(&g), k).unwrap();
                let n = view.n_vertices();
                let check = |u: u32, v: u32| {
                    let want = is_edge_by_enumeration(&view, u, v);
                    assert_eq!(view.is_edge(u, v), want, "{} G_{k}: ({u}, {v})", g.name());
                };
                if n <= 400 {
                    for u in 0..n {
                        for v in 0..n {
                            check(u, v);
                        }
                    }
                } else if n <= 3200 {
                    let preds: Vec<Vec<u32>> = (0..n)
                        .map(|v| {
                            let mut ps = Vec::new();
                            assert!(view.preds_into(v, &mut ps));
                            ps
                        })
                        .collect();
                    let refs: Vec<VertexRef> = (0..n).map(|v| view.vref(v).unwrap()).collect();
                    for (u, &ru) in refs.iter().enumerate() {
                        for (v, &rv) in refs.iter().enumerate() {
                            let want =
                                preds[v].contains(&(u as u32)) || preds[u].contains(&(v as u32));
                            assert_eq!(view.is_edge_vref(ru, rv), want, "{} G_{k}", g.name());
                        }
                    }
                } else {
                    let mut preds = Vec::new();
                    for u in (0..n).step_by(n.div_ceil(20_000) as usize) {
                        preds.clear();
                        assert!(view.preds_into(u, &mut preds));
                        for &x in &preds {
                            for d in [0, 1, a, b] {
                                for v in [x.wrapping_add(d), x.wrapping_sub(d)] {
                                    check(u, v);
                                    check(v, u);
                                }
                            }
                        }
                    }
                }
                // Out-of-range ids are never edges.
                for u in [0, n - 1, n, u32::MAX] {
                    check(u, n);
                    check(n, u);
                }
                // Out-of-range addresses are never on an edge, also when
                // both ends of a real edge are pushed out of range by
                // shifts that keep their digits related.
                let (ar, br) = (u64::from(a).pow(k), u64::from(b).pow(k));
                // (mul added, entry added, level set): saturating, so the
                // last one moves both digits to u64::MAX.
                let shifts = [
                    (0, 0, None),
                    (br / 2, 0, None),
                    (br, 0, None),
                    (br * br, 0, None),
                    (0, ar, None),
                    (0, ar * ar, None),
                    (0, 0, Some(k + 1)),
                    (u64::MAX, u64::MAX, None),
                ];
                let shift = |v: VertexRef, (dm, de, level): (u64, u64, Option<u32>)| VertexRef {
                    level: level.unwrap_or(v.level),
                    mul: v.mul.saturating_add(dm),
                    entry: v.entry.saturating_add(de),
                    ..v
                };
                let mut preds = Vec::new();
                for c in (0..n).step_by(n.div_ceil(500) as usize) {
                    preds.clear();
                    assert!(view.preds_into(c, &mut preds));
                    for &p in &preds {
                        let (rp, rc) = (view.vref(p).unwrap(), view.vref(c).unwrap());
                        for sp in shifts {
                            for sc in shifts {
                                let (xp, xc) = (shift(rp, sp), shift(rc, sc));
                                let want = match (view.id(xp), view.id(xc)) {
                                    (Some(u), Some(v)) => is_edge_by_enumeration(&view, u, v),
                                    _ => false,
                                };
                                let why = format!("{} G_{k}: {xp:?} {xc:?}", g.name());
                                assert_eq!(view.is_edge_vref(xp, xc), want, "{why}");
                                assert_eq!(view.is_edge_vref(xc, xp), want, "{why}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn tensor_check_accepts_real_and_rejects_corrupt() {
        let g = strassen();
        let mut spec = spec_of(&g);
        assert!(check_tensor(&spec).is_ok());
        let flipped = if spec.dec[(0, 0)].is_zero() {
            Rational::ONE
        } else {
            Rational::ZERO
        };
        spec.dec[(0, 0)] = flipped;
        assert!(check_tensor(&spec).is_err());
    }

    #[test]
    fn bad_specs_rejected() {
        let g = strassen();
        assert!(view_of(&spec_of(&g), 0).is_err());
        let mut bad = spec_of(&g);
        bad.n0 = 3; // enc shapes no longer match n0²
        assert!(view_of(&bad, 2).is_err());
    }
}
