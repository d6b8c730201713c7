//! F1–F9 — structural regeneration of the paper's figures. Each figure is
//! rebuilt programmatically, its structure asserted, and (where graphical)
//! emitted as DOT under `results/figures/`.
//!
//! - **Figure 1**: Strassen's base graph `G₁` (8 inputs, 7+7 combinations,
//!   7 products, 4 outputs).
//! - **Figure 2**: a meta-vertex with multiple copying (classical 2×2's
//!   inputs).
//! - **Figure 3**: a zag path through an encoding/decoding component where
//!   a direct edge is missing.
//! - **Figures 4–5**: a boundary-crossing path of a segment routing.
//! - **Figure 6**: the guaranteed-dependence sequence
//!   `a_{ij} → c_{ij'} → b_{jj'} → c_{i'j'}`.
//! - **Figure 7**: the recursive construction `G'_k` from `b` copies of
//!   `G'_{k-1}` (vertex-count identity).
//! - **Figure 8**: the `H`-neighbourhood of the dependence `(a₁₂, c₁₁)`.
//! - **Figure 9**: `G₁°` for `i = 2` and a 3-element `D₂` (product count
//!   vs correct-coefficient count).

use mmio_algos::classical::classical;
use mmio_algos::strassen::strassen;
use mmio_cdag::base::Side;
use mmio_cdag::build::build_cdag;
use mmio_cdag::dot::{to_dot, DotOptions};
use mmio_cdag::{Layer, MetaVertices};
use mmio_core::boundary::{is_boundary_crossing, mask_of};
use mmio_core::claim1::DecodingRouting;
use mmio_core::deps::DepSide;
use mmio_core::hall::{BaseDep, MatchingGraph};
use mmio_core::lemma4::dependence_sequence;
use mmio_core::lemma56::correct_coefficients;
use mmio_core::theorem2::InOutRouting;
use std::fs;

fn save(name: &str, dot: &str) {
    let dir = mmio_bench::results_dir().join("figures");
    let _ = fs::create_dir_all(&dir);
    let _ = fs::write(dir.join(name), dot);
}

fn main() {
    // Figure 1.
    let s = strassen();
    mmio_bench::preflight(&s);
    let g1 = build_cdag(&s, 1);
    assert_eq!(g1.inputs().count(), 8);
    assert_eq!(g1.products().count(), 7);
    assert_eq!(g1.outputs().count(), 4);
    assert_eq!(
        g1.segment(Layer::EncA, 1).count() + g1.segment(Layer::EncB, 1).count(),
        14
    );
    save(
        "figure1_strassen_g1.dot",
        &to_dot(&g1, &DotOptions::default()),
    );
    println!("F1  Strassen G₁: 8 inputs + 14 combinations + 7 products + 4 outputs ✓ (dot saved)");

    // Figure 2.
    let gc = build_cdag(&classical(2), 1);
    let meta = MetaVertices::compute(&gc);
    let input = gc.input_a(0, 0);
    assert_eq!(meta.size_of(input), 3);
    assert!(meta.has_multiple_copying(&gc));
    let members = meta.members(input);
    save(
        "figure2_meta_vertex.dot",
        &to_dot(
            &gc,
            &DotOptions {
                highlight: members.to_vec(),
                ..DotOptions::default()
            },
        ),
    );
    println!(
        "F2  meta-vertex of a₀₀ in classical 2×2: root + {} copies, branching ✓",
        members.len() - 1
    );

    // Figure 3: a zag path — some (product, output) pair in Strassen's D₁
    // has no direct edge, so Claim 1's path has length > 2.
    let routing = DecodingRouting::new(&g1).unwrap();
    let mut longest = Vec::new();
    for m in 0..7u64 {
        for y in 0..4u64 {
            let p = routing.path(m, y);
            if p.len() > longest.len() {
                longest = p;
            }
        }
    }
    assert!(longest.len() > 2, "Strassen's D₁ is not complete bipartite");
    save(
        "figure3_zag_path.dot",
        &to_dot(
            &g1,
            &DotOptions {
                highlight: longest.clone(),
                ..DotOptions::default()
            },
        ),
    );
    println!(
        "F3  longest zag path in D₁ has {} vertices (> 2: direct edge missing) ✓",
        longest.len()
    );

    // Figures 4–5: a boundary-crossing path with respect to a half-set S.
    let g2 = build_cdag(&s, 2);
    let io_routing = InOutRouting::new(&g2).unwrap();
    let path = io_routing.path(DepSide::A, 0, 1, 3, 2);
    let half: Vec<_> = g2.vertices().take(g2.n_vertices() / 2).collect();
    let mask = mask_of(&g2, &half);
    assert!(is_boundary_crossing(&mask, &path));
    println!("F4/5 input→output path of G₂ crosses the boundary of a half-set S ✓");

    // Figure 6: the dependence sequence.
    let seq = dependence_sequence(DepSide::A, 0, 1, 1, 0);
    assert!(seq.iter().all(|d| d.is_guaranteed()));
    println!(
        "F6  a₀₁→c₀₀ ← b₁₀ → c₁₀: all three links guaranteed ✓ ({:?} → {:?} → {:?})",
        seq[0].side, seq[1].side, seq[2].side
    );

    // Figure 7: G'_k from b copies of G'_{k-1} — vertex-count identity
    // |enc_A(G_k)| = b·|enc_A(G_{k-1})| + a^{k-1}·(a) …: check the segment
    // recurrence b^t·a^{k-t}.
    for k in 1..=3u32 {
        let gk = build_cdag(&s, k);
        for t in 1..=k {
            let expect = 7u64.pow(t) * 4u64.pow(k - t);
            assert_eq!(gk.segment_len(Layer::EncA, t), expect);
        }
    }
    println!("F7  recursive segment sizes b^t·a^(k-t) verified for k ≤ 3 ✓");

    // Figure 8: H-neighbourhood of (a₁₂, c₁₁) (paper's 1-based indices →
    // our 0-based (0,1)→(0,0)): middle vertices on some chain.
    let h = MatchingGraph::new(&s, Side::A);
    let dep = BaseDep {
        shared: 0,
        in_other: 1,
        out_other: 0,
    };
    let nbhd = h.neighborhood(&[dep]);
    assert!(!nbhd.is_empty());
    println!("F8  N((a₁₂,c₁₁)) = products {nbhd:?} ✓");

    // Figure 9: G₁° for i=2 (our i=1) with |D₂| = 3: the kept products
    // compute at most as many correct coefficients as their count (Lemma 6
    // counting on the figure's own instance).
    let deps = [
        BaseDep {
            shared: 1,
            in_other: 0,
            out_other: 0,
        },
        BaseDep {
            shared: 1,
            in_other: 0,
            out_other: 1,
        },
        BaseDep {
            shared: 1,
            in_other: 1,
            out_other: 1,
        },
    ];
    let kept = h.neighborhood(&deps);
    let mask = kept.iter().fold(0u64, |acc, &y| acc | 1 << y);
    let correct = correct_coefficients(&s, 1, mask);
    assert!(correct <= kept.len());
    println!(
        "F9  G₁° (i=2, |D₂|=3): {} products kept, {correct} correct coefficients (≤) ✓",
        kept.len()
    );

    println!("\nAll nine figures regenerate; DOT files in results/figures/.");
}
