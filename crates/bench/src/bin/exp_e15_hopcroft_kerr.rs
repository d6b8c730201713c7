//! E15 — the Hopcroft–Kerr family (paper's reference \[11\]): rectangular
//! rank, square-ization, and the full routing pipeline on the resulting
//! ⟨12,12,12;1331⟩ base graph.

use mmio_algos::rect::{classical_rect, hopcroft_kerr_square, rect_2x2x3};
use mmio_bench::{write_record, Row};
use mmio_cdag::build::build_cdag;
use mmio_cdag::connectivity::classify;
use mmio_core::theorem1::LowerBound;
use mmio_core::theorem2::InOutRouting;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rows = Vec::new();
    println!("E15: the Hopcroft–Kerr family\n");

    // Pre-flight the square registry bases used below. The ⟨12,12,12;1331⟩
    // square itself is exempt: its single-use violations (MMIO-A007) are part
    // of what this experiment studies, and the O(b²) duplicate-row scan is
    // slow at b = 1331.
    mmio_bench::preflight(&mmio_algos::strassen::strassen());
    mmio_bench::preflight(&mmio_algos::laderman::laderman());

    // Rectangular ranks.
    let hk = rect_2x2x3();
    let cl = classical_rect(2, 2, 3);
    println!(
        "⟨2,2,3⟩: classical rank {}, direct-sum (Strassen ⊕ col) rank {} — the HK optimum",
        cl.b(),
        hk.b()
    );
    assert_eq!(hk.verify_correctness(), Ok(()));

    // The squarized fast algorithm.
    let sq = hopcroft_kerr_square();
    let props = classify(&sq);
    println!(
        "\nsquarized: ⟨{0},{0},{0};{1}⟩, ω₀ = {2:.4} (< log₂7 = {3:.4}? {4})",
        sq.n0(),
        sq.b(),
        props.omega0,
        7f64.log2(),
        props.omega0 < 7f64.log2()
    );
    println!(
        "structure: dec components {}, multiple copying {}, single-use {}",
        props.dec_components, props.multiple_copying, props.single_use_assumption
    );
    let mut rng = StdRng::seed_from_u64(15);
    assert!(mmio_algos::verify::verify_base_graph_randomized(
        &sq, 3, &mut rng
    ));
    println!("randomized correctness check: passed (3 exact-rational samples)");

    // Routing pipeline at k = 1.
    let g = build_cdag(&sq, 1);
    println!("\nG₁: {} vertices, {} edges", g.n_vertices(), g.n_edges());
    match InOutRouting::new(&g) {
        Some(routing) => {
            let stats = routing.verify();
            println!(
                "Routing Theorem: bound {} | max vertex {} | max meta {} → {}",
                routing.theorem2_bound(),
                stats.max_vertex_hits,
                stats.max_meta_hits,
                if stats.is_m_routing(routing.theorem2_bound()) {
                    "VERIFIED"
                } else {
                    "VIOLATED"
                }
            );
            rows.push(
                Row::new("hk12-routing")
                    .push("bound", routing.theorem2_bound() as f64)
                    .push("max_vertex", stats.max_vertex_hits as f64),
            );
        }
        None => println!("Routing Theorem: no Hall matching (hypotheses fail)"),
    }

    // Lower-bound formulas across the library's exponents.
    println!("\nΩ-formula comparison at n = 2^12, M = 2^10:");
    let n = 1u64 << 12;
    let m = 1u64 << 10;
    for base in [
        mmio_algos::strassen::strassen(),
        mmio_algos::laderman::laderman(),
        sq.clone(),
        mmio_algos::classical::classical(2),
    ] {
        let lb = LowerBound::new(&base);
        println!(
            "  {:<18} ω₀ = {:.4} → Ω = {:>14.3e}",
            base.name(),
            base.omega0(),
            lb.sequential_io(n, m)
        );
    }
    println!("\nLower exponent ⇒ asymptotically less required I/O: the ordering");
    println!("strassen < laderman < hopcroft-kerr-12 < classical is preserved");
    println!("by the formulas, exactly as ω₀ predicts.");
    write_record("e15_hopcroft_kerr", &rows);
}
