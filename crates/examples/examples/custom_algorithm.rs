//! Bring your own algorithm: define a Strassen-like scheme as data, import
//! it (with forced verification), and push it through the whole pipeline —
//! CDAG, structural classification, routing certificate, I/O simulation,
//! and the Theorem 1 lower bound.
//!
//! ```text
//! cargo run --release -p mmio-examples --example custom_algorithm
//! ```

use mmio_cdag::build::build_cdag;
use mmio_cdag::connectivity::classify;
use mmio_cdag::serialize;
use mmio_core::theorem1::LowerBound;
use mmio_core::theorem2::InOutRouting;
use mmio_pebble::orders::recursive_order;
use mmio_pebble::policy::Lru;
use mmio_pebble::AutoScheduler;

/// Strassen's algorithm written out as the JSON a user would author.
const CUSTOM: &str = r#"{
  "name": "my-strassen",
  "n0": 2,
  "enc_a": { "rows": 7, "cols": 4, "data": [
    "1","0","0","1",  "0","0","1","1",  "1","0","0","0",  "0","0","0","1",
    "1","1","0","0",  "-1","0","1","0", "0","1","0","-1" ] },
  "enc_b": { "rows": 7, "cols": 4, "data": [
    "1","0","0","1",  "1","0","0","0",  "0","1","0","-1", "-1","0","1","0",
    "0","0","0","1",  "1","1","0","0",  "0","0","1","1" ] },
  "dec": { "rows": 4, "cols": 7, "data": [
    "1","0","0","1","-1","0","1",
    "0","0","1","0","1","0","0",
    "0","1","0","1","0","0","0",
    "1","-1","1","0","0","1","0" ] }
}"#;

fn main() {
    // 1. Import + verify (a wrong coefficient file would be rejected here).
    let base = serialize::from_json(CUSTOM).expect("the file must verify");
    println!(
        "imported '{}': ⟨{},{},{};{}⟩, ω₀ = {:.4}",
        base.name(),
        base.n0(),
        base.n0(),
        base.n0(),
        base.b(),
        base.omega0()
    );

    // 2. Classify.
    let props = classify(&base);
    println!(
        "structure: dec components {}, multiple copying {}, single-use {}",
        props.dec_components, props.multiple_copying, props.single_use_assumption
    );

    // 3. Routing certificate.
    let g2 = build_cdag(&base, 2);
    let routing = InOutRouting::new(&g2).expect("Hall matching");
    let stats = routing.verify();
    println!(
        "routing: {} paths, max hits {} ≤ bound {} — verified",
        stats.paths,
        stats.max_vertex_hits,
        routing.theorem2_bound()
    );

    // 4. Simulate and compare with the bound.
    let g = build_cdag(&base, 5);
    let order = recursive_order(&g);
    let lb = LowerBound::new(&base);
    for m in [32usize, 128] {
        let io = AutoScheduler::new(&g, m).run(&order, &Lru).io();
        println!(
            "M = {m:>4}: measured {io} I/Os, Ω bound {:.0}",
            lb.sequential_io(g.n(), m as u64)
        );
    }
    println!("\nTo analyze your own algorithm: `mmio export strassen > mine.json`,");
    println!("edit the coefficients, then `mmio report mine.json 4 16`.");
}
