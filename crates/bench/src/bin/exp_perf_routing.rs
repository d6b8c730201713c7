//! P1 — the transported-routing engine against the naive per-copy path.
//!
//! Three measurements, written to `BENCH_routing.json` at the workspace
//! root (the checked-in perf record; CI re-runs a reduced workload and
//! uploads its own copy as an artifact):
//!
//! 1. **Transport sweep** (`r ≥ 3`): verify the Routing Theorem's routing
//!    inside every one of the `b^{r-k}` Fact-1 copies of `G_k` in `G_r` —
//!    baseline = the pre-engine code path (re-derive the routing per copy:
//!    fresh `G_k`, fresh Hall matchings, one heap-allocated `Vec` per path,
//!    per-vertex `local_to_global` transport), engine = one memoized
//!    [`RoutingClass`] transported through a bulk translation table, at
//!    1/2/4/8 worker threads. Both sides do the *same* verification work
//!    (global edge re-walk + hit counting); the binary exits nonzero if
//!    their results — or the engine's results across thread counts —
//!    disagree.
//! 2. **Memoization flatness**: engine wall-clock per copy as the copy
//!    count grows `7 → 49 → 343` (class construction is paid once, so the
//!    per-copy cost must stay ~flat while the baseline's includes a full
//!    re-derivation each time).
//! 3. **Analyze-all**: the `mmio analyze all` workload (base lints +
//!    schedule audit + routing audit per registry algorithm) serial vs
//!    pooled over targets.
//!
//! `MMIO_BENCH_SMOKE=1` runs a reduced workload (CI's bench-smoke job):
//! smaller sweeps, same determinism checks, same output schema.

use mmio_algos::registry::all_base_graphs;
use mmio_algos::strassen::{strassen, winograd};
use mmio_cdag::build::build_cdag;
use mmio_cdag::{BaseGraph, Cdag, CdagView, MetaVertices};
use mmio_core::deps::{unpack_entry, DepSide};
use mmio_core::routing::VertexHitCounter;
use mmio_core::theorem2::InOutRouting;
use mmio_core::transport::{verify_transported, RoutingClass, RoutingMemo, TransportReport};
use mmio_parallel::Pool;
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct SweepRecord {
    algo: String,
    k: u32,
    r: u32,
    copies: u64,
    paths_per_copy: u64,
    baseline_ms: f64,
    /// Engine wall-clock at 1/2/4/8 worker threads (class construction
    /// included), in sweep order.
    engine_ms: Vec<(String, f64)>,
    /// baseline / engine@4 — the headline end-to-end speedup.
    speedup_4t: f64,
}

#[derive(Serialize)]
struct FlatnessRecord {
    r: u32,
    copies: u64,
    class_build_ms: f64,
    transport_ms: f64,
    transport_us_per_copy: f64,
}

#[derive(Serialize)]
struct BenchRecord {
    experiment: &'static str,
    /// Cores visible to the process when the record was produced; thread
    /// scaling rows are only meaningful when this exceeds 1.
    host_cores: usize,
    smoke: bool,
    transport_sweep: Vec<SweepRecord>,
    memoization_flatness: Vec<FlatnessRecord>,
    analyze_all_serial_ms: f64,
    analyze_all_pool4_ms: f64,
    determinism: &'static str,
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The pre-engine verification path, preserved verbatim as the baseline:
/// for every copy, rebuild `G_k`, re-derive the Hall matchings and chain
/// router, materialize each path as its own `Vec`, transport it vertex by
/// vertex, and re-walk the transported edges against `G_r`.
fn baseline_sweep(g: &Cdag, base: &BaseGraph, k: u32) -> TransportReport {
    let copies = mmio_cdag::index::pow(base.b(), g.r() - k);
    let (mut max_v, mut max_m, mut violations) = (0u64, 0u64, 0u64);
    let (mut paths_per_copy, mut bound) = (0u64, 0u64);
    let mut uniform = true;
    let mut first: Option<(u64, u64)> = None;
    for prefix in 0..copies {
        let gk = build_cdag(base, k);
        let routing = InOutRouting::new(&gk).expect("Hall matching exists");
        let meta = MetaVertices::compute(&gk);
        let mut counter = VertexHitCounter::new(&gk, Some(&meta));
        let (n0, ak) = (base.n0(), mmio_cdag::index::pow(base.a(), k));
        for side in [DepSide::A, DepSide::B] {
            for in_e in 0..ak {
                for out_e in 0..ak {
                    let (ir, ic) = unpack_entry(in_e, n0, k);
                    let (or_, oc) = unpack_entry(out_e, n0, k);
                    let path = routing.path(side, ir, ic, or_, oc);
                    counter.add_path(&path);
                    let global: Vec<_> = path
                        .iter()
                        .map(|&v| g.lift_from(&gk, prefix, v).expect("lift in range"))
                        .collect();
                    for w in global.windows(2) {
                        if !(g.preds(w[1]).contains(&w[0]) || g.succs(w[1]).contains(&w[0])) {
                            violations += 1;
                        }
                    }
                }
            }
        }
        let stats = counter.stats();
        max_v = max_v.max(stats.max_vertex_hits);
        max_m = max_m.max(stats.max_meta_hits);
        paths_per_copy = stats.paths;
        bound = routing.theorem2_bound();
        match &first {
            None => first = Some((stats.max_vertex_hits, stats.max_meta_hits)),
            Some(f) => uniform &= *f == (stats.max_vertex_hits, stats.max_meta_hits),
        }
    }
    TransportReport {
        k,
        copies,
        paths_per_copy,
        bound,
        max_vertex_hits: max_v,
        max_meta_hits: max_m,
        edge_violations: violations,
        uniform,
    }
}

/// A reduced `mmio analyze all`: base lints + routing audit for every
/// registry algorithm, fanned out over `pool` exactly as the CLI does.
fn analyze_all(pool: &Pool, max_r: u32) -> usize {
    let bases = all_base_graphs();
    let mut work: Vec<(usize, u32)> = Vec::new();
    for (bi, base) in bases.iter().enumerate() {
        let top = if base.b() > 30 { 1 } else { max_r };
        work.extend((1..=top).map(|r| (bi, r)));
    }
    let errors = pool.map(work.len(), |i| {
        let (bi, r) = work[i];
        let base = &bases[bi];
        let mut report = mmio_analyze::analyze_base_at(base, r);
        let routing_k = r.min(if base.a() >= 16 { 1 } else { 2 });
        let gk = build_cdag(base, routing_k);
        if let Some(routing) = InOutRouting::new(&gk) {
            let arena = routing.collect_paths();
            mmio_analyze::audit_routing_paths(
                &gk,
                routing.theorem2_bound(),
                Some(routing.n_paths()),
                arena.iter(),
                &mut report,
            );
        }
        report.error_count()
    });
    errors.iter().sum()
}

fn main() {
    let smoke = std::env::var("MMIO_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut determinism_ok = true;

    // --- 1. Transport sweep -------------------------------------------------
    let sweeps: Vec<(BaseGraph, u32, u32)> = if smoke {
        vec![(strassen(), 1, 3)]
    } else {
        vec![
            (strassen(), 1, 3),
            (strassen(), 1, 4),
            (strassen(), 2, 4),
            (winograd(), 1, 3),
        ]
    };
    let mut transport_sweep = Vec::new();
    println!("P1a: transported routing sweep (baseline = per-copy re-derivation)\n");
    println!(
        "{:<10} {:>2} {:>2} {:>6} | {:>11} {:>9} {:>9} {:>9} {:>9} {:>8}",
        "algo", "k", "r", "copies", "baseline ms", "1t ms", "2t ms", "4t ms", "8t ms", "speedup"
    );
    for (base, k, r) in &sweeps {
        let g = build_cdag(base, *r);

        let t = Instant::now();
        let base_report = baseline_sweep(&g, base, *k);
        let baseline_ms = ms(t);

        let mut engine_ms = Vec::new();
        let mut reports = Vec::new();
        for threads in [1usize, 2, 4, 8] {
            let pool = Pool::new(threads);
            let t = Instant::now();
            // End-to-end: class construction (the memoized cost) included.
            let class = RoutingClass::build(base, *k, &pool).expect("Hall matching exists");
            let report = verify_transported(&g, &class, &pool);
            engine_ms.push((format!("{threads}t"), ms(t)));
            reports.push(report);
        }
        // Determinism: identical report at every thread count, and agreement
        // with the naive baseline on every verified quantity.
        for (i, rep) in reports.iter().enumerate() {
            if format!("{rep:?}") != format!("{:?}", reports[0]) {
                eprintln!("DIVERGENCE: engine thread-count {i} disagrees: {rep:?}");
                determinism_ok = false;
            }
        }
        let eng = &reports[0];
        if (
            eng.copies,
            eng.paths_per_copy,
            eng.max_vertex_hits,
            eng.max_meta_hits,
            eng.edge_violations,
            eng.uniform,
        ) != (
            base_report.copies,
            base_report.paths_per_copy,
            base_report.max_vertex_hits,
            base_report.max_meta_hits,
            base_report.edge_violations,
            base_report.uniform,
        ) {
            eprintln!("DIVERGENCE: baseline {base_report:?} vs engine {eng:?}");
            determinism_ok = false;
        }
        if eng.edge_violations != 0 || !eng.verified() {
            eprintln!("VERIFICATION FAILURE: {eng:?}");
            determinism_ok = false;
        }

        let speedup = baseline_ms / engine_ms[2].1;
        println!(
            "{:<10} {:>2} {:>2} {:>6} | {:>11.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>7.2}x",
            base.name(),
            k,
            r,
            eng.copies,
            baseline_ms,
            engine_ms[0].1,
            engine_ms[1].1,
            engine_ms[2].1,
            engine_ms[3].1,
            speedup
        );
        transport_sweep.push(SweepRecord {
            algo: base.name().to_string(),
            k: *k,
            r: *r,
            copies: eng.copies,
            paths_per_copy: eng.paths_per_copy,
            baseline_ms,
            engine_ms,
            speedup_4t: speedup,
        });
    }

    // --- 2. Memoization flatness -------------------------------------------
    println!("\nP1b: per-copy engine cost vs copy count (class built once)\n");
    println!(
        "{:>2} {:>6} | {:>10} {:>12} {:>14}",
        "r", "copies", "build ms", "transport ms", "µs per copy"
    );
    let memo = RoutingMemo::new();
    let pool = Pool::serial();
    let flat_base = strassen();
    let mut memoization_flatness = Vec::new();
    let top_r = if smoke { 3 } else { 4 };
    for r in 2..=top_r {
        let g = build_cdag(&flat_base, r);
        let t = Instant::now();
        let class = memo
            .class(&flat_base, 1, &pool)
            .expect("Hall matching exists");
        let class_build_ms = ms(t); // ~0 after the first call: memoized
        let t = Instant::now();
        let report = verify_transported(&g, &class, &pool);
        let transport_ms = ms(t);
        let per_copy = transport_ms * 1e3 / report.copies as f64;
        println!(
            "{r:>2} {:>6} | {class_build_ms:>10.3} {transport_ms:>12.2} {per_copy:>14.2}",
            report.copies
        );
        memoization_flatness.push(FlatnessRecord {
            r,
            copies: report.copies,
            class_build_ms,
            transport_ms,
            transport_us_per_copy: per_copy,
        });
    }
    let (hits, misses) = memo.stats();
    println!("(memo: {hits} hits, {misses} miss — one class serves every r)");

    // --- 3. Analyze-all -----------------------------------------------------
    let max_r = if smoke { 1 } else { 2 };
    let t = Instant::now();
    let serial_errors = analyze_all(&Pool::serial(), max_r);
    let analyze_all_serial_ms = ms(t);
    let t = Instant::now();
    let pool_errors = analyze_all(&Pool::new(4), max_r);
    let analyze_all_pool4_ms = ms(t);
    if serial_errors != pool_errors {
        eprintln!("DIVERGENCE: analyze-all error counts {serial_errors} vs {pool_errors}");
        determinism_ok = false;
    }
    println!(
        "\nP1c: analyze-all (registry, r ≤ {max_r}): serial {analyze_all_serial_ms:.1} ms, \
         4-thread pool {analyze_all_pool4_ms:.1} ms ({serial_errors} errors both ways)"
    );

    // --- Record -------------------------------------------------------------
    let record = BenchRecord {
        experiment: "perf_routing",
        host_cores,
        smoke,
        transport_sweep,
        memoization_flatness,
        analyze_all_serial_ms,
        analyze_all_pool4_ms,
        determinism: if determinism_ok {
            "identical"
        } else {
            "DIVERGED"
        },
    };
    let mut path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    path.pop();
    path.pop();
    path.push("BENCH_routing.json");
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&record).expect("serializable"),
    )
    .expect("write BENCH_routing.json");
    println!("\nwrote {}", path.display());

    assert!(
        determinism_ok,
        "deterministic-output check diverged (see stderr)"
    );
}
