//! Conservation laws of the distributed-memory simulator, across every
//! assignment strategy and the whole algorithm registry at r ≤ 2 —
//! cross-checked against the independent event-level audit in
//! `mmio-analyze` (double-entry bookkeeping: the simulator's claimed
//! totals must be re-derivable from its own event stream).

use mmio_algos::registry::all_base_graphs;
use mmio_analyze::{audit_dist_trace, Report};
use mmio_cdag::build::build_cdag;
use mmio_cdag::Cdag;
use mmio_parallel::assign::{
    all_on_one, block_per_rank, by_top_subproblem, cyclic_per_rank, Assignment,
};
use mmio_parallel::distsim::{
    simulate, simulate_on, simulate_traced, simulate_traced_on, MachineModel, Topology,
};
use mmio_parallel::Pool;
use mmio_pebble::orders::recursive_order;

fn strategies(g: &Cdag, p: u32) -> Vec<(&'static str, Assignment)> {
    vec![
        ("cyclic_per_rank", cyclic_per_rank(g, p)),
        ("block_per_rank", block_per_rank(g, p)),
        ("by_top_subproblem", by_top_subproblem(g, p)),
        ("all_on_one", all_on_one(g, p)),
    ]
}

#[test]
fn words_are_conserved_across_all_strategies_and_graphs() {
    for base in all_base_graphs() {
        for r in 1..=2u32 {
            let g = build_cdag(&base, r);
            let order = recursive_order(&g);
            let need = g.vertices().map(|v| g.preds(v).len()).max().unwrap_or(0) + 1;
            let m = need.max(16);
            for (name, a) in strategies(&g, 4) {
                let t = simulate_traced(&g, &a, &order, m);
                let ctx = format!("{} r={r} {name}", base.name());

                // Conservation: every word sent is received, and the
                // claimed inter-processor total is exactly that sum.
                let sent: u64 = t.sent.iter().sum();
                let received: u64 = t.received.iter().sum();
                assert_eq!(sent, received, "{ctx}: sent != received");
                assert_eq!(t.claimed.total_words, sent, "{ctx}: total != Σ sent");

                // The critical path is the busiest rank's send+recv load:
                // bounded below by the average and above by the total.
                let busiest = (0..t.p as usize)
                    .map(|r| t.sent[r] + t.received[r])
                    .max()
                    .unwrap_or(0);
                assert_eq!(t.claimed.critical_path_words, busiest, "{ctx}");
                assert!(
                    t.claimed.critical_path_words <= 2 * t.claimed.total_words,
                    "{ctx}"
                );

                // `all_on_one` moves nothing between processors.
                if name == "all_on_one" {
                    assert_eq!(t.claimed.total_words, 0, "{ctx}");
                }

                // Traced and untraced simulation agree exactly.
                assert_eq!(t.claimed, simulate(&g, &a, &order, m), "{ctx}");
            }
        }
    }
}

#[test]
fn contended_runs_audit_clean_across_topologies() {
    // Topology sweep: a machine model must not change the paper's word
    // counts, its makespan must dominate the uncontended critical path
    // (β = 1), and the analyzer's link-conservation and makespan recounts
    // (MMIO-D006/D007) must confirm every claimed round table — serial
    // and pooled runs byte-identical.
    let topologies = [
        ("full", Topology::Full),
        ("ring", Topology::Ring),
        ("torus", Topology::Torus2d { q: 2 }),
    ];
    for base in all_base_graphs() {
        for r in 1..=2u32 {
            let g = build_cdag(&base, r);
            let order = recursive_order(&g);
            let need = g.vertices().map(|v| g.preds(v).len()).max().unwrap_or(0) + 1;
            let m = need.max(16);
            for (name, a) in strategies(&g, 4) {
                let plain = simulate(&g, &a, &order, m);
                for (tname, topo) in topologies {
                    let ctx = format!("{} r={r} {name} {tname}", base.name());
                    let mm = Some(MachineModel::new(topo, 2, 1, 1));
                    let t = simulate_traced_on(&g, &a, &order, m, mm, &Pool::serial());
                    assert_eq!(t.claimed, plain, "{ctx}: contention changed counts");
                    let c = t.contention.as_ref().expect("contended");
                    assert!(
                        c.makespan >= plain.critical_path_words,
                        "{ctx}: makespan {} < critical path {}",
                        c.makespan,
                        plain.critical_path_words
                    );
                    let mut report = Report::new();
                    let audit = audit_dist_trace(&g, &a, &t, &mut report);
                    assert!(
                        audit.ok && !report.has_errors(),
                        "{ctx}: {:?}",
                        report.diagnostics
                    );
                    let pooled = simulate_traced_on(&g, &a, &order, m, mm, &Pool::new(4));
                    assert_eq!(pooled.claimed, t.claimed, "{ctx}");
                    assert_eq!(pooled.events, t.events, "{ctx}");
                    assert_eq!(pooled.contention, t.contention, "{ctx}");
                }
            }
        }
    }
}

#[test]
fn analyzer_audit_confirms_every_clean_run() {
    for base in all_base_graphs() {
        for r in 1..=2u32 {
            let g = build_cdag(&base, r);
            let order = recursive_order(&g);
            let need = g.vertices().map(|v| g.preds(v).len()).max().unwrap_or(0) + 1;
            let m = need.max(16);
            for (name, a) in strategies(&g, 4) {
                let t = simulate_traced(&g, &a, &order, m);
                let mut report = Report::new();
                let audit = audit_dist_trace(&g, &a, &t, &mut report);
                assert!(
                    audit.ok && !report.has_errors(),
                    "{} r={r} {name}: {:?}",
                    base.name(),
                    report.diagnostics
                );
                // The audit replayed real work and respected the capacity.
                assert!(audit.execs > 0);
                assert!(audit.max_occupancy <= m);
            }
        }
    }
}

#[test]
fn long_routes_audit_clean_and_are_thread_count_independent() {
    // Thousands of ranks: ring routes up to 2048 hops and torus routes up
    // to 64, far past the ≤ 8-hop routes of the registry sweeps above.
    // The analyzer re-routes every send hop by hop (MMIO-D006/D007), and
    // pooled runs match the serial one byte for byte.
    let g = build_cdag(&mmio_algos::strassen::strassen(), 3);
    let order = recursive_order(&g);
    let m = 16;
    for p in [1024u32, 4096] {
        let topologies = [
            ("ring", Topology::Ring),
            ("torus", Topology::parse("torus", p).expect("square P")),
        ];
        for (name, a) in [
            ("cyclic_per_rank", cyclic_per_rank(&g, p)),
            ("block_per_rank", block_per_rank(&g, p)),
        ] {
            for (tname, topo) in topologies {
                let ctx = format!("strassen r=3 P={p} {name} {tname}");
                let mm = Some(MachineModel::new(topo, 2, 1, 1));
                let t = simulate_traced_on(&g, &a, &order, m, mm, &Pool::serial());
                let c = t.contention.as_ref().expect("contended");
                let longest = c.rounds.iter().map(|r| r.max_hops).max();
                assert!(longest > Some(8), "{ctx}: longest route {longest:?}");
                let mut report = Report::new();
                let audit = audit_dist_trace(&g, &a, &t, &mut report);
                assert!(
                    audit.ok && report.error_count() == 0,
                    "{ctx}: {:?}",
                    report.diagnostics
                );
                let serial = simulate_on(&g, &a, &order, m, mm, &Pool::serial());
                assert_eq!(serial.run, t.claimed, "{ctx}");
                assert_eq!(serial.contention, t.contention, "{ctx}");
                for threads in [2usize, 8] {
                    let pooled = simulate_on(&g, &a, &order, m, mm, &Pool::new(threads));
                    assert_eq!(pooled, serial, "{ctx} threads={threads}");
                }
            }
        }
    }
}
