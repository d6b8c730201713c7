//! A round-based distributed execution simulator: `P` processors, each
//! with a *local cache of size `M`*, executing an assigned partition of
//! the CDAG — the full parallel machine of the paper (Section 1, "for
//! parallel computations we consider P processors, each having independent
//! local memory of size M"), combining the bandwidth accounting of
//! [`crate::bandwidth`] with the cache accounting of `mmio-pebble`.
//!
//! Execution model (owner-computes):
//!
//! - each vertex is computed by its assigned processor, in a global
//!   topological round order;
//! - a processor's operand is either in its local cache (free), in its own
//!   slow memory (1 local I/O), or owned by another processor (1 word of
//!   communication *and* 1 local I/O to place it);
//! - local caches are LRU, sized `M`.
//!
//! The totals decompose the paper's two costs: `bandwidth` (inter-processor
//! words, the Theorem 1 parallel quantity) and per-processor local I/O
//! (the sequential quantity, now divided across processors).
//!
//! Two engines implement this model:
//!
//! - the default flat structure-of-arrays engine (`soa`, reached via
//!   every public `simulate*` function): O(threads·min(M, work) + V)
//!   state, `Pool`-parallel rank stepping, optional per-link contention
//!   timing under a [`MachineModel`] — built for thousands of ranks;
//! - `reference`, the original dense O(P·V) engine, kept in test builds
//!   only as the equivalence oracle: on every instance both can run,
//!   totals *and* the traced event stream are identical (enforced by this
//!   module's unit tests).
//!
//! [`simulate_traced`] records the full machine-level event stream
//! (cache evictions/insertions, sends, receives, executions) so
//! `mmio-analyze` can re-verify a run by independent re-simulation —
//! double-entry bookkeeping for the distributed machine, in the same
//! spirit as its schedule and routing audits. With a machine model
//! attached ([`simulate_traced_on`]), the trace also carries the claimed
//! per-round contended loads for the analyzer's link-conservation and
//! makespan recounts (`MMIO-D006`/`MMIO-D007`).

#[cfg(test)]
mod reference;
mod soa;
pub mod topo;

pub use topo::{round_time, ContentionReport, MachineModel, RoundLoad, Topology};

use crate::assign::Assignment;
use crate::pool::Pool;
use mmio_cdag::{CdagView, VertexId};
use serde::Serialize;

/// Results of one distributed simulation.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct DistRun {
    /// Words moved between processors, total.
    pub total_words: u64,
    /// Maximum over processors of words sent + received (critical path).
    pub critical_path_words: u64,
    /// Maximum over processors of local cache I/O.
    pub max_local_io: u64,
    /// Sum of local cache I/O over all processors.
    pub total_local_io: u64,
}

/// One machine-level action of a traced distributed run. Vertices are
/// dense CDAG indices (`VertexId::idx() as u32`), processors are ranks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DistEvent {
    /// Processor `proc` evicted `v` from its LRU cache.
    Evict {
        /// Evicting processor.
        proc: u32,
        /// Evicted vertex.
        v: u32,
    },
    /// Processor `proc` brought `v` into its cache; `charged` is whether
    /// the insertion cost a local I/O (operand fetches do, computing a
    /// fresh result into cache does not).
    Insert {
        /// Inserting processor.
        proc: u32,
        /// Inserted vertex.
        v: u32,
        /// Whether the insertion was charged as local I/O.
        charged: bool,
    },
    /// Processor `from` sent the value of `v` to `to` (one word).
    Send {
        /// Sender rank.
        from: u32,
        /// Receiver rank.
        to: u32,
        /// Vertex whose value moved.
        v: u32,
    },
    /// Processor `to` received the value of `v` from `from`.
    Recv {
        /// Receiver rank.
        to: u32,
        /// Sender rank.
        from: u32,
        /// Vertex whose value moved.
        v: u32,
    },
    /// Processor `proc` computed (non-input) vertex `v`.
    Exec {
        /// Computing processor.
        proc: u32,
        /// Computed vertex.
        v: u32,
    },
}

/// A fully recorded distributed run: the claimed totals plus the event
/// stream and per-rank counters they were derived from, for independent
/// re-verification by `mmio-analyze`.
#[derive(Clone, Debug)]
pub struct DistTrace {
    /// Number of processors.
    pub p: u32,
    /// Local cache capacity per processor.
    pub m: usize,
    /// The totals the simulator claims (identical to [`simulate`]'s).
    pub claimed: DistRun,
    /// Words sent, per rank.
    pub sent: Vec<u64>,
    /// Words received, per rank.
    pub received: Vec<u64>,
    /// Machine-level events in execution order.
    pub events: Vec<DistEvent>,
    /// Claimed contended loads, when a machine model was attached.
    pub contention: Option<ContentionReport>,
}

/// Totals plus the optional contended-time accounting of one run.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct DistOutcome {
    /// The paper's word counts.
    pub run: DistRun,
    /// α-β-γ contended timing, when a machine model was attached.
    pub contention: Option<ContentionReport>,
}

/// Simulates `order` under `assignment` with per-processor LRU caches of
/// size `m` (serial, uncontended — the classic entry point).
///
/// # Panics
/// Panics if `m` cannot hold any vertex's operand set.
pub fn simulate<V: CdagView + Sync>(
    g: &V,
    assignment: &Assignment,
    order: &[VertexId],
    m: usize,
) -> DistRun {
    simulate_on(g, assignment, order, m, None, &Pool::serial()).run
}

/// Like [`simulate`], but also records the machine-level event stream for
/// independent re-verification (see `mmio-analyze`'s distsim audit).
///
/// # Panics
/// Panics if `m` cannot hold any vertex's operand set.
pub fn simulate_traced<V: CdagView + Sync>(
    g: &V,
    assignment: &Assignment,
    order: &[VertexId],
    m: usize,
) -> DistTrace {
    simulate_traced_on(g, assignment, order, m, None, &Pool::serial())
}

/// Full-control entry point: optional contention model, pooled rank
/// stepping. Results are byte-identical at every thread count.
///
/// # Panics
/// Panics if `m` cannot hold any vertex's operand set, or if the machine
/// model's topology does not fit `assignment.p` ranks.
pub fn simulate_on<V: CdagView + Sync>(
    g: &V,
    assignment: &Assignment,
    order: &[VertexId],
    m: usize,
    machine: Option<MachineModel>,
    pool: &Pool,
) -> DistOutcome {
    soa::run_soa(g, assignment, order, m, machine, false, pool).0
}

/// [`simulate_on`] with the full event stream (and, with a machine
/// model, the claimed per-round contended loads) recorded for audit.
///
/// # Panics
/// Panics if `m` cannot hold any vertex's operand set, or if the machine
/// model's topology does not fit `assignment.p` ranks.
pub fn simulate_traced_on<V: CdagView + Sync>(
    g: &V,
    assignment: &Assignment,
    order: &[VertexId],
    m: usize,
    machine: Option<MachineModel>,
    pool: &Pool,
) -> DistTrace {
    soa::run_soa(g, assignment, order, m, machine, true, pool)
        .1
        .expect("traced")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::{all_on_one, block_per_rank, by_top_subproblem, cyclic_per_rank};
    use mmio_algos::registry::all_base_graphs;
    use mmio_algos::strassen::strassen;
    use mmio_cdag::build::build_cdag;
    use mmio_cdag::Cdag;
    use mmio_pebble::orders::recursive_order;
    use proptest::prelude::*;

    fn setup() -> (mmio_cdag::Cdag, Vec<VertexId>) {
        let g = build_cdag(&strassen(), 3);
        let order = recursive_order(&g);
        (g, order)
    }

    #[test]
    fn single_processor_has_no_words() {
        let (g, order) = setup();
        let run = simulate(&g, &all_on_one(&g, 1), &order, 32);
        assert_eq!(run.total_words, 0);
        assert!(run.max_local_io > 0);
    }

    #[test]
    fn all_on_one_matches_single_processor_io() {
        // With everything on processor 0, local I/O equals a sequential
        // LRU-ish run: sanity anchor between the two simulators.
        let (g, order) = setup();
        let run1 = simulate(&g, &all_on_one(&g, 1), &order, 32);
        let run4 = simulate(&g, &all_on_one(&g, 4), &order, 32);
        assert_eq!(run1.max_local_io, run4.max_local_io);
        assert_eq!(run4.total_words, 0);
    }

    #[test]
    fn distribution_trades_local_io_for_words() {
        let (g, order) = setup();
        let solo = simulate(&g, &all_on_one(&g, 1), &order, 16);
        let grouped = simulate(&g, &by_top_subproblem(&g, 7), &order, 16);
        // Each processor handles a slice: its local I/O shrinks…
        assert!(grouped.max_local_io < solo.max_local_io);
        // …paid for with communication.
        assert!(grouped.total_words > 0);
    }

    #[test]
    fn subtree_assignment_communicates_less_than_cyclic() {
        let (g, order) = setup();
        let cyc = simulate(&g, &cyclic_per_rank(&g, 7), &order, 16);
        let sub = simulate(&g, &by_top_subproblem(&g, 7), &order, 16);
        assert!(
            sub.total_words < cyc.total_words,
            "subtree {} vs cyclic {}",
            sub.total_words,
            cyc.total_words
        );
    }

    #[test]
    fn bigger_caches_reduce_local_io() {
        let (g, order) = setup();
        let a = by_top_subproblem(&g, 7);
        let small = simulate(&g, &a, &order, 8);
        let large = simulate(&g, &a, &order, 256);
        assert!(large.max_local_io <= small.max_local_io);
        // Communication is cache-independent in this model: same owners.
        assert!(large.total_words <= small.total_words);
    }

    #[test]
    fn traced_run_agrees_with_untraced() {
        let (g, order) = setup();
        let a = by_top_subproblem(&g, 7);
        let plain = simulate(&g, &a, &order, 16);
        let traced = simulate_traced(&g, &a, &order, 16);
        assert_eq!(traced.claimed.total_words, plain.total_words);
        assert_eq!(
            traced.claimed.critical_path_words,
            plain.critical_path_words
        );
        assert_eq!(traced.claimed.max_local_io, plain.max_local_io);
        assert_eq!(traced.claimed.total_local_io, plain.total_local_io);
        assert_eq!(traced.p, 7);
        assert_eq!(traced.m, 16);
        // Event-level sanity: sends and receives pair up exactly, and the
        // per-rank counters match the event stream.
        let sends = traced
            .events
            .iter()
            .filter(|e| matches!(e, DistEvent::Send { .. }))
            .count() as u64;
        let recvs = traced
            .events
            .iter()
            .filter(|e| matches!(e, DistEvent::Recv { .. }))
            .count() as u64;
        assert_eq!(sends, plain.total_words);
        assert_eq!(recvs, plain.total_words);
        assert_eq!(traced.sent.iter().sum::<u64>(), plain.total_words);
        assert_eq!(traced.received.iter().sum::<u64>(), plain.total_words);
        // Every non-input vertex executes exactly once.
        let execs = traced
            .events
            .iter()
            .filter(|e| matches!(e, DistEvent::Exec { .. }))
            .count();
        let non_inputs = g.vertices().filter(|&v| !g.preds(v).is_empty()).count();
        assert_eq!(execs, non_inputs);
    }

    #[test]
    fn soa_matches_reference_exactly() {
        let (g, order) = setup();
        for p in [1u32, 4, 7, 13] {
            for m in [8usize, 16, 64] {
                let a = cyclic_per_rank(&g, p);
                let fast = simulate_traced(&g, &a, &order, m);
                let slow = reference::simulate_traced(&g, &a, &order, m);
                assert_eq!(fast.claimed, slow.claimed, "p={p} m={m}");
                assert_eq!(fast.sent, slow.sent, "p={p} m={m}");
                assert_eq!(fast.received, slow.received, "p={p} m={m}");
                assert_eq!(fast.events, slow.events, "p={p} m={m}");
                assert_eq!(
                    reference::simulate(&g, &a, &order, m),
                    fast.claimed,
                    "p={p} m={m}"
                );
            }
        }
    }

    #[test]
    fn parallel_stepping_is_byte_identical_to_serial() {
        let (g, order) = setup();
        let a = by_top_subproblem(&g, 13);
        let mm = Some(MachineModel::new(Topology::Ring, 2, 1, 1));
        let serial = simulate_traced_on(&g, &a, &order, 16, mm, &Pool::serial());
        for threads in [2usize, 3, 8] {
            let par = simulate_traced_on(&g, &a, &order, 16, mm, &Pool::new(threads));
            assert_eq!(par.claimed, serial.claimed, "threads={threads}");
            assert_eq!(par.events, serial.events, "threads={threads}");
            assert_eq!(par.contention, serial.contention, "threads={threads}");
        }
    }

    #[test]
    fn contended_makespan_dominates_critical_path() {
        let (g, order) = setup();
        let a = cyclic_per_rank(&g, 9);
        for topo in [Topology::Full, Topology::Ring, Topology::Torus2d { q: 3 }] {
            let mm = MachineModel::new(topo, 1, 1, 0);
            let out = simulate_on(&g, &a, &order, 16, Some(mm), &Pool::serial());
            let c = out.contention.expect("contended");
            assert!(
                c.makespan >= out.run.critical_path_words,
                "{topo:?}: makespan {} < critical path {}",
                c.makespan,
                out.run.critical_path_words
            );
            // Link occupancy conservation: per round, Σ over words of the
            // route length equals hop_words, and words on Full equal hops.
            let words: u64 = c.rounds.iter().map(|r| r.words).sum();
            assert_eq!(words, out.run.total_words);
            if matches!(topo, Topology::Full) {
                for r in &c.rounds {
                    assert_eq!(r.words, r.hop_words);
                }
            }
        }
    }

    #[test]
    fn contention_report_is_absent_without_model() {
        let (g, order) = setup();
        let a = cyclic_per_rank(&g, 4);
        let out = simulate_on(&g, &a, &order, 16, None, &Pool::serial());
        assert!(out.contention.is_none());
        let t = simulate_traced(&g, &a, &order, 16);
        assert!(t.contention.is_none());
    }

    fn strategies(g: &Cdag, p: u32) -> Vec<(&'static str, Assignment)> {
        vec![
            ("cyclic_per_rank", cyclic_per_rank(g, p)),
            ("block_per_rank", block_per_rank(g, p)),
            ("by_top_subproblem", by_top_subproblem(g, p)),
            ("all_on_one", all_on_one(g, p)),
        ]
    }

    /// Runs both engines traced and asserts identical totals, per-rank
    /// counters and event streams.
    fn assert_engines_agree(g: &Cdag, a: &Assignment, order: &[VertexId], m: usize, ctx: &str) {
        let fast = simulate_traced(g, a, order, m);
        let slow = reference::simulate_traced(g, a, order, m);
        assert_eq!(fast.claimed, slow.claimed, "{ctx}: totals drifted");
        assert_eq!(fast.sent, slow.sent, "{ctx}: sent drifted");
        assert_eq!(fast.received, slow.received, "{ctx}: received drifted");
        assert_eq!(fast.events, slow.events, "{ctx}: events drifted");
    }

    #[test]
    fn soa_engine_matches_reference_on_registry() {
        // Every registry graph at r ≤ 2 under every assignment strategy.
        for base in all_base_graphs() {
            for r in 1..=2u32 {
                let g = build_cdag(&base, r);
                let order = recursive_order(&g);
                let need = g.vertices().map(|v| g.preds(v).len()).max().unwrap_or(0) + 1;
                let m = need.max(16);
                for (name, a) in strategies(&g, 4) {
                    let ctx = format!("{} r={r} {name}", base.name());
                    assert_engines_agree(&g, &a, &order, m, &ctx);
                }
            }
        }
    }

    proptest! {
        #[test]
        fn soa_matches_reference_on_random_instances(
            algo in 0usize..3,
            k in 1u32..3,
            p in 2u32..11,
            slack in 0usize..24,
            which in 0usize..4,
        ) {
            let base = vec![
                strassen(),
                mmio_algos::strassen::winograd(),
                mmio_algos::classical::classical(2),
            ]
            .swap_remove(algo);
            let g = build_cdag(&base, k);
            let order = recursive_order(&g);
            let need = g.vertices().map(|v| g.preds(v).len()).max().unwrap() + 1;
            let m = need + slack;
            let (name, a) = strategies(&g, p).swap_remove(which);
            let ctx = format!("{} k={k} p={p} m={m} {name}", base.name());
            assert_engines_agree(&g, &a, &order, m, &ctx);
        }
    }
}
