//! Strict simulation of explicit schedules against the model rules: the
//! test-only oracle the engines' recorded schedules are replayed through
//! (release builds check schedules with the `mmio-cert` replay, behind
//! `mmio cert verify` and `mmio analyze`).
//!
//! Cache state is a membership bitmap (`Vec<bool>`) plus an occupancy
//! counter — the simulator only ever asks "is v cached?" and "how many are
//! cached?", so the old `HashSet` bought nothing but hashing overhead on
//! the validation path of every recorded schedule.

use crate::graph::PebbleGraph;
use crate::schedule::{Action, Schedule};
use crate::stats::IoStats;
use mmio_cdag::VertexId;

/// A violation of the machine-model rules.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// Load of a value not residing in slow memory (not an input, never
    /// stored).
    LoadUnavailable(VertexId),
    /// Load into a full cache.
    CacheFull(VertexId),
    /// Load of a value already in cache.
    AlreadyCached(VertexId),
    /// Store or drop of a value not in cache.
    NotCached(VertexId),
    /// Compute with a predecessor missing from cache.
    MissingOperand { vertex: VertexId, operand: VertexId },
    /// Vertex computed twice (the model forbids recomputation).
    Recompute(VertexId),
    /// Compute of an input vertex (inputs are given, not computed).
    ComputeInput(VertexId),
    /// Schedule ended with an output never stored to slow memory.
    OutputNotStored(VertexId),
    /// Schedule ended with a vertex never computed.
    NotComputed(VertexId),
}

/// Runs `schedule` on the CDAG under cache size `m`, verifying every rule.
/// Returns the exact I/O counts.
///
/// The terminal conditions require *all* vertices computed (the schedule is
/// for the whole algorithm) and all outputs stored.
///
/// Error precedence is part of the contract (pinned by regression tests):
/// `Load` checks availability, then double-caching, then capacity; `Compute`
/// checks input-ness, recomputation, then *every operand* (in predecessor
/// order) before capacity — a compute into a full cache with a missing
/// operand is a [`SimError::MissingOperand`], never a
/// [`SimError::CacheFull`].
pub fn simulate<G: PebbleGraph>(g: &G, schedule: &Schedule, m: usize) -> Result<IoStats, SimError> {
    let mut in_cache = vec![false; g.n_vertices()];
    let mut occupancy: usize = 0;
    let mut computed = vec![false; g.n_vertices()];
    let mut stored = vec![false; g.n_vertices()];
    let mut stats = IoStats::default();

    for &action in &schedule.actions {
        match action {
            Action::Load(v) => {
                let in_slow = g.is_input(v) || stored[v.idx()];
                if !in_slow {
                    return Err(SimError::LoadUnavailable(v));
                }
                if in_cache[v.idx()] {
                    return Err(SimError::AlreadyCached(v));
                }
                if occupancy >= m {
                    return Err(SimError::CacheFull(v));
                }
                in_cache[v.idx()] = true;
                occupancy += 1;
                stats.loads += 1;
            }
            Action::Store(v) => {
                if !in_cache[v.idx()] {
                    return Err(SimError::NotCached(v));
                }
                stored[v.idx()] = true;
                stats.stores += 1;
            }
            Action::Drop(v) => {
                if !in_cache[v.idx()] {
                    return Err(SimError::NotCached(v));
                }
                in_cache[v.idx()] = false;
                occupancy -= 1;
            }
            Action::Compute(v) => {
                if g.is_input(v) {
                    return Err(SimError::ComputeInput(v));
                }
                if computed[v.idx()] {
                    return Err(SimError::Recompute(v));
                }
                for &p in g.preds(v) {
                    if !in_cache[p.idx()] {
                        return Err(SimError::MissingOperand {
                            vertex: v,
                            operand: p,
                        });
                    }
                }
                if occupancy >= m {
                    return Err(SimError::CacheFull(v));
                }
                in_cache[v.idx()] = true;
                occupancy += 1;
                computed[v.idx()] = true;
                stats.computes += 1;
            }
        }
    }

    // Dense-id loops keep the pinned error precedence: every vertex's
    // NotComputed check runs before any OutputNotStored check, in id order
    // (identical to the old `vertices()` / `outputs()` iterator pair).
    for i in 0..g.n_vertices() as u32 {
        let v = VertexId(i);
        if !g.is_input(v) && !computed[v.idx()] {
            return Err(SimError::NotComputed(v));
        }
    }
    for i in 0..g.n_vertices() as u32 {
        let v = VertexId(i);
        if g.is_output(v) && !stored[v.idx()] {
            return Err(SimError::OutputNotStored(v));
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmio_cdag::build::build_cdag;
    use mmio_cdag::{BaseGraph, Cdag};
    use mmio_matrix::{Matrix, Rational};

    /// The trivial 1×1 CDAG at r=1: inputs a, b; combos; product; output.
    fn tiny() -> Cdag {
        let one = Matrix::from_vec(1, 1, vec![Rational::ONE]);
        build_cdag(&BaseGraph::new("tiny", 1, one.clone(), one.clone(), one), 1)
    }

    /// A full valid schedule for `tiny`.
    fn valid_schedule(g: &Cdag) -> Schedule {
        let a = g.input_a(0, 0);
        let b = g.input_b(0, 0);
        let non_inputs: Vec<VertexId> = g.vertices().filter(|&v| !g.is_input(v)).collect();
        let out = g.outputs().next().unwrap();
        let mut actions = vec![Action::Load(a), Action::Load(b)];
        actions.extend(non_inputs.iter().map(|&v| Action::Compute(v)));
        actions.push(Action::Store(out));
        Schedule { actions }
    }

    #[test]
    fn valid_schedule_counts() {
        let g = tiny();
        let s = valid_schedule(&g);
        let stats = simulate(&g, &s, 16).unwrap();
        assert_eq!(stats.loads, 2);
        assert_eq!(stats.stores, 1);
        assert_eq!(stats.computes as usize, g.n_vertices() - 2);
        assert_eq!(stats.io(), 3);
    }

    #[test]
    fn cache_too_small_detected() {
        let g = tiny();
        let s = valid_schedule(&g);
        // Needs ≥3 live slots at the product step (a-combo, b-combo, result)…
        // with M=2 some action must fail.
        assert!(simulate(&g, &s, 2).is_err());
    }

    #[test]
    fn compute_without_operand_rejected() {
        let g = tiny();
        let prod = g.products().next().unwrap();
        let s = Schedule {
            actions: vec![Action::Compute(prod)],
        };
        assert!(matches!(
            simulate(&g, &s, 16),
            Err(SimError::MissingOperand { .. })
        ));
    }

    #[test]
    fn recompute_rejected() {
        let g = tiny();
        let a = g.input_a(0, 0);
        let b = g.input_b(0, 0);
        // EncA level 1 combo (copy of a).
        let combo = g.succs(a)[0];
        let s = Schedule {
            actions: vec![
                Action::Load(a),
                Action::Load(b),
                Action::Compute(combo),
                Action::Compute(combo),
            ],
        };
        assert_eq!(simulate(&g, &s, 16), Err(SimError::Recompute(combo)));
    }

    #[test]
    fn load_of_never_stored_intermediate_rejected() {
        let g = tiny();
        let prod = g.products().next().unwrap();
        let s = Schedule {
            actions: vec![Action::Load(prod)],
        };
        assert_eq!(simulate(&g, &s, 16), Err(SimError::LoadUnavailable(prod)));
    }

    #[test]
    fn missing_output_store_rejected() {
        let g = tiny();
        let mut s = valid_schedule(&g);
        s.actions.pop(); // remove the Store
        assert!(matches!(
            simulate(&g, &s, 16),
            Err(SimError::OutputNotStored(_))
        ));
    }

    #[test]
    fn incomplete_computation_rejected() {
        let g = tiny();
        let a = g.input_a(0, 0);
        let s = Schedule {
            actions: vec![Action::Load(a)],
        };
        assert!(matches!(
            simulate(&g, &s, 16),
            Err(SimError::NotComputed(_))
        ));
    }

    #[test]
    fn drop_frees_space() {
        let g = tiny();
        let a = g.input_a(0, 0);
        let b = g.input_b(0, 0);
        let combo_a = g.succs(a)[0];
        let combo_b = g.succs(b)[0];
        let prod = g.products().next().unwrap();
        let out = g.outputs().next().unwrap();
        // M = 3 with explicit drops: load a, compute combo_a, drop a, load b,
        // compute combo_b, drop b, compute prod (needs combo_a+combo_b+slot = 3 ✓)…
        let s = Schedule {
            actions: vec![
                Action::Load(a),
                Action::Compute(combo_a),
                Action::Drop(a),
                Action::Load(b),
                Action::Compute(combo_b),
                Action::Drop(b),
                Action::Compute(prod),
                Action::Drop(combo_a),
                Action::Drop(combo_b),
                Action::Compute(out),
                Action::Store(out),
            ],
        };
        let stats = simulate(&g, &s, 3).unwrap();
        assert_eq!(stats.io(), 3);
    }

    /// Satellite regression: `Compute` must report a missing operand before
    /// noticing the cache is full — the operand loop runs first, the
    /// capacity check reads occupancy *after* it. The bitmap rewrite keeps
    /// this order; this test pins it.
    #[test]
    fn compute_missing_operand_beats_cache_full() {
        let g = tiny();
        let a = g.input_a(0, 0);
        let prod = g.products().next().unwrap();
        // M = 1: after Load(a) the cache is full, and prod's operands are
        // absent. Both errors apply; MissingOperand must win.
        let s = Schedule {
            actions: vec![Action::Load(a), Action::Compute(prod)],
        };
        assert!(matches!(
            simulate(&g, &s, 1),
            Err(SimError::MissingOperand { vertex, .. }) if vertex == prod
        ));
    }

    /// Complement of the precedence pin: with all operands present, the same
    /// full cache *is* a `CacheFull`.
    #[test]
    fn compute_cache_full_when_operands_present() {
        let g = tiny();
        let a = g.input_a(0, 0);
        let b = g.input_b(0, 0);
        let combo_a = g.succs(a)[0];
        let s = Schedule {
            actions: vec![Action::Load(a), Action::Load(b), Action::Compute(combo_a)],
        };
        assert_eq!(simulate(&g, &s, 2), Err(SimError::CacheFull(combo_a)));
    }

    /// `Load` precedence: availability, then double-caching, then capacity.
    #[test]
    fn load_error_precedence() {
        let g = tiny();
        let a = g.input_a(0, 0);
        let combo_a = g.succs(a)[0];
        // Already cached beats cache-full at M = 1.
        let s = Schedule {
            actions: vec![Action::Load(a), Action::Load(a)],
        };
        assert_eq!(simulate(&g, &s, 1), Err(SimError::AlreadyCached(a)));
        // Unavailable beats already-cached: combo_a is in cache (computed)
        // but was never stored, so it does not reside in slow memory.
        let s = Schedule {
            actions: vec![
                Action::Load(a),
                Action::Compute(combo_a),
                Action::Load(combo_a),
            ],
        };
        assert_eq!(
            simulate(&g, &s, 16),
            Err(SimError::LoadUnavailable(combo_a))
        );
    }

    #[test]
    fn store_reload_roundtrip() {
        let g = tiny();
        let a = g.input_a(0, 0);
        let b = g.input_b(0, 0);
        let combo_a = g.succs(a)[0];
        let combo_b = g.succs(b)[0];
        let prod = g.products().next().unwrap();
        let out = g.outputs().next().unwrap();
        // Store combo_a, drop it, reload it later: exercises spilling.
        let s = Schedule {
            actions: vec![
                Action::Load(a),
                Action::Compute(combo_a),
                Action::Store(combo_a),
                Action::Drop(combo_a),
                Action::Drop(a),
                Action::Load(b),
                Action::Compute(combo_b),
                Action::Drop(b),
                Action::Load(combo_a),
                Action::Compute(prod),
                Action::Drop(combo_a),
                Action::Drop(combo_b),
                Action::Compute(out),
                Action::Store(out),
            ],
        };
        let stats = simulate(&g, &s, 3).unwrap();
        assert_eq!(stats.loads, 3);
        assert_eq!(stats.stores, 2);
    }
}
