//! Exact minimum-I/O search: the red–blue pebble game solved optimally for
//! tiny CDAGs.
//!
//! The I/O-complexity in the paper is a minimum over *all* schedules; the
//! automatic scheduler only explores one compute order at a time. For tiny
//! graphs we can search the full game tree (0-1 Dijkstra over pebbling
//! states) and obtain the true optimum, which validates the scheduler from
//! below and gives exact small-case data points.

use mmio_cdag::Cdag;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

/// Upper limit on vertex count for the exact search (the state space is
/// exponential).
pub const MAX_VERTICES: usize = 24;

/// State: bitmasks over vertices (computed, cached, stored).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct State {
    computed: u32,
    cached: u32,
    stored: u32,
}

/// Computes the exact minimum I/O to evaluate `g` with cache size `m`.
/// Returns `None` if the graph is too large or the search exceeds
/// `state_limit` states.
///
/// Moves: load (input or stored, 1 I/O), store (1 I/O), compute (free),
/// drop (free). 0-1 BFS keeps the frontier ordered by I/O cost.
pub fn min_io(g: &Cdag, m: usize, state_limit: usize) -> Option<u64> {
    let n = g.n_vertices();
    if n > MAX_VERTICES {
        return None;
    }
    let input_mask: u32 = g
        .vertices()
        .filter(|&v| g.is_input(v))
        .fold(0, |acc, v| acc | (1 << v.idx()));
    let output_mask: u32 = g.outputs().fold(0, |acc, v| acc | (1 << v.idx()));
    let pred_masks: Vec<u32> = g
        .vertices()
        .map(|v| g.preds(v).iter().fold(0u32, |acc, p| acc | (1 << p.idx())))
        .collect();

    let start = State {
        computed: input_mask, // inputs are "available" from the start
        cached: 0,
        stored: input_mask, // and live in slow memory
    };
    let mut dist: HashMap<State, u64> = HashMap::new();
    dist.insert(start, 0);
    let mut queue: VecDeque<(State, u64)> = VecDeque::new();
    queue.push_back((start, 0));

    while let Some((state, d)) = queue.pop_front() {
        if dist.get(&state) != Some(&d) {
            continue; // stale entry
        }
        // Goal: every vertex computed and every output stored.
        if state.computed.count_ones() as usize == n && state.stored & output_mask == output_mask {
            return Some(d);
        }
        if dist.len() > state_limit {
            return None;
        }

        let cache_len = state.cached.count_ones() as usize;
        let push = |next: State,
                    cost: u64,
                    queue: &mut VecDeque<(State, u64)>,
                    dist: &mut HashMap<State, u64>| {
            let nd = d + cost;
            match dist.entry(next) {
                Entry::Occupied(mut e) => {
                    if *e.get() > nd {
                        e.insert(nd);
                        if cost == 0 {
                            queue.push_front((next, nd));
                        } else {
                            queue.push_back((next, nd));
                        }
                    }
                }
                Entry::Vacant(e) => {
                    e.insert(nd);
                    if cost == 0 {
                        queue.push_front((next, nd));
                    } else {
                        queue.push_back((next, nd));
                    }
                }
            }
        };

        for (v, &pmask) in pred_masks.iter().enumerate() {
            let bit = 1u32 << v;
            // Compute (free): not yet computed, preds cached, slot free.
            if state.computed & bit == 0 && state.cached & pmask == pmask && cache_len < m {
                push(
                    State {
                        computed: state.computed | bit,
                        cached: state.cached | bit,
                        stored: state.stored,
                    },
                    0,
                    &mut queue,
                    &mut dist,
                );
            }
            // Load (1 I/O): in slow memory, not cached, slot free.
            if state.stored & bit != 0 && state.cached & bit == 0 && cache_len < m {
                push(
                    State {
                        computed: state.computed,
                        cached: state.cached | bit,
                        stored: state.stored,
                    },
                    1,
                    &mut queue,
                    &mut dist,
                );
            }
            // Store (1 I/O): cached, not yet stored.
            if state.cached & bit != 0 && state.stored & bit == 0 {
                push(
                    State {
                        computed: state.computed,
                        cached: state.cached,
                        stored: state.stored | bit,
                    },
                    1,
                    &mut queue,
                    &mut dist,
                );
            }
            // Drop (free): cached.
            if state.cached & bit != 0 {
                push(
                    State {
                        computed: state.computed,
                        cached: state.cached & !bit,
                        stored: state.stored,
                    },
                    0,
                    &mut queue,
                    &mut dist,
                );
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auto::AutoScheduler;
    use crate::orders;
    use crate::policy::Belady;
    use mmio_cdag::build::build_cdag;
    use mmio_cdag::BaseGraph;
    use mmio_matrix::{Matrix, Rational};

    fn tiny() -> Cdag {
        let one = Matrix::from_vec(1, 1, vec![Rational::ONE]);
        build_cdag(&BaseGraph::new("tiny", 1, one.clone(), one.clone(), one), 1)
    }

    #[test]
    fn tiny_optimum_is_compulsory_io() {
        // 2 input loads + 1 output store; everything else fits (m=4).
        let g = tiny();
        assert_eq!(min_io(&g, 4, 1_000_000), Some(3));
    }

    #[test]
    fn tiny_with_minimal_cache() {
        // m=3 still admits the drop-based schedule of the sim tests.
        let g = tiny();
        assert_eq!(min_io(&g, 3, 1_000_000), Some(3));
    }

    #[test]
    fn optimum_lower_bounds_scheduler() {
        let g = tiny();
        let order = orders::recursive_order(&g);
        for m in [3usize, 4, 8] {
            let auto = AutoScheduler::new(&g, m).run(&order, &Belady);
            let opt = min_io(&g, m, 1_000_000).unwrap();
            assert!(
                opt <= auto.io(),
                "m={m}: optimum {opt} > auto {}",
                auto.io()
            );
        }
    }

    #[test]
    fn too_large_graph_rejected() {
        let base = crate::testutil::classical2_base();
        let g = build_cdag(&base, 2);
        assert_eq!(min_io(&g, 8, 1_000), None);
    }
}
