//! Virtual-scheduler models of the production concurrency, for the
//! bounded model checker.
//!
//! Model fidelity is the whole game: a paraphrased model proves nothing
//! about the real pool. [`PoolMapModel`] therefore splits the index space
//! with the very [`split_ranges`] the pool uses and mirrors `Pool::map`'s
//! control flow statement by statement: worker `w` claims from its own
//! range with one atomic `fetch_add` per step until a claim lands past the
//! range's end, then moves to range `(w + 1) % workers`, and so on through
//! every range once, then terminates. What the model checker then proves —
//! every interleaving claims every index exactly once — is a statement
//! about the algorithm the pool actually runs.
//!
//! The model also has a deliberately broken variant (a claim whose load
//! and store are separate steps). The explorer must *find* that bug: that
//! is the self-test demonstrating the checker has teeth.

use crate::explore::Model;
use mmio_parallel::pool::split_ranges;

/// One virtual worker's program counter. `k` is the worker's position in
/// its range order: worker `t` is on range `(t + k) % workers`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Pc {
    /// Atomic `fetch_add` claim (the correct pool).
    Claim { k: usize },
    /// Broken claim, load half: read the cursor, remember it.
    ClaimLoad { k: usize },
    /// Broken claim, store half: write back `i + 1` and take `i`.
    ClaimStore { k: usize, i: usize },
    /// Terminated.
    Done,
}

/// A bounded model of `Pool::map(n, f)` with `workers` virtual threads.
///
/// The output is the per-index claim count: the determinism contract is
/// `output == vec![1; n]` on every schedule. With `atomic: false` the
/// cursor claim is split into a load step and a store step — the lost
/// update the real `fetch_add` exists to prevent, which the explorer
/// demonstrably finds.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PoolMapModel {
    cursors: Vec<usize>,
    ends: Vec<usize>,
    atomic: bool,
    pcs: Vec<Pc>,
    claims: Vec<u8>,
}

impl PoolMapModel {
    /// The faithful model of `Pool::map(n, _)` at `workers` threads.
    pub fn new(n: usize, workers: usize) -> PoolMapModel {
        PoolMapModel::build(n, workers, true)
    }

    /// The broken variant: claims are a separate load and store.
    pub fn racy(n: usize, workers: usize) -> PoolMapModel {
        PoolMapModel::build(n, workers, false)
    }

    fn build(n: usize, workers: usize, atomic: bool) -> PoolMapModel {
        // `Pool::map` clamps the same way: never more workers than items,
        // never zero.
        let workers = workers.min(n).max(1);
        let ranges = split_ranges(n, workers);
        PoolMapModel {
            cursors: ranges.iter().map(|&(s, _)| s).collect(),
            ends: ranges.iter().map(|&(_, e)| e).collect(),
            atomic,
            pcs: vec![PoolMapModel::claim_pc(atomic, 0); workers],
            claims: vec![0; n],
        }
    }

    fn claim_pc(atomic: bool, k: usize) -> Pc {
        if atomic {
            Pc::Claim { k }
        } else {
            Pc::ClaimLoad { k }
        }
    }

    /// The range worker `t` claims from at order position `k`.
    fn range(&self, t: usize, k: usize) -> usize {
        (t + k) % self.pcs.len()
    }

    /// Worker `t`'s claim of `i` at order position `k` landed: record a
    /// hit and claim again, or move on to the next range after a miss.
    fn land(&mut self, t: usize, k: usize, i: usize) {
        if i < self.ends[self.range(t, k)] {
            // Cap at 3 ("three or more"): the racy variant can re-claim an
            // index unboundedly via cursor regress, and collapsing the
            // count folds those runaway futures into cycles the explorer
            // detects as livelocks instead of an infinite state space.
            self.claims[i] = (self.claims[i] + 1).min(3);
            self.pcs[t] = PoolMapModel::claim_pc(self.atomic, k);
        } else if k + 1 < self.pcs.len() {
            self.pcs[t] = PoolMapModel::claim_pc(self.atomic, k + 1);
        } else {
            self.pcs[t] = Pc::Done;
        }
    }
}

impl Model for PoolMapModel {
    type Output = Vec<u8>;

    fn threads(&self) -> usize {
        self.pcs.len()
    }

    fn enabled(&self, t: usize) -> bool {
        self.pcs[t] != Pc::Done
    }

    fn finished(&self, t: usize) -> bool {
        self.pcs[t] == Pc::Done
    }

    fn step(&mut self, t: usize) {
        match self.pcs[t] {
            Pc::Claim { k } => {
                let r = self.range(t, k);
                let i = self.cursors[r];
                self.cursors[r] += 1;
                self.land(t, k, i);
            }
            Pc::ClaimLoad { k } => {
                let i = self.cursors[self.range(t, k)];
                self.pcs[t] = Pc::ClaimStore { k, i };
            }
            Pc::ClaimStore { k, i } => {
                // The lost update: another thread may have loaded the same
                // cursor value between our load and this store.
                let r = self.range(t, k);
                self.cursors[r] = i + 1;
                self.land(t, k, i);
            }
            Pc::Done => unreachable!("stepping a finished thread"),
        }
    }

    fn next_object(&self, t: usize) -> Option<u64> {
        match self.pcs[t] {
            Pc::Claim { k } | Pc::ClaimLoad { k } | Pc::ClaimStore { k, .. } => {
                Some(self.range(t, k) as u64)
            }
            Pc::Done => None,
        }
    }

    fn output(&self) -> Vec<u8> {
        self.claims.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore, Limits};

    #[test]
    fn pool_map_model_matches_production_split() {
        let m = PoolMapModel::new(6, 2);
        assert_eq!(m.cursors, vec![0, 3]);
        assert_eq!(m.ends, vec![3, 6]);
    }

    #[test]
    fn atomic_map_is_serial_on_every_schedule() {
        for n in 1..=5 {
            let e = explore(&PoolMapModel::new(n, 2), Limits::default());
            assert!(
                e.all_equal_to(&vec![1u8; n]),
                "n={n}: outputs {:?}, deadlocks {}",
                e.outputs,
                e.deadlocks
            );
            assert!(e.schedules >= 1);
        }
    }

    #[test]
    fn racy_map_loses_updates_somewhere() {
        // The split load/store claim must produce at least one schedule
        // whose claim counts differ from serial.
        let e = explore(&PoolMapModel::racy(2, 2), Limits::default());
        assert!(
            e.outputs.iter().any(|o| o != &vec![1u8; 2]),
            "the explorer failed to find the planted lost update: {:?}",
            e.outputs
        );
    }

    #[test]
    fn por_agrees_with_full_exploration() {
        for model in [PoolMapModel::new(4, 2), PoolMapModel::racy(3, 2)] {
            let full = explore(&model, Limits::default());
            let por = explore(
                &model,
                Limits {
                    por: true,
                    ..Limits::default()
                },
            );
            let mut a = full.outputs.clone();
            let mut b = por.outputs.clone();
            a.sort();
            b.sort();
            assert_eq!(a, b, "POR must preserve the reachable outputs");
            assert_eq!(full.deadlocks, por.deadlocks);
        }
    }
}
