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
//! Each model also has a deliberately broken variant (a claim whose
//! load and store are separate steps; a memo fill outside the critical
//! section that checked the cache). The explorer must *find* those bugs:
//! that is the self-test demonstrating the checker has teeth.

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

/// One memo thread's program counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum MemoPc {
    /// Waiting for the mutex.
    Lock,
    /// Holding the mutex: check the cache.
    Check,
    /// Correct protocol: build + insert while still holding the mutex.
    Fill,
    /// Release the mutex, then terminate.
    Unlock,
    /// Buggy protocol: release after the check, remembering the verdict.
    BuggyUnlock {
        /// Whether the entry was absent at check time.
        absent: bool,
    },
    /// Buggy protocol: re-acquire the mutex to insert.
    BuggyRelock,
    /// Buggy protocol: build + insert (unconditionally — the check is
    /// stale by now).
    BuggyFill,
    /// Terminated.
    Done,
}

/// A bounded model of `RoutingMemo::class`: `threads` virtual threads all
/// requesting the same `(algorithm, k)` key.
///
/// The correct protocol checks and fills inside one critical section;
/// every schedule fills exactly once. The buggy variant re-locks between
/// check and fill (check-then-act), and the explorer finds schedules
/// where two threads both observed "absent" and both fill.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct MemoModel {
    lock_held: bool,
    present: bool,
    fills: u8,
    hits: u8,
    pcs: Vec<MemoPc>,
    // Steers only the Check transition: release-then-relock vs fill in place.
    buggy: bool,
}

impl MemoModel {
    /// The faithful model of the memo's lock-check-fill-unlock protocol.
    pub fn new(threads: usize) -> MemoModel {
        MemoModel::build(threads, false)
    }

    /// The broken check-then-act variant.
    pub fn buggy(threads: usize) -> MemoModel {
        MemoModel::build(threads, true)
    }

    fn build(threads: usize, buggy: bool) -> MemoModel {
        MemoModel {
            lock_held: false,
            present: false,
            fills: 0,
            hits: 0,
            pcs: vec![MemoPc::Lock; threads],
            buggy,
        }
    }
}

impl Model for MemoModel {
    type Output = (u8, u8);

    fn threads(&self) -> usize {
        self.pcs.len()
    }

    fn enabled(&self, t: usize) -> bool {
        match self.pcs[t] {
            MemoPc::Lock | MemoPc::BuggyRelock => !self.lock_held,
            MemoPc::Done => false,
            _ => true,
        }
    }

    fn finished(&self, t: usize) -> bool {
        self.pcs[t] == MemoPc::Done
    }

    fn step(&mut self, t: usize) {
        match self.pcs[t] {
            MemoPc::Lock | MemoPc::BuggyRelock => {
                debug_assert!(!self.lock_held);
                self.lock_held = true;
                self.pcs[t] = if self.pcs[t] == MemoPc::BuggyRelock {
                    MemoPc::BuggyFill
                } else {
                    MemoPc::Check
                };
            }
            MemoPc::Check => {
                if self.present {
                    self.hits += 1;
                    self.pcs[t] = MemoPc::Unlock;
                } else if self.buggy {
                    self.pcs[t] = MemoPc::BuggyUnlock { absent: true };
                } else {
                    self.pcs[t] = MemoPc::Fill;
                }
            }
            MemoPc::Fill | MemoPc::BuggyFill => {
                self.present = true;
                self.fills += 1;
                self.pcs[t] = MemoPc::Unlock;
            }
            MemoPc::Unlock => {
                self.lock_held = false;
                self.pcs[t] = MemoPc::Done;
            }
            MemoPc::BuggyUnlock { absent } => {
                self.lock_held = false;
                self.pcs[t] = if absent {
                    MemoPc::BuggyRelock
                } else {
                    MemoPc::Done
                };
            }
            MemoPc::Done => unreachable!("stepping a finished thread"),
        }
    }

    fn next_object(&self, t: usize) -> Option<u64> {
        match self.pcs[t] {
            MemoPc::Done => None,
            _ => Some(0), // everything contends on the one mutex/entry
        }
    }

    fn output(&self) -> (u8, u8) {
        (self.fills, self.hits)
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
    fn memo_fills_once_on_every_schedule() {
        for threads in [2, 3] {
            let e = explore(&MemoModel::new(threads), Limits::default());
            assert!(
                e.all_equal_to(&(1, threads as u8 - 1)),
                "threads={threads}: {:?}",
                e.outputs
            );
        }
    }

    #[test]
    fn buggy_memo_double_fills_somewhere() {
        let e = explore(&MemoModel::buggy(2), Limits::default());
        assert!(
            e.outputs.iter().any(|&(fills, _)| fills == 2),
            "the explorer failed to find the double fill: {:?}",
            e.outputs
        );
        assert_eq!(e.deadlocks, 0);
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
