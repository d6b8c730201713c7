//! Happens-before race detection over lowered sync traces.
//!
//! The classic vector-clock algorithm (the full-clock variant FastTrack
//! optimizes): every thread carries a [`VectorClock`], every sync object a
//! release clock, and every shared location a read clock and a write
//! clock. Acquires join the sync object's clock into the thread; releases
//! publish the thread's clock (and tick it, so later same-thread work is
//! not confused with the released epoch). A read races with an unordered
//! prior write; a write races with an unordered prior read *or* write.
//!
//! Races are reported as `MMIO-C001` diagnostics through `mmio-analyze`'s
//! framework, naming both access sites (event indices in the lowered
//! trace) so a finding can be traced back to the recording.

use crate::lower::{AccessKind, Loc, Op, OpKind};
use mmio_analyze::{codes, Report, Severity, Span};
use std::collections::HashMap;

/// A per-thread logical clock: `vc[t]` counts thread `t`'s epochs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VectorClock(Vec<u32>);

impl VectorClock {
    /// The zero clock.
    pub fn new() -> VectorClock {
        VectorClock::default()
    }

    /// Component for thread `t` (0 if never touched).
    pub fn get(&self, t: usize) -> u32 {
        self.0.get(t).copied().unwrap_or(0)
    }

    /// Sets component `t`.
    pub fn set(&mut self, t: usize, v: u32) {
        if self.0.len() <= t {
            self.0.resize(t + 1, 0);
        }
        self.0[t] = v;
    }

    /// Pointwise maximum: `self ⊔= other`.
    pub fn join(&mut self, other: &VectorClock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (a, &b) in self.0.iter_mut().zip(&other.0) {
            *a = (*a).max(b);
        }
    }

    /// Whether `self ⊑ other` pointwise (self happened before other's view).
    pub fn le(&self, other: &VectorClock) -> bool {
        self.0.iter().enumerate().all(|(t, &v)| v <= other.get(t))
    }

    /// Increments component `t`.
    pub fn tick(&mut self, t: usize) {
        let v = self.get(t);
        self.set(t, v + 1);
    }
}

/// One detected race: two accesses to the same location with no
/// happens-before edge between them.
#[derive(Clone, Debug)]
pub struct Race {
    /// The location both accesses touch.
    pub loc: Loc,
    /// Index (into the lowered op list) of the earlier access.
    pub prior_op: usize,
    /// Index of the racing access.
    pub op: usize,
    /// Thread of the racing access.
    pub thread: u32,
    /// Kind of the racing access.
    pub kind: AccessKind,
}

/// Result counters of one happens-before analysis.
#[derive(Clone, Debug, Default)]
pub struct HbAnalysis {
    /// Ops processed.
    pub ops: usize,
    /// Distinct sync objects seen.
    pub sync_objects: usize,
    /// Distinct shared locations seen.
    pub locations: usize,
    /// All races found, in detection order.
    pub races: Vec<Race>,
}

/// Per-location access history: last-writer and last-readers clocks plus
/// the op index of the most recent access of each kind (for reporting).
#[derive(Clone, Debug, Default)]
struct LocState {
    write: VectorClock,
    read: VectorClock,
    last_write_op: usize,
    last_read_op: usize,
}

/// Runs the vector-clock analysis over `ops`, pushing one `MMIO-C001`
/// diagnostic per race into `report`.
pub fn detect_races(ops: &[Op], report: &mut Report) -> HbAnalysis {
    let mut analysis = HbAnalysis::default();
    let mut threads: Vec<VectorClock> = Vec::new();
    let mut syncs: HashMap<u64, VectorClock> = HashMap::new();
    let mut locs: HashMap<Loc, LocState> = HashMap::new();

    let clock = |threads: &mut Vec<VectorClock>, t: usize| {
        if threads.len() <= t {
            threads.resize_with(t + 1, || {
                // Each thread starts with its own component at 1 so that
                // epoch 0 (the zero clock) is ordered before everything.
                VectorClock::new()
            });
        }
        if threads[t].get(t) == 0 {
            threads[t].tick(t);
        }
        t
    };

    for (i, op) in ops.iter().enumerate() {
        analysis.ops += 1;
        let t = clock(&mut threads, op.thread as usize);
        match op.kind {
            OpKind::Acquire(s) => {
                if let Some(l) = syncs.get(&s) {
                    let l = l.clone();
                    threads[t].join(&l);
                }
                syncs.entry(s).or_default();
            }
            OpKind::Release(s) => {
                let c = threads[t].clone();
                syncs.insert(s, c);
                threads[t].tick(t);
            }
            OpKind::Rmw(s) => {
                // Atomic read-modify-write: acquire + release in one step.
                if let Some(l) = syncs.get(&s) {
                    let l = l.clone();
                    threads[t].join(&l);
                }
                syncs.insert(s, threads[t].clone());
                threads[t].tick(t);
            }
            OpKind::Access(loc, kind) => {
                let st = locs.entry(loc).or_default();
                let c = &threads[t];
                let mut racy_with: Option<usize> = None;
                if !st.write.le(c) {
                    racy_with = Some(st.last_write_op);
                }
                if kind == AccessKind::Write && racy_with.is_none() && !st.read.le(c) {
                    racy_with = Some(st.last_read_op);
                }
                if let Some(prior) = racy_with {
                    report.push_with_hint(
                        codes::CONC_DATA_RACE,
                        Severity::Error,
                        Span::Thread(op.thread),
                        format!(
                            "{kind:?} of {loc:?} at op {i} is unordered with op {prior} \
                             (no happens-before edge)",
                        ),
                        "order the accesses through a release/acquire pair or a join",
                    );
                    analysis.races.push(Race {
                        loc,
                        prior_op: prior,
                        op: i,
                        thread: op.thread,
                        kind,
                    });
                }
                match kind {
                    AccessKind::Read => {
                        let v = c.get(t);
                        st.read.set(t, v);
                        st.last_read_op = i;
                    }
                    AccessKind::Write => {
                        let v = c.get(t);
                        st.write.set(t, v);
                        st.last_write_op = i;
                    }
                }
            }
        }
    }
    analysis.sync_objects = syncs.len();
    analysis.locations = locs.len();
    analysis
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::{AccessKind::*, Loc, Op, OpKind::*};

    fn op(thread: u32, kind: crate::lower::OpKind) -> Op {
        Op { thread, kind }
    }

    #[test]
    fn ordered_write_read_is_clean() {
        // t0 writes, releases s; t1 acquires s, reads. Classic handoff.
        let ops = vec![
            op(0, Access(Loc::Item(3), Write)),
            op(0, Release(1)),
            op(1, Acquire(1)),
            op(1, Access(Loc::Item(3), Read)),
        ];
        let mut r = Report::new();
        let a = detect_races(&ops, &mut r);
        assert!(a.races.is_empty(), "{:?}", a.races);
        assert!(!r.has_errors());
    }

    #[test]
    fn unordered_write_read_races() {
        let ops = vec![
            op(0, Access(Loc::Item(3), Write)),
            op(1, Access(Loc::Item(3), Read)),
        ];
        let mut r = Report::new();
        let a = detect_races(&ops, &mut r);
        assert_eq!(a.races.len(), 1);
        assert_eq!(a.races[0].prior_op, 0);
        assert_eq!(a.races[0].op, 1);
        assert!(r.has_code(mmio_analyze::codes::CONC_DATA_RACE));
    }

    #[test]
    fn unordered_write_write_races() {
        let ops = vec![
            op(0, Access(Loc::Item(9), Write)),
            op(1, Access(Loc::Item(9), Write)),
        ];
        let mut r = Report::new();
        assert_eq!(detect_races(&ops, &mut r).races.len(), 1);
    }

    #[test]
    fn read_read_never_races() {
        let ops = vec![
            op(0, Access(Loc::Item(0), Read)),
            op(1, Access(Loc::Item(0), Read)),
            op(2, Access(Loc::Item(0), Read)),
        ];
        let mut r = Report::new();
        assert!(detect_races(&ops, &mut r).races.is_empty());
    }

    #[test]
    fn distinct_locations_never_race() {
        let ops = vec![
            op(0, Access(Loc::Item(0), Write)),
            op(1, Access(Loc::Item(1), Write)),
        ];
        let mut r = Report::new();
        assert!(detect_races(&ops, &mut r).races.is_empty());
    }

    #[test]
    fn rmw_chain_orders_both_directions() {
        // Two threads alternating RMWs on the same atomic are ordered by
        // the RMW chain; their guarded accesses do not race.
        let ops = vec![
            op(0, Access(Loc::Item(0), Write)),
            op(0, Rmw(5)),
            op(1, Rmw(5)),
            op(1, Access(Loc::Item(0), Write)),
        ];
        let mut r = Report::new();
        assert!(detect_races(&ops, &mut r).races.is_empty());
    }

    #[test]
    fn release_without_acquire_does_not_order() {
        // t1 never acquires s, so the write handoff fails: race.
        let ops = vec![
            op(0, Access(Loc::Item(2), Write)),
            op(0, Release(1)),
            op(1, Access(Loc::Item(2), Read)),
        ];
        let mut r = Report::new();
        assert_eq!(detect_races(&ops, &mut r).races.len(), 1);
    }

    #[test]
    fn mutex_protocol_is_clean() {
        // Lock/unlock as acquire/release on the same sync object.
        let ops = vec![
            op(0, Acquire(1)),
            op(0, Access(Loc::Item(4), Write)),
            op(0, Release(1)),
            op(1, Acquire(1)),
            op(1, Access(Loc::Item(4), Read)),
            op(1, Release(1)),
        ];
        let mut r = Report::new();
        assert!(detect_races(&ops, &mut r).races.is_empty());
    }

    #[test]
    fn clock_algebra() {
        let mut a = VectorClock::new();
        a.set(0, 3);
        a.set(2, 1);
        let mut b = VectorClock::new();
        b.set(0, 2);
        b.set(1, 5);
        assert!(!a.le(&b) && !b.le(&a));
        let mut j = a.clone();
        j.join(&b);
        assert!(a.le(&j) && b.le(&j));
        assert_eq!(j.get(0), 3);
        assert_eq!(j.get(1), 5);
        assert_eq!(j.get(2), 1);
    }
}
