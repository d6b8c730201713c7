//! The original dense distributed simulator, kept verbatim as the
//! equivalence oracle for the flat SoA engine (the PR 4 pebble-engine
//! playbook): per-rank `Vec<bool>` residency bitmaps and per-vertex LRU
//! stamp vectors, O(P·V) state. Slow and memory-hungry at thousands of
//! ranks, but simple enough to trust by inspection. The contract —
//! enforced by `crates/check/tests/distsim_conservation.rs` and the
//! proptest suite, the only users of this engine — is that on every
//! instance both engines can run, totals *and* the traced event stream
//! are identical.

use super::{DistEvent, DistRun, DistTrace};
use crate::assign::Assignment;
use mmio_cdag::{CdagView, VertexId};

/// The mutable machine state of one simulation.
struct Sim<'a, V: CdagView> {
    g: &'a V,
    m: usize,
    in_cache: Vec<Vec<bool>>,
    stamp: Vec<Vec<u64>>,
    cache_members: Vec<Vec<VertexId>>,
    clock: u64,
    sent: Vec<u64>,
    received: Vec<u64>,
    local_io: Vec<u64>,
    total_words: u64,
    events: Option<Vec<DistEvent>>,
}

impl<'a, V: CdagView> Sim<'a, V> {
    fn new(g: &'a V, p: usize, m: usize, traced: bool) -> Sim<'a, V> {
        let need = g.max_indegree() + 1;
        assert!(m >= need, "local cache {m} cannot hold operands ({need})");
        let n = g.n_vertices();
        Sim {
            g,
            m,
            in_cache: vec![vec![false; n]; p],
            stamp: vec![vec![0u64; n]; p],
            cache_members: vec![Vec::new(); p],
            clock: 0,
            sent: vec![0; p],
            received: vec![0; p],
            local_io: vec![0; p],
            total_words: 0,
            events: traced.then(Vec::new),
        }
    }

    fn push(&mut self, e: DistEvent) {
        if let Some(ev) = &mut self.events {
            ev.push(e);
        }
    }

    /// Touches `v` in `proc`'s cache. On a miss: evicts the LRU entry if
    /// full, accounts a network transfer when `from` names a different
    /// owner, inserts `v`, and charges a local I/O iff `charge`.
    ///
    /// Event order on a miss: `Evict?`, `Send`+`Recv` (remote only),
    /// `Insert` — i.e. the word is on the wire before it lands in cache.
    fn touch(&mut self, proc: usize, v: VertexId, charge: bool, from: Option<usize>) {
        self.clock += 1;
        if self.in_cache[proc][v.idx()] {
            self.stamp[proc][v.idx()] = self.clock;
            return; // hit
        }
        // Miss: evict LRU if full.
        if self.cache_members[proc].len() >= self.m {
            let (pos, _) = self.cache_members[proc]
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| self.stamp[proc][w.idx()])
                .expect("cache nonempty");
            let victim = self.cache_members[proc].swap_remove(pos);
            self.in_cache[proc][victim.idx()] = false;
            self.push(DistEvent::Evict {
                proc: proc as u32,
                v: victim.idx() as u32,
            });
        }
        if let Some(owner) = from {
            if owner != proc {
                // The word came over the network.
                self.sent[owner] += 1;
                self.received[proc] += 1;
                self.total_words += 1;
                self.push(DistEvent::Send {
                    from: owner as u32,
                    to: proc as u32,
                    v: v.idx() as u32,
                });
                self.push(DistEvent::Recv {
                    to: proc as u32,
                    from: owner as u32,
                    v: v.idx() as u32,
                });
            }
        }
        self.in_cache[proc][v.idx()] = true;
        self.stamp[proc][v.idx()] = self.clock;
        self.cache_members[proc].push(v);
        if charge {
            self.local_io[proc] += 1;
        }
        self.push(DistEvent::Insert {
            proc: proc as u32,
            v: v.idx() as u32,
            charged: charge,
        });
    }

    fn run(&mut self, assignment: &Assignment, order: &[VertexId]) {
        let mut preds = Vec::with_capacity(self.g.max_indegree());
        for &v in order {
            let me = assignment.of(v) as usize;
            preds.clear();
            self.g.preds_into(v, &mut preds);
            for &op in &preds {
                let owner = assignment.of(op) as usize;
                self.touch(me, op, true, Some(owner));
            }
            if !preds.is_empty() {
                self.push(DistEvent::Exec {
                    proc: me as u32,
                    v: v.idx() as u32,
                });
            }
            // The result occupies a slot; computing into cache is free.
            self.touch(me, v, false, None);
        }
    }

    fn totals(&self) -> DistRun {
        DistRun {
            total_words: self.total_words,
            critical_path_words: self
                .sent
                .iter()
                .zip(&self.received)
                .map(|(&s, &r)| s + r)
                .max()
                .unwrap_or(0),
            max_local_io: self.local_io.iter().copied().max().unwrap_or(0),
            total_local_io: self.local_io.iter().sum(),
        }
    }
}

/// Simulates `order` under `assignment` with per-processor LRU caches of
/// size `m` — the dense oracle engine.
///
/// # Panics
/// Panics if `m` cannot hold any vertex's operand set.
pub fn simulate<V: CdagView>(
    g: &V,
    assignment: &Assignment,
    order: &[VertexId],
    m: usize,
) -> DistRun {
    let mut sim = Sim::new(g, assignment.p as usize, m, false);
    sim.run(assignment, order);
    sim.totals()
}

/// Like [`simulate`], but also records the machine-level event stream.
///
/// # Panics
/// Panics if `m` cannot hold any vertex's operand set.
pub fn simulate_traced<V: CdagView>(
    g: &V,
    assignment: &Assignment,
    order: &[VertexId],
    m: usize,
) -> DistTrace {
    let mut sim = Sim::new(g, assignment.p as usize, m, true);
    sim.run(assignment, order);
    DistTrace {
        p: assignment.p,
        m,
        claimed: sim.totals(),
        sent: std::mem::take(&mut sim.sent),
        received: std::mem::take(&mut sim.received),
        events: sim.events.take().expect("traced"),
        contention: None,
    }
}
