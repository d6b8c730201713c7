//! Explicit schedules: sequences of loads, stores, computations, and drops.

use mmio_cdag::VertexId;

/// One step of a schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Move a value from slow memory into cache (1 I/O). Legal only for
    /// inputs or previously stored values.
    Load(VertexId),
    /// Copy a cached value to slow memory (1 I/O). The value stays cached.
    Store(VertexId),
    /// Compute a vertex; all predecessors must be cached, the result enters
    /// the cache (0 I/O).
    Compute(VertexId),
    /// Discard a cached value without storing it (0 I/O). Discarding a value
    /// still needed later makes the schedule invalid down the line unless a
    /// stored copy exists.
    Drop(VertexId),
}

/// An explicit schedule: the exhaustive record of a run, checkable by the
/// `mmio-cert` replay (emit it with [`crate::cert::emit_schedule_certificate`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Schedule {
    /// The actions, in execution order.
    pub actions: Vec<Action>,
}

impl Schedule {
    /// An empty schedule.
    pub fn new() -> Schedule {
        Schedule::default()
    }

    /// The compute actions' vertices, in order.
    pub fn compute_order(&self) -> Vec<VertexId> {
        self.actions
            .iter()
            .filter_map(|a| match a {
                Action::Compute(v) => Some(*v),
                _ => None,
            })
            .collect()
    }

    /// Number of I/O actions (loads + stores).
    pub fn io_actions(&self) -> usize {
        self.actions
            .iter()
            .filter(|a| matches!(a, Action::Load(_) | Action::Store(_)))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::emit_schedule_certificate;
    use mmio_cdag::build::build_cdag;
    use mmio_cdag::{BaseGraph, Cdag};
    use mmio_cert::codes::{V_SCHED_INCOMPLETE, V_SCHED_MISSING_OPERAND, V_SCHED_NOT_RESIDENT};
    use mmio_cert::format::Payload;
    use mmio_cert::Verdict;
    use mmio_matrix::{Matrix, Rational};

    #[test]
    fn counting_helpers() {
        let v = VertexId(0);
        let w = VertexId(1);
        let s = Schedule {
            actions: vec![
                Action::Load(v),
                Action::Compute(w),
                Action::Store(w),
                Action::Drop(v),
            ],
        };
        assert_eq!(s.compute_order(), vec![w]);
        assert_eq!(s.io_actions(), 2);
    }

    fn tiny() -> Cdag {
        let one = Matrix::from_vec(1, 1, vec![Rational::ONE]);
        build_cdag(&BaseGraph::new("tiny", 1, one.clone(), one.clone(), one), 1)
    }

    /// Load both inputs, compute every other vertex in id order, store the
    /// output.
    fn valid(g: &Cdag) -> Schedule {
        let mut actions = vec![Action::Load(g.input_a(0, 0)), Action::Load(g.input_b(0, 0))];
        actions.extend(
            g.vertices()
                .filter(|&v| !g.is_input(v))
                .map(Action::Compute),
        );
        actions.push(Action::Store(g.outputs().next().unwrap()));
        Schedule { actions }
    }

    /// The verifier's verdict on `s` run on `g` under cache size `m`.
    fn verify(g: &Cdag, m: usize, s: &Schedule) -> Verdict {
        mmio_cert::verify(&emit_schedule_certificate(g, m, s))
    }

    /// Asserts `s` verifies and that the certificate claims `stats`.
    fn assert_certifies(g: &Cdag, m: usize, s: &Schedule, stats: crate::IoStats) {
        let cert = emit_schedule_certificate(g, m, s);
        let verdict = mmio_cert::verify(&cert);
        assert!(verdict.accepted, "M={m}: {:?}", verdict.rejections);
        let Payload::Schedule(p) = &cert.payload else {
            panic!("a schedule certificate");
        };
        assert_eq!(
            (p.loads, p.stores, p.computes),
            (stats.loads, stats.stores, stats.computes)
        );
        assert!(p.peak_occupancy <= m as u64);
    }

    #[test]
    fn valid_schedule_is_clean() {
        let g = tiny();
        let stats = crate::IoStats {
            loads: 2,
            stores: 1,
            computes: g.n_vertices() as u64 - 2,
        };
        assert_certifies(&g, 16, &valid(&g), stats);
    }

    #[test]
    fn audit_matches_reference_simulator() {
        // `run_recorded`, the path `mmio analyze` builds its witness with:
        // its schedule verifies, claiming the run's own counters.
        use crate::orders::recursive_order;
        use crate::policy::Belady;
        use crate::AutoScheduler;
        let g = build_cdag(&mmio_algos::strassen::strassen(), 2);
        let m = 24;
        let order = recursive_order(&g);
        let (stats, sched) = AutoScheduler::new(&g, m).run_recorded(&order, &Belady);
        assert_certifies(&g, m, &sched, stats);
    }

    #[test]
    fn audit_accepts_fast_engine_schedules_for_every_policy() {
        // The fast engine must emit schedules the verifier accepts for
        // every replacement policy, not just Belady — the recency list,
        // the indexed next-use heap and the dead free-list change *how*
        // victims are found, never the legality of the recorded actions.
        use crate::orders::recursive_order;
        use crate::sweep::PolicySpec;
        use crate::{AutoScheduler, RunOptions, SchedScratch, UseLists};
        let g = build_cdag(&mmio_algos::strassen::strassen(), 2);
        let order = recursive_order(&g);
        let uses = UseLists::new(&g, &order);
        let mut scratch = SchedScratch::new();
        let opts = RunOptions {
            record_schedule: true,
            record_victims: false,
        };
        for spec in [
            PolicySpec::Lru,
            PolicySpec::Belady,
            PolicySpec::Random { seed: 7 },
        ] {
            for m in [9, 24, 64] {
                let out = AutoScheduler::new(&g, m).run_prepared(
                    &order,
                    &uses,
                    &mut scratch,
                    &spec,
                    opts,
                );
                assert_certifies(&g, m, out.schedule.as_ref().unwrap(), out.stats);
            }
        }
    }

    #[test]
    fn first_violating_step_is_reported() {
        let g = tiny();
        let mut s = valid(&g);
        s.actions.insert(2, Action::Drop(g.input_a(0, 0)));
        // The combination of A is computed right after the drop: its
        // operand is missing, and the replay stops there.
        let v = verify(&g, 16, &s);
        assert_eq!(v.rejections.len(), 1, "{:?}", v.rejections);
        assert_eq!(v.rejections[0].code, V_SCHED_MISSING_OPERAND);
        assert!(v.rejections[0].detail.starts_with("action 3:"));
    }

    #[test]
    fn store_of_uncached_value_fires_not_resident() {
        let g = tiny();
        let mut s = valid(&g);
        // Store an output that is not resident yet (nothing computed it).
        s.actions
            .insert(0, Action::Store(g.outputs().next().unwrap()));
        let v = verify(&g, 16, &s);
        assert_eq!(v.rejections.len(), 1, "{:?}", v.rejections);
        assert_eq!(v.rejections[0].code, V_SCHED_NOT_RESIDENT);
        assert!(v.rejections[0].detail.starts_with("action 0:"));
    }

    #[test]
    fn missing_compute_fires_not_computed() {
        let g = tiny();
        let mut s = valid(&g);
        // Keep only the two loads: nothing gets computed.
        s.actions.truncate(2);
        let v = verify(&g, 16, &s);
        assert!(!v.accepted);
        assert!(
            v.rejections.iter().all(|r| r.code == V_SCHED_INCOMPLETE),
            "{:?}",
            v.rejections
        );
    }
}
