//! Schedule legality analysis (`MMIO-Sxxx`): an abstract interpretation of
//! an explicit pebble-game schedule.
//!
//! [`audit_schedule`] walks the action list maintaining the abstract state
//! (cache residency, slow-memory contents, computed set) and proves, step by
//! step, that every compute has its operands resident, that cache occupancy
//! never exceeds `M`, and that the terminal state has every vertex computed
//! and every output stored. The first violating step is reported with its
//! index. The implementation is written from the model rules (paper
//! Section 1) and deliberately shares no code with `mmio-pebble`'s
//! test-only `sim` replay — it is an independent re-verification, so the
//! integration tests replay the scheduler's recorded schedules through it.

use crate::codes;
use crate::diag::{Report, Severity, Span};
use mmio_cdag::Cdag;
use mmio_pebble::{Action, Schedule};

/// Counters and witnesses from a schedule audit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScheduleAudit {
    /// Loads executed before any violation.
    pub loads: u64,
    /// Stores executed before any violation.
    pub stores: u64,
    /// Computes executed before any violation.
    pub computes: u64,
    /// Maximum simultaneous cache occupancy observed.
    pub peak_occupancy: usize,
    /// Index of the first violating step, if any.
    pub first_violation: Option<usize>,
}

impl ScheduleAudit {
    /// Total I/O (loads + stores).
    pub fn io(&self) -> u64 {
        self.loads + self.stores
    }
}

/// Audits `schedule` against the machine model on `g` with cache size `m`.
///
/// Appends at most one step-level diagnostic (the first violation) plus
/// terminal-state diagnostics, and returns the counters. A schedule is legal
/// iff no [`Severity::Error`] diagnostic is appended.
pub fn audit_schedule(
    g: &Cdag,
    schedule: &Schedule,
    m: usize,
    report: &mut Report,
) -> ScheduleAudit {
    let n = g.n_vertices();
    let mut resident = vec![false; n];
    let mut occupancy = 0usize;
    let mut in_slow = vec![false; n]; // beyond the inputs, which start there
    let mut computed = vec![false; n];
    let mut audit = ScheduleAudit::default();

    for (step, &action) in schedule.actions.iter().enumerate() {
        let span = Span::Step(step);
        match action {
            Action::Load(v) => {
                if !(g.is_input(v) || in_slow[v.idx()]) {
                    report.push(
                        codes::SCHED_BAD_LOAD,
                        Severity::Error,
                        span,
                        format!("load of {v:?}, which is not in slow memory"),
                    );
                    audit.first_violation = Some(step);
                    return audit;
                }
                if resident[v.idx()] {
                    report.push(
                        codes::SCHED_BAD_LOAD,
                        Severity::Error,
                        span,
                        format!("load of {v:?}, which is already cached"),
                    );
                    audit.first_violation = Some(step);
                    return audit;
                }
                if occupancy >= m {
                    report.push_with_hint(
                        codes::SCHED_CAPACITY,
                        Severity::Error,
                        span,
                        format!("load of {v:?} into a full cache ({occupancy}/{m})"),
                        "insert a Drop or Store+Drop before this step",
                    );
                    audit.first_violation = Some(step);
                    return audit;
                }
                resident[v.idx()] = true;
                occupancy += 1;
                audit.loads += 1;
            }
            Action::Store(v) => {
                if !resident[v.idx()] {
                    report.push(
                        codes::SCHED_NOT_RESIDENT,
                        Severity::Error,
                        span,
                        format!("store of {v:?}, which is not cached"),
                    );
                    audit.first_violation = Some(step);
                    return audit;
                }
                in_slow[v.idx()] = true;
                audit.stores += 1;
            }
            Action::Drop(v) => {
                if !resident[v.idx()] {
                    report.push(
                        codes::SCHED_NOT_RESIDENT,
                        Severity::Error,
                        span,
                        format!("drop of {v:?}, which is not cached"),
                    );
                    audit.first_violation = Some(step);
                    return audit;
                }
                resident[v.idx()] = false;
                occupancy -= 1;
            }
            Action::Compute(v) => {
                if g.is_input(v) || computed[v.idx()] {
                    report.push(
                        codes::SCHED_BAD_COMPUTE,
                        Severity::Error,
                        span,
                        if g.is_input(v) {
                            format!("compute of input {v:?}")
                        } else {
                            format!("recomputation of {v:?} (the model forbids it)")
                        },
                    );
                    audit.first_violation = Some(step);
                    return audit;
                }
                if let Some(&p) = g.preds(v).iter().find(|p| !resident[p.idx()]) {
                    report.push_with_hint(
                        codes::SCHED_MISSING_OPERAND,
                        Severity::Error,
                        span,
                        format!("compute of {v:?} with operand {p:?} not resident"),
                        "load or compute the operand first",
                    );
                    audit.first_violation = Some(step);
                    return audit;
                }
                if occupancy >= m {
                    report.push_with_hint(
                        codes::SCHED_CAPACITY,
                        Severity::Error,
                        span,
                        format!("compute of {v:?} needs a free slot ({occupancy}/{m})"),
                        "insert a Drop or Store+Drop before this step",
                    );
                    audit.first_violation = Some(step);
                    return audit;
                }
                resident[v.idx()] = true;
                occupancy += 1;
                computed[v.idx()] = true;
                audit.computes += 1;
            }
        }
        audit.peak_occupancy = audit.peak_occupancy.max(occupancy);
    }

    // Terminal conditions: everything computed, every output stored.
    for v in g.vertices() {
        if !g.is_input(v) && !computed[v.idx()] {
            report.push(
                codes::SCHED_NOT_COMPUTED,
                Severity::Error,
                Span::Vertex(v.0),
                format!("{v:?} was never computed"),
            );
            break; // one witness suffices
        }
    }
    for v in g.outputs() {
        if !in_slow[v.idx()] {
            report.push_with_hint(
                codes::SCHED_OUTPUT_NOT_STORED,
                Severity::Error,
                Span::Vertex(v.0),
                format!("output {v:?} was never stored to slow memory"),
                "append Store actions for every output",
            );
            break;
        }
    }
    audit
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmio_cdag::build::build_cdag;
    use mmio_cdag::BaseGraph;
    use mmio_matrix::{Matrix, Rational};

    fn tiny() -> Cdag {
        let one = Matrix::from_vec(1, 1, vec![Rational::ONE]);
        build_cdag(&BaseGraph::new("tiny", 1, one.clone(), one.clone(), one), 1)
    }

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

    #[test]
    fn valid_schedule_is_clean() {
        let g = tiny();
        let mut report = Report::new();
        let audit = audit_schedule(&g, &valid(&g), 16, &mut report);
        assert!(!report.has_errors(), "{:?}", report.diagnostics);
        assert_eq!(audit.loads, 2);
        assert_eq!(audit.stores, 1);
        assert_eq!(audit.computes as usize, g.n_vertices() - 2);
        assert!(audit.peak_occupancy >= 3);
        assert_eq!(audit.first_violation, None);
    }

    #[test]
    fn audit_matches_reference_simulator() {
        // Cross-check the two independent implementations on a real
        // auto-generated schedule.
        use mmio_pebble::orders::recursive_order;
        use mmio_pebble::policy::Belady;
        use mmio_pebble::AutoScheduler;
        let g = build_cdag(&mmio_algos::strassen::strassen(), 2);
        let m = 24;
        let order = recursive_order(&g);
        let (stats, sched) = AutoScheduler::new(&g, m).run_recorded(&order, &Belady);
        let mut report = Report::new();
        let audit = audit_schedule(&g, &sched, m, &mut report);
        assert!(!report.has_errors(), "{:?}", report.diagnostics);
        assert_eq!(audit.loads, stats.loads);
        assert_eq!(audit.stores, stats.stores);
        assert_eq!(audit.computes, stats.computes);
        assert!(audit.peak_occupancy <= m);
    }

    #[test]
    fn audit_accepts_fast_engine_schedules_for_every_policy() {
        // The fast engine must emit schedules the auditor certifies clean
        // for every replacement policy, not just Belady — the recency
        // list, the indexed next-use heap and the dead free-list change
        // *how* victims are found, never the legality of the recorded
        // actions.
        use mmio_pebble::orders::recursive_order;
        use mmio_pebble::sweep::PolicySpec;
        use mmio_pebble::{AutoScheduler, RunOptions, SchedScratch, UseLists};
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
                let mut report = Report::new();
                let audit = audit_schedule(&g, out.schedule.as_ref().unwrap(), m, &mut report);
                assert!(
                    !report.has_errors(),
                    "{} M={m}: {:?}",
                    spec.name(),
                    report.diagnostics
                );
                assert_eq!(audit.loads, out.stats.loads);
                assert_eq!(audit.stores, out.stats.stores);
                assert_eq!(audit.computes, out.stats.computes);
                assert!(audit.peak_occupancy <= m);
                assert_eq!(audit.first_violation, None);
            }
        }
    }

    #[test]
    fn first_violating_step_is_reported() {
        let g = tiny();
        let mut s = valid(&g);
        s.actions.insert(2, Action::Drop(g.input_a(0, 0)));
        let mut report = Report::new();
        let audit = audit_schedule(&g, &s, 16, &mut report);
        // The combo of A is computed right after the drop: operand missing.
        assert!(report.has_code(codes::SCHED_MISSING_OPERAND));
        assert_eq!(audit.first_violation, Some(3));
    }

    #[test]
    fn store_of_uncached_value_fires_not_resident() {
        let g = tiny();
        let mut s = valid(&g);
        // Store an output that is not resident yet (nothing computed it).
        s.actions
            .insert(0, Action::Store(g.outputs().next().unwrap()));
        let mut report = Report::new();
        let audit = audit_schedule(&g, &s, 16, &mut report);
        assert!(report.has_code(codes::SCHED_NOT_RESIDENT));
        assert_eq!(audit.first_violation, Some(0));
    }

    #[test]
    fn missing_compute_fires_not_computed() {
        let g = tiny();
        let mut s = valid(&g);
        // Drop every action except the two loads: nothing gets computed.
        s.actions.truncate(2);
        let mut report = Report::new();
        audit_schedule(&g, &s, 16, &mut report);
        assert!(report.has_code(codes::SCHED_NOT_COMPUTED));
    }
}
