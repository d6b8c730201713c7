//! The full `mmio check` suite: recorded-trace analysis, exhaustive
//! bounded model checking, detector self-tests, and the registry-wide
//! distributed-run audit, assembled into one report + JSON summary.
//!
//! Determinism contract: the summary contains no schedule-dependent
//! quantity. Recorded real-thread traces vary run to run (which worker
//! claims which index is a race by design), so the suite reports only
//! their *verdicts* (race and duplicate-claim counts — both provably
//! zero), never raw event counts; explorer statistics are exact
//! state-space counts and identical on every machine. `mmio check --json`
//! is therefore byte-identical across `--threads 1/2/8` and across runs.

use crate::explore::{explore, Exploration, Limits};
use crate::fixtures;
use crate::hb::detect_races;
use crate::lower::{lower, scan_trace};
use crate::models::PoolMapModel;
use mmio_algos::registry::all_base_graphs;
use mmio_analyze::{audit_dist_trace, codes, Report, Severity, Span};
use mmio_cdag::build::build_cdag;
use mmio_parallel::assign::{all_on_one, block_per_rank, by_top_subproblem, cyclic_per_rank};
use mmio_parallel::distsim::simulate_traced;
use mmio_parallel::events::{record, SyncTrace};
use mmio_parallel::Pool;
use mmio_pebble::orders::recursive_order;
use serde::{Serialize, Value};

/// One analyzed real-thread recording: what was checked and what the
/// detectors concluded. All counts are provably schedule-independent.
#[derive(Clone, Debug)]
pub struct TraceVerdict {
    /// What was recorded (e.g. `"pool::map 2 threads"`).
    pub name: String,
    /// Happens-before races found.
    pub races: u64,
    /// Indices claimed twice.
    pub duplicate_claims: u64,
}

/// One bounded model-checking run.
#[derive(Clone, Debug)]
pub struct ExplorerVerdict {
    /// The explored configuration (e.g. `"map n=6 workers=2"`).
    pub name: String,
    /// Distinct reachable states.
    pub states: u64,
    /// Distinct maximal schedules.
    pub schedules: u64,
    /// Distinct terminal outputs (1 = deterministic).
    pub outputs: u64,
    /// Deadlocked states.
    pub deadlocks: u64,
    /// Cycles in the state graph (schedules that can run forever).
    pub livelocks: u64,
    /// Whether every schedule reproduced the serial output.
    pub serial_equal: bool,
}

/// One detector self-test on a planted defect.
#[derive(Clone, Debug)]
pub struct SelfTest {
    /// Fixture name.
    pub name: String,
    /// The code the planted defect must fire.
    pub expected: &'static str,
    /// Whether it fired.
    pub fired: bool,
    /// Every code the fixture fired (sorted), for the curious.
    pub all_codes: Vec<String>,
}

/// The complete outcome of one `mmio check` invocation.
#[derive(Clone, Debug)]
pub struct CheckOutcome {
    /// Diagnostics from the clean-path analyses (traces, explorer,
    /// registry sweep). Planted-fixture diagnostics are *not* merged here
    /// — they are expected findings, accounted in `selftests`.
    pub report: Report,
    /// Recorded-trace verdicts.
    pub traces: Vec<TraceVerdict>,
    /// Model-checker verdicts.
    pub explorations: Vec<ExplorerVerdict>,
    /// Detector self-tests.
    pub selftests: Vec<SelfTest>,
    /// Distributed-run audits executed in the registry sweep.
    pub distsim_audits: u64,
}

impl CheckOutcome {
    /// Whether the whole suite passed: no error findings on the clean
    /// paths and every self-test fired its code.
    pub fn ok(&self) -> bool {
        !self.report.has_errors() && self.selftests.iter().all(|s| s.fired)
    }
}

/// Records one real execution and runs both trace detectors over it.
fn check_recording(name: &str, report: &mut Report, f: impl FnOnce()) -> TraceVerdict {
    let ((), trace) = record(f);
    verdict_of(name, &trace, report)
}

fn verdict_of(name: &str, trace: &SyncTrace, report: &mut Report) -> TraceVerdict {
    let hb = detect_races(&lower(trace), report);
    let scan = scan_trace(trace, report);
    TraceVerdict {
        name: name.to_string(),
        races: hb.races.len() as u64,
        duplicate_claims: scan.duplicate_claims,
    }
}

/// Runs one exploration and folds its verdict into the report.
fn check_exploration<M: crate::explore::Model>(
    name: &str,
    model: &M,
    serial: &M::Output,
    report: &mut Report,
) -> ExplorerVerdict {
    let e: Exploration<M::Output> = explore(model, Limits::default());
    if e.truncated {
        report.push(
            codes::CONC_SCHEDULE_DIVERGES,
            Severity::Warning,
            Span::Global,
            format!("{name}: state space truncated; exploration is not exhaustive"),
        );
    }
    if e.deadlocks > 0 {
        report.push(
            codes::CONC_DEADLOCK,
            Severity::Error,
            Span::Global,
            format!("{name}: {} deadlocked state(s) reachable", e.deadlocks),
        );
    }
    if e.livelocks > 0 {
        report.push(
            codes::CONC_DEADLOCK,
            Severity::Error,
            Span::Global,
            format!(
                "{name}: {} state-graph cycle(s) — some schedule never terminates",
                e.livelocks
            ),
        );
    }
    for out in e.outputs.iter().filter(|o| *o != serial) {
        report.push_with_hint(
            codes::CONC_SCHEDULE_DIVERGES,
            Severity::Error,
            Span::Global,
            format!("{name}: a schedule produced {out:?}, serial produces {serial:?}"),
            "the determinism contract must hold on every interleaving",
        );
    }
    ExplorerVerdict {
        name: name.to_string(),
        states: e.states,
        schedules: e.schedules,
        outputs: e.outputs.len() as u64,
        deadlocks: e.deadlocks,
        livelocks: e.livelocks,
        serial_equal: e.all_equal_to(serial),
    }
}

fn selftest(name: &str, expected: &'static str, report: Report) -> SelfTest {
    SelfTest {
        name: name.to_string(),
        expected,
        fired: report.has_code(expected),
        all_codes: report.codes().iter().map(|c| c.to_string()).collect(),
    }
}

/// Runs the complete check suite. The pool argument is deliberately
/// absent: the suite fixes its own thread counts so its output never
/// depends on `--threads` (that independence is itself golden-tested).
pub fn run_suite() -> CheckOutcome {
    let mut report = Report::new();
    let mut traces = Vec::new();
    let mut explorations = Vec::new();

    // 1. Recorded real executions: the instrumented pool, checked by the
    //    happens-before detector and the trace scanner.
    for threads in [2, 3] {
        traces.push(check_recording(
            &format!("pool::map {threads} threads"),
            &mut report,
            || {
                let out = Pool::new(threads).map(64, |i| i * i);
                assert_eq!(out.len(), 64);
            },
        ));
    }

    // 2. Bounded model checking: every interleaving of the virtual pool
    //    at the acceptance configurations.
    for n in 1..=6 {
        let model = PoolMapModel::new(n, 2);
        explorations.push(check_exploration(
            &format!("map n={n} workers=2"),
            &model,
            &vec![1u8; n],
            &mut report,
        ));
    }
    for n in [3, 4] {
        let model = PoolMapModel::new(n, 3);
        explorations.push(check_exploration(
            &format!("map n={n} workers=3"),
            &model,
            &vec![1u8; n],
            &mut report,
        ));
    }

    // 3. Detector self-tests on the planted defect fixtures. Their
    //    (expected) diagnostics go into throwaway reports.
    let mut selftests = Vec::new();
    {
        let mut r = Report::new();
        scan_trace(&fixtures::planted_lost_update(), &mut r);
        detect_races(&lower(&fixtures::planted_lost_update()), &mut r);
        selftests.push(selftest("planted lost update", codes::CONC_LOST_UPDATE, r));
    }
    {
        let mut r = Report::new();
        detect_races(&lower(&fixtures::planted_unjoined_read()), &mut r);
        selftests.push(selftest("planted unjoined read", codes::CONC_DATA_RACE, r));
    }
    {
        let mut r = Report::new();
        let (g, a, t) = fixtures::planted_unmatched_recv();
        audit_dist_trace(&g, &a, &t, &mut r);
        selftests.push(selftest(
            "planted unmatched recv",
            codes::DIST_UNMATCHED_RECV,
            r,
        ));
    }
    {
        // The explorer's own teeth: the broken claim must be *found*.
        // Lowered to a self-test so a silently weakened explorer fails the
        // suite.
        let e = explore(&PoolMapModel::racy(2, 2), Limits::default());
        let mut r = Report::new();
        if e.outputs.iter().any(|o| o != &vec![1u8; 2]) {
            r.push(
                codes::CONC_LOST_UPDATE,
                Severity::Error,
                Span::Global,
                "torn claim loses an update (found by exploration)",
            );
        }
        selftests.push(selftest(
            "explorer finds torn claim",
            codes::CONC_LOST_UPDATE,
            r,
        ));
    }

    // 4. Registry-wide distributed-run audit: every algorithm at r ≤ 2,
    //    several assignment strategies, every run re-verified eventwise.
    let mut distsim_audits = 0u64;
    for base in all_base_graphs() {
        for r in 1..=2u32 {
            let g = build_cdag(&base, r);
            let order = recursive_order(&g);
            let need = g.vertices().map(|v| g.preds(v).len()).max().unwrap_or(0) + 1;
            let m = need.max(16);
            let assignments = [
                cyclic_per_rank(&g, 4),
                block_per_rank(&g, 4),
                by_top_subproblem(&g, 4),
                all_on_one(&g, 4),
            ];
            for a in &assignments {
                let t = simulate_traced(&g, a, &order, m);
                let audit = audit_dist_trace(&g, a, &t, &mut report);
                distsim_audits += 1;
                debug_assert!(audit.events as u64 >= audit.execs);
            }
        }
    }

    CheckOutcome {
        report,
        traces,
        explorations,
        selftests,
        distsim_audits,
    }
}

impl Serialize for TraceVerdict {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("name".to_string(), Value::Str(self.name.clone())),
            ("races".to_string(), Value::UInt(self.races)),
            (
                "duplicate_claims".to_string(),
                Value::UInt(self.duplicate_claims),
            ),
        ])
    }
}

impl Serialize for ExplorerVerdict {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("name".to_string(), Value::Str(self.name.clone())),
            ("states".to_string(), Value::UInt(self.states)),
            ("schedules".to_string(), Value::UInt(self.schedules)),
            ("outputs".to_string(), Value::UInt(self.outputs)),
            ("deadlocks".to_string(), Value::UInt(self.deadlocks)),
            ("livelocks".to_string(), Value::UInt(self.livelocks)),
            ("serial_equal".to_string(), Value::Bool(self.serial_equal)),
        ])
    }
}

impl Serialize for SelfTest {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("name".to_string(), Value::Str(self.name.clone())),
            (
                "expected".to_string(),
                Value::Str(self.expected.to_string()),
            ),
            ("fired".to_string(), Value::Bool(self.fired)),
            (
                "all_codes".to_string(),
                Value::Array(
                    self.all_codes
                        .iter()
                        .map(|c| Value::Str(c.clone()))
                        .collect(),
                ),
            ),
        ])
    }
}

impl Serialize for CheckOutcome {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("ok".to_string(), Value::Bool(self.ok())),
            ("traces".to_string(), self.traces.to_value()),
            ("explorations".to_string(), self.explorations.to_value()),
            ("selftests".to_string(), self.selftests.to_value()),
            (
                "distsim_audits".to_string(),
                Value::UInt(self.distsim_audits),
            ),
            ("report".to_string(), self.report.to_value()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_suite_is_clean_and_deterministic() {
        let a = run_suite();
        assert!(a.ok(), "{:?}", a.report.diagnostics);
        assert_eq!(a.report.error_count(), 0);
        // Every recorded trace is race- and anomaly-free.
        for t in &a.traces {
            assert_eq!((t.races, t.duplicate_claims), (0, 0), "{}", t.name);
        }
        // Every exploration proved serial equivalence exhaustively.
        for e in &a.explorations {
            assert!(e.serial_equal, "{}: {e:?}", e.name);
            assert_eq!(e.outputs, 1);
            assert_eq!(e.deadlocks, 0);
            assert_eq!(e.livelocks, 0);
            assert!(e.schedules >= 1);
        }
        // Every self-test fired its exact code.
        for s in &a.selftests {
            assert!(s.fired, "{} must fire {}", s.name, s.expected);
        }
        assert!(a.distsim_audits > 0);
        // Byte-identical JSON on repeat runs (the CLI golden test re-checks
        // this across thread counts through the real binary).
        let b = run_suite();
        assert_eq!(
            serde_json::to_string(&a.to_value()).unwrap(),
            serde_json::to_string(&b.to_value()).unwrap()
        );
    }
}
