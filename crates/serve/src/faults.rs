//! Deterministic fault injection for the serve tier.
//!
//! Every failure mode the server claims to survive is *injected* here and
//! proven recovered in `tests/fault_suite.rs` and `tests/crash_restart.rs`,
//! which CI's blocking `serve-faults` job runs — the same philosophy as
//! `mmio-cert`'s mutation harness: a recovery path that has never fired is
//! assumed broken.
//!
//! The injection point is the [`FaultHook`] trait, consulted by
//! [`crate::cache::DiskCache`] at every persist attempt and read attempt,
//! and by the job workers before running a request. The production hook is
//! [`NoFaults`] (every method compiles to a constant); tests install a
//! [`ScriptedFaults`] whose directives are consumed in call order, so a
//! fault schedule is replayable byte-for-byte. [`FaultPlan::seeded`]
//! generates scripts from a seed for randomized-but-reproducible campaigns.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Duration;

/// What a persist attempt should do instead of completing normally.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PersistFault {
    /// Persist normally.
    None,
    /// Write only the first `keep_bytes` of the temp file, skip the rename,
    /// and report success — a torn write: the entry is silently missing and
    /// the orphaned temp must be swept by the next recovery scan.
    TornTemp {
        /// Bytes of the serialized entry actually written.
        keep_bytes: usize,
    },
    /// Write the whole temp file but never rename it — a crash between
    /// write and publish.
    SkipRename,
    /// Write `keep_bytes` of the temp file and abort the process — the
    /// kill-mid-persist half of a crash/restart cycle (only the child
    /// process of `tests/crash_restart.rs` ever runs this).
    AbortProcess {
        /// Bytes written before the simulated kill.
        keep_bytes: usize,
    },
    /// Fail this attempt with a transient `io::Error` (the retry loop will
    /// consult the hook again on the next attempt).
    TransientError,
}

/// What a read attempt should do instead of completing normally.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadFault {
    /// Read normally.
    None,
    /// Fail this attempt with a transient `io::Error`.
    TransientError,
}

/// Injection points consulted by the cache and the workers. The default
/// implementation of every method is the no-fault behavior, so production
/// code pays one dynamic call per I/O operation and nothing else.
pub trait FaultHook: Send + Sync {
    /// Consulted once per persist *attempt* (so retries re-consult).
    fn persist_fault(&self, _kind: &str, _key: u64) -> PersistFault {
        PersistFault::None
    }

    /// Consulted once per read *attempt*.
    fn read_fault(&self, _kind: &str, _key: u64) -> ReadFault {
        ReadFault::None
    }

    /// Extra latency injected into a job before it executes (a slow or
    /// wedged task). `None` means run immediately.
    fn wedge(&self, _op: &str) -> Option<Duration> {
        None
    }

    /// Whether this job should panic instead of executing — drills the
    /// per-job panic isolation ([`crate::codes::SERVE_JOB_PANIC`]).
    fn panic_job(&self, _op: &str) -> bool {
        false
    }
}

/// The production hook: no faults, ever.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoFaults;

impl FaultHook for NoFaults {}

/// A fully deterministic hook: three scripts (persist, read, wedge) whose
/// directives are consumed strictly in call order; an exhausted script
/// behaves like [`NoFaults`]. Tests assert afterwards that every directive
/// fired via [`ScriptedFaults::remaining`].
#[derive(Debug, Default)]
pub struct ScriptedFaults {
    persist: Mutex<VecDeque<PersistFault>>,
    read: Mutex<VecDeque<ReadFault>>,
    wedge: Mutex<VecDeque<Option<Duration>>>,
    panic_jobs: Mutex<VecDeque<bool>>,
}

impl ScriptedFaults {
    /// An empty script (equivalent to [`NoFaults`] until extended).
    pub fn new() -> ScriptedFaults {
        ScriptedFaults::default()
    }

    /// Appends persist directives, consumed in order by successive persist
    /// attempts.
    pub fn script_persists(self, faults: impl IntoIterator<Item = PersistFault>) -> Self {
        self.persist
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .extend(faults);
        self
    }

    /// Appends read directives, consumed in order by successive read
    /// attempts.
    pub fn script_reads(self, faults: impl IntoIterator<Item = ReadFault>) -> Self {
        self.read
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .extend(faults);
        self
    }

    /// Appends wedge directives, consumed in order by successive jobs.
    pub fn script_wedges(self, wedges: impl IntoIterator<Item = Option<Duration>>) -> Self {
        self.wedge
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .extend(wedges);
        self
    }

    /// Appends panic directives, consumed in order by successive jobs.
    pub fn script_panics(self, panics: impl IntoIterator<Item = bool>) -> Self {
        self.panic_jobs
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .extend(panics);
        self
    }

    /// `(persist, read, wedge)` directives not yet consumed — all zero
    /// after a harness run that exercised its whole script.
    pub fn remaining(&self) -> (usize, usize, usize) {
        let p = self
            .persist
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len();
        let r = self
            .read
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len();
        let w = self
            .wedge
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len();
        (p, r, w)
    }
}

impl FaultHook for ScriptedFaults {
    fn persist_fault(&self, _kind: &str, _key: u64) -> PersistFault {
        self.persist
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .pop_front()
            .unwrap_or(PersistFault::None)
    }

    fn read_fault(&self, _kind: &str, _key: u64) -> ReadFault {
        self.read
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .pop_front()
            .unwrap_or(ReadFault::None)
    }

    fn wedge(&self, _op: &str) -> Option<Duration> {
        self.wedge
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .pop_front()
            .unwrap_or(None)
    }

    fn panic_job(&self, _op: &str) -> bool {
        self.panic_jobs
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .pop_front()
            .unwrap_or(false)
    }
}

/// A seeded campaign generator: expands a seed into a [`ScriptedFaults`]
/// script of `ops` persist directives and `ops` read directives drawn
/// uniformly from the *recoverable* fault classes (torn temps, skipped
/// renames, transient errors — never `AbortProcess`). The same seed always
/// produces the same script, so a failing campaign is replayable from its
/// seed alone.
pub struct FaultPlan;

impl FaultPlan {
    /// The deterministic script for `seed`.
    pub fn seeded(seed: u64, ops: usize) -> ScriptedFaults {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut persists = Vec::with_capacity(ops);
        let mut reads = Vec::with_capacity(ops);
        for _ in 0..ops {
            persists.push(match rng.gen_range(0..4u32) {
                0 => PersistFault::None,
                1 => PersistFault::TornTemp {
                    keep_bytes: rng.gen_range(0..64usize),
                },
                2 => PersistFault::SkipRename,
                _ => PersistFault::TransientError,
            });
            reads.push(if rng.gen_bool(0.25) {
                ReadFault::TransientError
            } else {
                ReadFault::None
            });
        }
        ScriptedFaults::new()
            .script_persists(persists)
            .script_reads(reads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_consume_in_order_then_default() {
        let s = ScriptedFaults::new()
            .script_persists([PersistFault::SkipRename, PersistFault::TransientError])
            .script_reads([ReadFault::TransientError]);
        assert_eq!(s.persist_fault("x", 0), PersistFault::SkipRename);
        assert_eq!(s.persist_fault("x", 0), PersistFault::TransientError);
        assert_eq!(s.persist_fault("x", 0), PersistFault::None);
        assert_eq!(s.read_fault("x", 0), ReadFault::TransientError);
        assert_eq!(s.read_fault("x", 0), ReadFault::None);
        assert_eq!(s.remaining(), (0, 0, 0));
    }

    #[test]
    fn seeded_plans_are_reproducible() {
        let a = FaultPlan::seeded(42, 32);
        let b = FaultPlan::seeded(42, 32);
        for _ in 0..32 {
            assert_eq!(a.persist_fault("k", 1), b.persist_fault("k", 1));
            assert_eq!(a.read_fault("k", 1), b.read_fault("k", 1));
        }
        // A different seed diverges somewhere in 32 draws.
        let a = FaultPlan::seeded(42, 32);
        let c = FaultPlan::seeded(43, 32);
        let mut diverged = false;
        for _ in 0..32 {
            diverged |= a.persist_fault("k", 1) != c.persist_fault("k", 1);
        }
        assert!(diverged, "seeds 42 and 43 produced identical scripts");
    }
}
