//! I/O accounting records.

use serde::Serialize;
use std::ops::Add;

/// The I/O and work counts of one simulated execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct IoStats {
    /// Values moved slow memory → cache.
    pub loads: u64,
    /// Values moved cache → slow memory.
    pub stores: u64,
    /// Vertices computed.
    pub computes: u64,
}

impl IoStats {
    /// Total I/O (loads + stores) — the quantity Theorem 1 bounds.
    pub fn io(&self) -> u64 {
        self.loads + self.stores
    }
}

/// Internal event counts of the fast scheduler engine — not part of the
/// model's cost accounting and never serialized, but the observables that
/// explain *why* a run was fast or slow (policy picks vs free evictions).
/// Reported by [`crate::auto::AutoScheduler::run_prepared`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Evictions decided by the replacement policy.
    pub policy_evictions: u64,
    /// Free evictions of dead values off the free-list.
    pub dead_drops: u64,
}

impl Add for IoStats {
    type Output = IoStats;
    fn add(self, rhs: IoStats) -> IoStats {
        IoStats {
            loads: self.loads + rhs.loads,
            stores: self.stores + rhs.stores,
            computes: self.computes + rhs.computes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_sums_loads_and_stores() {
        let s = IoStats {
            loads: 3,
            stores: 4,
            computes: 100,
        };
        assert_eq!(s.io(), 7);
    }

    #[test]
    fn addition() {
        let a = IoStats {
            loads: 1,
            stores: 2,
            computes: 3,
        };
        let b = IoStats {
            loads: 10,
            stores: 20,
            computes: 30,
        };
        let c = a + b;
        assert_eq!((c.loads, c.stores, c.computes), (11, 22, 33));
    }
}
