//! Cache replacement policies for the automatic scheduler.
//!
//! The model lets the scheduler choose *which* cached value to evict when
//! space is needed; the choice changes the I/O count but not validity. The
//! policies here span the design space experiment E11 compares: LRU
//! (realistic), Belady's MIN (offline-optimal eviction for a fixed compute
//! order), and random (baseline).
//!
//! A policy is a value: [`crate::auto`] matches on it and keeps the
//! structure each rule needs in its own per-run scratch. The scheduler
//! always prefers evicting *dead* values (never used again, already stored
//! if needed), which is free and policy-independent; a policy only decides
//! among *live*, unpinned candidates:
//!
//! - **LRU** evicts the minimum `(last_touch, VertexId)`: least recently
//!   touched, ties (impossible under the scheduler's monotone clock, but
//!   defined anyway) broken toward the smaller vertex id;
//! - **Belady** evicts the maximum `(next_use, Reverse(VertexId))`:
//!   farthest next use, ties broken toward the smaller vertex id;
//! - **random** seeds a `StdRng` per run and draws
//!   `gen_range(0..candidates.len())` over the candidates in
//!   cache-insertion order.

use serde::{Serialize, Value};

pub use PolicySpec::{Belady, Lru};

/// A replacement policy. Value-typed, so a sweep's grid point can be
/// shipped to a worker; the random policy carries its seed, so two runs of
/// the same spec make the same draws.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicySpec {
    /// Least-recently-used.
    Lru,
    /// Belady's MIN: evict the value whose next use is farthest in the
    /// future. Optimal eviction for a fixed compute order.
    Belady,
    /// Uniform-random eviction with a fixed seed.
    Random {
        /// Seed for the per-run `StdRng`.
        seed: u64,
    },
}

impl PolicySpec {
    /// The policy's report name.
    pub fn name(&self) -> &'static str {
        match self {
            Lru => "lru",
            Belady => "belady",
            PolicySpec::Random { .. } => "random",
        }
    }
}

impl Serialize for PolicySpec {
    fn to_value(&self) -> Value {
        match *self {
            PolicySpec::Random { seed } => Value::Object(vec![
                ("name".to_string(), Value::Str("random".to_string())),
                ("seed".to_string(), Value::UInt(seed)),
            ]),
            spec => Value::Str(spec.name().to_string()),
        }
    }
}
