//! Pooled batch sweeps of the automatic scheduler over (order × policy × M)
//! grids.
//!
//! Every experiment on the upper-bound side (E1, E8, E11, E13) is a grid of
//! independent scheduler runs. This module fans such a grid over
//! [`mmio_parallel::Pool`] with two guarantees:
//!
//! - **Determinism.** Each grid point is a pure function of `(graph, order,
//!   policy, M)`: a [`PolicySpec`] is a value, and the random policy carries
//!   its seed rather than sharing an RNG. `Pool::map` returns results in
//!   index order, so a sweep's output vector is byte-identical at any
//!   thread count.
//! - **One prepare per order.** The caller builds each order's
//!   [`UseLists`] once per call and every worker reads them; a grid point
//!   allocates only its per-run [`SchedScratch`], which is sized by
//!   `min(M, n)` and by the vertex count, never by `M` alone.
//!
//! Infeasible grid points (`M < max_indegree + 1`) report a typed
//! [`SweepError`] in their slot instead of aborting the sweep — the
//! scheduler is constructed with [`AutoScheduler::try_with_uses`].

use crate::auto::{AutoScheduler, RunOptions, SchedScratch, UseLists};
pub use crate::policy::PolicySpec;
use crate::stats::{EngineCounters, IoStats};
use mmio_cdag::{Cdag, VertexId};
use mmio_parallel::Pool;
use serde::{Serialize, Value};

/// One cell of a sweep grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct GridPoint {
    /// Index into the sweep's `orders` slice.
    pub order: usize,
    /// The policy specification.
    pub policy: PolicySpec,
    /// Cache size.
    pub m: usize,
}

/// Why a grid point could not run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepError {
    /// `M` cannot hold an operand set: the scheduler needs `need` slots.
    CacheTooSmall {
        /// The requested cache size.
        m: usize,
        /// The minimum feasible cache size.
        need: usize,
    },
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            SweepError::CacheTooSmall { m, need } => {
                write!(
                    f,
                    "cache size {m} cannot hold an operand set ({need} needed)"
                )
            }
        }
    }
}

impl std::error::Error for SweepError {}

impl Serialize for SweepError {
    fn to_value(&self) -> Value {
        match *self {
            SweepError::CacheTooSmall { m, need } => Value::Object(vec![
                (
                    "error".to_string(),
                    Value::Str("cache_too_small".to_string()),
                ),
                ("m".to_string(), Value::UInt(m as u64)),
                ("need".to_string(), Value::UInt(need as u64)),
            ]),
        }
    }
}

/// The measurements of one successful grid point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepRun {
    /// Exact I/O statistics.
    pub stats: IoStats,
    /// Fast-engine event counters for this run.
    pub counters: EngineCounters,
}

/// Serializes the model's observables only: the engine's counters
/// describe how it got there, not what it measured.
impl Serialize for SweepRun {
    fn to_value(&self) -> Value {
        Value::Object(vec![("stats".to_string(), self.stats.to_value())])
    }
}

/// One sweep result: the grid point plus its outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepPoint {
    /// The grid cell this result belongs to.
    pub point: GridPoint,
    /// The run's measurements, or why it could not run.
    pub result: Result<SweepRun, SweepError>,
}

impl Serialize for SweepPoint {
    fn to_value(&self) -> Value {
        let result = match &self.result {
            Ok(run) => run.to_value(),
            Err(e) => e.to_value(),
        };
        Value::Object(vec![
            ("point".to_string(), self.point.to_value()),
            ("result".to_string(), result),
        ])
    }
}

impl SweepPoint {
    /// The run's [`IoStats`], panicking on an infeasible point — the
    /// convenience accessor for experiment bins whose grids are known
    /// feasible.
    pub fn stats(&self) -> IoStats {
        match self.result {
            Ok(run) => run.stats,
            Err(e) => panic!("grid point {:?} failed: {e}", self.point),
        }
    }
}

/// Runs the full `orders × policies × ms` grid (order-major, then policy,
/// then M) on `pool` and returns one [`SweepPoint`] per cell, in grid
/// order. The output is identical for every thread count.
pub fn sweep(
    g: &Cdag,
    orders: &[&[VertexId]],
    policies: &[PolicySpec],
    ms: &[usize],
    pool: &Pool,
) -> Vec<SweepPoint> {
    let mut grid: Vec<GridPoint> = Vec::with_capacity(orders.len() * policies.len() * ms.len());
    for order in 0..orders.len() {
        for &policy in policies {
            for &m in ms {
                grid.push(GridPoint { order, policy, m });
            }
        }
    }
    let uses: Vec<UseLists> = pool.map(orders.len(), |k| UseLists::new(g, orders[k]));

    pool.map(grid.len(), |i| {
        let point = grid[i];
        let (order, uses) = (orders[point.order], &uses[point.order]);
        let result = match AutoScheduler::try_with_uses(g, point.m, uses) {
            Err(e) => Err(SweepError::CacheTooSmall {
                m: e.m,
                need: e.need,
            }),
            Ok(sched) => {
                let out = sched.run_prepared(
                    order,
                    uses,
                    &mut SchedScratch::new(),
                    &point.policy,
                    RunOptions::default(),
                );
                Ok(SweepRun {
                    stats: out.stats,
                    counters: out.counters,
                })
            }
        };
        SweepPoint { point, result }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orders;
    use crate::testutil::classical2_base;
    use mmio_cdag::build::build_cdag;

    #[test]
    fn sweep_matches_direct_runs_at_any_thread_count() {
        let g = build_cdag(&classical2_base(), 2);
        let rank = orders::rank_order(&g);
        let rec = orders::recursive_order(&g);
        let orders: Vec<&[_]> = vec![&rank, &rec];
        let policies = [
            PolicySpec::Lru,
            PolicySpec::Belady,
            PolicySpec::Random { seed: 7 },
        ];
        let ms = [8usize, 16, 64];

        let serial = sweep(&g, &orders, &policies, &ms, &Pool::serial());
        for threads in [2, 8] {
            let pooled = sweep(&g, &orders, &policies, &ms, &Pool::new(threads));
            assert_eq!(serial, pooled, "sweep diverges at {threads} threads");
        }
        // Spot-check against direct scheduler runs.
        for pt in &serial {
            let order = orders[pt.point.order];
            let direct = AutoScheduler::new(&g, pt.point.m).run(order, &pt.point.policy);
            assert_eq!(pt.stats(), direct);
        }
    }

    #[test]
    fn infeasible_point_reports_instead_of_aborting() {
        let g = build_cdag(&classical2_base(), 1);
        let rank = orders::rank_order(&g);
        let orders: Vec<&[_]> = vec![&rank];
        let pts = sweep(
            &g,
            &orders,
            &[PolicySpec::Belady],
            &[2, 64],
            &Pool::serial(),
        );
        assert!(matches!(
            pts[0].result,
            Err(SweepError::CacheTooSmall { m: 2, .. })
        ));
        assert!(pts[1].result.is_ok());
    }

    #[test]
    fn random_spec_runs_are_reproducible() {
        let g = build_cdag(&classical2_base(), 2);
        let order = orders::rank_order(&g);
        let spec = PolicySpec::Random { seed: 99 };
        let a = AutoScheduler::new(&g, 12).run(&order, &spec);
        let b = AutoScheduler::new(&g, 12).run(&order, &spec);
        assert_eq!(a, b);
    }
}
