//! Multi-level memory hierarchies: the natural extension of the paper's
//! 2-level model (its introduction speaks of "communication of data within
//! memory hierarchy").
//!
//! A hierarchy `M₁ < M₂ < … < M_L < ∞` is simulated by running the 2-level
//! scheduler once per boundary: the traffic between level `i` and level
//! `i+1` is exactly the 2-level I/O with cache size `M_i` (the standard
//! inclusive-hierarchy argument: levels above `i` behave as one fast
//! memory of size `M_i`, everything below as slow memory). Theorem 1
//! therefore applies *per boundary*: traffic across boundary `i` is
//! `Ω((n/√M_i)^{ω₀}·M_i)`. [`Hierarchy::measure`] runs the boundaries as
//! one pooled [`sweep`] over the level sizes.

use crate::policy::PolicySpec;
use crate::sweep;
use mmio_cdag::{Cdag, VertexId};
use mmio_parallel::Pool;
use serde::Serialize;

/// A memory hierarchy: strictly increasing level capacities (the last
/// level is backed by unbounded slow memory).
#[derive(Clone, Debug)]
pub struct Hierarchy {
    levels: Vec<usize>,
}

/// Per-boundary traffic of one execution.
#[derive(Clone, Debug, Serialize)]
pub struct HierarchyTraffic {
    /// Capacity of the fast side of each boundary.
    pub level_sizes: Vec<usize>,
    /// I/O across each boundary (loads + stores with that cache size).
    pub boundary_io: Vec<u64>,
}

impl Hierarchy {
    /// Creates a hierarchy from strictly increasing capacities.
    ///
    /// # Panics
    /// Panics if `levels` is empty or not strictly increasing.
    pub fn new(levels: Vec<usize>) -> Hierarchy {
        assert!(!levels.is_empty(), "hierarchy needs at least one level");
        assert!(
            levels.windows(2).all(|w| w[0] < w[1]),
            "levels must be strictly increasing"
        );
        Hierarchy { levels }
    }

    /// Measures per-boundary traffic for `order` under `policy`, running
    /// the boundaries as a pooled [`sweep`] over the level
    /// sizes. Every boundary starts a fresh run of the same spec, so the
    /// result is identical at any thread count.
    pub fn measure(
        &self,
        g: &Cdag,
        order: &[VertexId],
        policy: PolicySpec,
        pool: &Pool,
    ) -> HierarchyTraffic {
        let orders: [&[VertexId]; 1] = [order];
        let boundary_io = sweep::sweep(g, &orders, &[policy], &self.levels, pool)
            .iter()
            .map(|pt| pt.stats().io())
            .collect();
        HierarchyTraffic {
            level_sizes: self.levels.clone(),
            boundary_io,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auto::AutoScheduler;
    use crate::orders::recursive_order;
    use crate::policy::Belady;
    use crate::testutil::classical2_base;
    use mmio_cdag::build::build_cdag;

    #[test]
    fn traffic_decreases_up_the_hierarchy() {
        let g = build_cdag(&classical2_base(), 3);
        let order = recursive_order(&g);
        let h = Hierarchy::new(vec![8, 32, 128, 512]);
        let t = h.measure(&g, &order, Belady, &Pool::serial());
        for w in t.boundary_io.windows(2) {
            assert!(w[1] <= w[0], "larger caches see no more traffic");
        }
    }

    #[test]
    fn single_level_matches_flat_scheduler() {
        let g = build_cdag(&classical2_base(), 2);
        let order = recursive_order(&g);
        let h = Hierarchy::new(vec![16]);
        let t = h.measure(&g, &order, Belady, &Pool::serial());
        let flat = AutoScheduler::new(&g, 16).run(&order, &Belady).io();
        assert_eq!(t.boundary_io, vec![flat]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn levels_must_increase() {
        let _ = Hierarchy::new(vec![8, 8]);
    }

    #[test]
    fn pooled_measure_matches_serial() {
        let g = build_cdag(&classical2_base(), 3);
        let order = recursive_order(&g);
        let levels = vec![8, 32, 128, 512];
        let h = Hierarchy::new(levels.clone());
        for policy in [Belady, PolicySpec::Random { seed: 11 }] {
            let direct: Vec<u64> = levels
                .iter()
                .map(|&m| AutoScheduler::new(&g, m).run(&order, &policy).io())
                .collect();
            for threads in [1usize, 2, 8] {
                let pooled = h.measure(&g, &order, policy, &Pool::new(threads));
                assert_eq!(pooled.boundary_io, direct, "{policy:?} threads={threads}");
            }
        }
    }
}
