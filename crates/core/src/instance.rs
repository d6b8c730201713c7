//! One validated problem instance `(base, r, M, P)`.
//!
//! Theorem 1 speaks about schedules of `G_r` on a fast memory of `M` words,
//! possibly split over `P` processors. [`Instance::try_new`] decides once,
//! in closed form and before anything is built, whether such an instance
//! exists: `G_r` must fit dense `u32` vertex ids, `M` must hold an operand
//! set (the floor `max in-degree + 1`, below which no schedule exists), and
//! `P ≥ 1`. Every CLI command and serve op builds one, so they all accept
//! and reject the same inputs with the same message.

use mmio_cdag::view::fits_ids;
use mmio_cdag::BaseGraph;
use mmio_pebble::CacheTooSmall;
use std::fmt;

/// Why `(base, r, M, P)` is not an instance.
#[derive(Debug)]
pub enum InstanceError {
    /// `G_r` does not fit dense `u32` vertex ids.
    TooDeep {
        /// The base graph's name.
        algo: String,
        /// The requested depth.
        r: u32,
    },
    /// The cache is below the operand floor of `G_r`.
    CacheTooSmall(CacheTooSmall),
    /// No processor was asked for.
    NoProcessors,
}

impl fmt::Display for InstanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstanceError::TooDeep { algo, r } => write!(
                f,
                "{algo}: r = {r} is too deep (G_r exceeds u32 vertex ids)"
            ),
            InstanceError::CacheTooSmall(e) => e.fmt(f),
            InstanceError::NoProcessors => f.write_str("the processor count P must be at least 1"),
        }
    }
}

/// A base graph at a depth `r` whose `G_r` fits `u32` ids, with an optional
/// cache size at or above the operand floor.
pub struct Instance {
    base: BaseGraph,
    r: u32,
    m: Option<u64>,
    floor: usize,
}

impl Instance {
    /// Validates `(base, r, m, procs)` in closed form, building no graph.
    /// Checks, in order: the depth, the cache against the operand floor
    /// ([`BaseGraph::operand_floor`]), and `procs ≥ 1`. `None` skips
    /// the cache or processor check.
    pub fn try_new(
        base: BaseGraph,
        r: u32,
        m: Option<u64>,
        procs: Option<u32>,
    ) -> Result<Instance, InstanceError> {
        if !fits_ids(base.a() as u64, base.b() as u64, r) {
            return Err(InstanceError::TooDeep {
                algo: base.name().to_string(),
                r,
            });
        }
        let floor = base.operand_floor(r);
        if let Some(m) = m.filter(|&m| m < floor as u64) {
            return Err(InstanceError::CacheTooSmall(CacheTooSmall {
                m: m as usize, // below the floor, so it fits
                need: floor,
            }));
        }
        if procs == Some(0) {
            return Err(InstanceError::NoProcessors);
        }
        Ok(Instance { base, r, m, floor })
    }

    /// The base graph.
    pub fn base(&self) -> &BaseGraph {
        &self.base
    }

    /// The recursion depth.
    pub fn r(&self) -> u32 {
        self.r
    }

    /// The cache size, if one was given.
    pub fn m(&self) -> Option<u64> {
        self.m
    }

    /// The operand floor: the smallest cache that holds an operand set of
    /// `G_r` plus its result.
    pub fn floor(&self) -> usize {
        self.floor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmio_algos::strassen::strassen;

    #[test]
    fn cache_below_operand_floor_is_an_error() {
        let err = Instance::try_new(strassen(), 2, Some(1), None)
            .err()
            .unwrap();
        assert_eq!(
            err.to_string(),
            "cache size 1 cannot hold an operand set (5 needed)"
        );
        // G_0 applies no base row: its one product needs 2 operands.
        let g0 = Instance::try_new(strassen(), 0, Some(3), None).unwrap();
        assert_eq!(g0.floor(), 3);
        assert!(Instance::try_new(strassen(), 0, Some(2), None).is_err());
    }
}
