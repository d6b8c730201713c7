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

/// An explicit schedule: the exhaustive record of a run, checkable by
/// `mmio_analyze::audit_schedule` and the `mmio-cert` replay.
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
}
