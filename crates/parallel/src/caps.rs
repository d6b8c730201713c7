//! Step-level simulator of CAPS-style parallel Strassen-like execution
//! (\[3\]: Ballard, Demmel, Holtz, Lipshitz, Schwartz — the algorithm that
//! attains the Theorem 1 bounds).
//!
//! The scheme is a recursion over the base graph: a **BFS step** encodes
//! the `b` sub-operand pairs and hands each to a group of `P/b` processors
//! (cheap in bandwidth, needs `b/a`-factor more memory); a **DFS step**
//! solves the `b` subproblems one after another on all `P` processors
//! (no extra memory, more bandwidth). The simulator chooses BFS while local
//! memory permits, as CAPS does, and counts the words each step
//! redistributes per processor.

use mmio_cdag::BaseGraph;
use serde::Serialize;

/// The per-processor word count and step trace of one simulated run.
#[derive(Clone, Debug, Serialize)]
pub struct CapsRun {
    /// Words communicated per processor along the recursion (critical
    /// path).
    pub words_per_proc: f64,
    /// Sequence of steps taken at the top of the recursion ('B' or 'D').
    pub steps: String,
}

/// One step's redistribution volume per processor: the `b` encoded
/// sub-operand pairs and the `b` returned sub-products, each of `n²/a`
/// entries spread over `p` processors: `3·b·n²/(a·p)` words.
fn step_words(base: &BaseGraph, n: f64, p: f64) -> f64 {
    3.0 * base.b() as f64 * n * n / (base.a() as f64 * p)
}

/// Simulates the CAPS schedule for an `n×n` problem on `p` processors with
/// local memories of `m` words. Requires `p` to be a power of `b` for clean
/// BFS steps (as in \[3\]); other values fall back to DFS until `p`
/// divides.
pub fn simulate(base: &BaseGraph, n: u64, p: u64, m: u64) -> CapsRun {
    let mut steps = String::new();
    let words = rec(base, n as f64, p, m as f64, &mut steps);
    CapsRun {
        words_per_proc: words,
        steps,
    }
}

fn rec(base: &BaseGraph, n: f64, p: u64, m: f64, steps: &mut String) -> f64 {
    let (n0, b, a) = (base.n0() as f64, base.b() as u64, base.a() as f64);
    if p <= 1 || n <= 1.0 {
        return 0.0; // sequential: no inter-processor words
    }
    let redistribute = step_words(base, n, p as f64);
    // BFS feasibility: after the step each processor's share grows by b/a.
    let bfs_feasible = p.is_multiple_of(b) && 3.0 * (b as f64 / a) * n * n / p as f64 <= m;
    if bfs_feasible {
        steps.push('B');
        redistribute + rec(base, n / n0, p / b, m, steps)
    } else {
        steps.push('D');
        // All p processors solve the b subproblems in sequence.
        redistribute + b as f64 * rec(base, n / n0, p, m, steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmio_algos::strassen::strassen;
    use mmio_core::LowerBound;

    #[test]
    fn unlimited_memory_goes_all_bfs() {
        let base = strassen();
        let run = simulate(&base, 1 << 10, 49, u64::MAX);
        assert!(run.steps.starts_with("BB"), "steps: {}", run.steps);
    }

    #[test]
    fn tight_memory_forces_dfs() {
        let base = strassen();
        let n = 1u64 << 10;
        // Memory just above 3·(n/√P)²-ish forces DFS first.
        let run = simulate(&base, n, 49, 3 * n * n / 49);
        assert!(run.steps.starts_with('D'), "steps: {}", run.steps);
    }

    #[test]
    fn memory_independent_shape_with_unbounded_memory() {
        // All-BFS CAPS attains Θ(n²/P^{2/ω₀}): growing P by b decreases
        // per-proc words toward the factor b^{2/ω₀} = a = 4.
        let base = strassen();
        let n = 1u64 << 12;
        let w3 = simulate(&base, n, 343, u64::MAX).words_per_proc;
        let w4 = simulate(&base, n, 2401, u64::MAX).words_per_proc;
        let lb = LowerBound::new(&base);
        let expected_ratio =
            lb.memory_independent_bandwidth(n, 343) / lb.memory_independent_bandwidth(n, 2401);
        let measured_ratio = w3 / w4;
        assert!(
            (measured_ratio / expected_ratio - 1.0).abs() < 0.3,
            "measured {measured_ratio}, expected {expected_ratio}"
        );
    }

    #[test]
    fn bandwidth_above_lower_bound() {
        // The simulated schedule must respect Theorem 1's parallel bound
        // (it attains it up to constants).
        let base = strassen();
        let lb = LowerBound::new(&base);
        let n = 1u64 << 10;
        for (p, m) in [(7u64, 1u64 << 14), (49, 1 << 12), (49, 1 << 16)] {
            let run = simulate(&base, n, p, m);
            let bound = lb
                .parallel_bandwidth(n, m, p)
                .min(lb.memory_independent_bandwidth(n, p));
            assert!(
                run.words_per_proc >= bound / 64.0,
                "p={p} m={m}: {} << bound {bound}",
                run.words_per_proc
            );
        }
    }

    #[test]
    fn more_memory_never_hurts() {
        let base = strassen();
        let n = 1u64 << 10;
        let small = simulate(&base, n, 49, 1 << 12).words_per_proc;
        let large = simulate(&base, n, 49, 1 << 20).words_per_proc;
        assert!(large <= small);
    }

    #[test]
    fn single_processor_is_free() {
        let base = strassen();
        assert_eq!(simulate(&base, 1 << 8, 1, 1 << 10).words_per_proc, 0.0);
    }
}
