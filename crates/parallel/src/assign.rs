//! Vertex → processor assignments.
//!
//! The memory-independent bound of Theorem 1 assumes computation is *load
//! balanced per rank* of the CDAG; assignments here either satisfy that
//! hypothesis by construction (block/cyclic per rank) or deliberately
//! violate it (owner-computes-all) to show the bound's hypothesis matters.
//!
//! Every constructor is generic over [`CdagView`] and reads ranks from the
//! closed form's segment walk ([`mmio_cdag::IndexView::segments`]): `G_r`'s
//! dense ids fall into `3(r+1)` contiguous segments of one rank each, so
//! `proc_of` is filled one segment at a time, in dense id order, with no
//! per-vertex rank lookup. Assignments for implicit graphs at thousands of
//! ranks cost O(V) time and memory with no materialized CDAG, and a
//! [`mmio_cdag::Cdag`] and its closed form get the same `proc_of`. The
//! per-vertex definitions stay in test builds as the oracle the walk is
//! checked against.

use mmio_cdag::{CdagView, Layer, VertexId};
use rand::Rng;

/// An assignment of every vertex to a processor in `[p]`.
pub struct Assignment {
    /// Processor of each vertex.
    pub proc_of: Vec<u32>,
    /// Number of processors.
    pub p: u32,
}

/// The global ranks of `G_r`, `0..=2r+1`.
fn n_ranks<V: CdagView>(g: &V) -> usize {
    2 * g.r() as usize + 2
}

impl Assignment {
    /// Processor of vertex `v`.
    pub fn of(&self, v: VertexId) -> u32 {
        self.proc_of[v.idx()]
    }

    /// Checks per-rank load balance within a multiplicative `slack` of the
    /// ideal `rank_size/p` (ranks smaller than `p` are exempt — they cannot
    /// be balanced).
    pub fn is_rank_balanced<V: CdagView>(&self, g: &V, slack: f64) -> bool {
        let p = self.p as usize;
        let mut members = vec![0u64; n_ranks(g)];
        let mut per_proc = vec![0u64; n_ranks(g) * p];
        for seg in g.closed_form().segments() {
            let rank = seg.rank as usize;
            members[rank] += seg.ids.len() as u64;
            let row = &mut per_proc[rank * p..(rank + 1) * p];
            for &q in &self.proc_of[seg.ids.start as usize..seg.ids.end as usize] {
                row[q as usize] += 1;
            }
        }
        members.iter().zip(per_proc.chunks(p)).all(|(&n, row)| {
            let ideal = n as f64 / self.p as f64;
            n < u64::from(self.p) || !row.iter().any(|&c| c as f64 > ideal * slack)
        })
    }
}

/// Cyclic assignment within each rank: vertex `i` of a rank goes to
/// processor `i mod p`. Perfectly rank-balanced.
///
/// # Panics
/// Panics if `p` is 0.
pub fn cyclic_per_rank<V: CdagView>(g: &V, p: u32) -> Assignment {
    assert!(p >= 1, "an assignment needs at least one processor");
    // The processor of each rank's next vertex.
    let mut next = vec![0u32; n_ranks(g)];
    let mut proc_of = Vec::with_capacity(g.n_vertices());
    for seg in g.closed_form().segments() {
        let q = &mut next[seg.rank as usize];
        proc_of.extend(seg.ids.map(|_| {
            let this = *q;
            *q = if this + 1 == p { 0 } else { this + 1 };
            this
        }));
    }
    Assignment { proc_of, p }
}

/// Contiguous block assignment within each rank (better locality than
/// cyclic for recursive structures, still rank-balanced): the `i`-th
/// vertex of a rank of `n` goes to processor `⌊i / ⌈n/p⌉⌋`.
///
/// # Panics
/// Panics if `p` is 0.
pub fn block_per_rank<V: CdagView>(g: &V, p: u32) -> Assignment {
    assert!(p >= 1, "an assignment needs at least one processor");
    let mut members = vec![0usize; n_ranks(g)];
    for seg in g.closed_form().segments() {
        members[seg.rank as usize] += seg.ids.len();
    }
    let chunk: Vec<usize> = members
        .iter()
        .map(|&n| n.div_ceil(p as usize).max(1))
        .collect();
    // Each rank's vertices seen so far.
    let mut seen = vec![0usize; n_ranks(g)];
    let mut proc_of = Vec::with_capacity(g.n_vertices());
    for seg in g.closed_form().segments() {
        let (rank, chunk) = (seg.rank as usize, chunk[seg.rank as usize]);
        let (mut i, end) = (seen[rank], seen[rank] + seg.ids.len());
        while i < end {
            let block = i / chunk;
            let stop = ((block + 1) * chunk).min(end);
            proc_of.resize(proc_of.len() + stop - i, (block as u32).min(p - 1));
            i = stop;
        }
        seen[rank] = end;
    }
    Assignment { proc_of, p }
}

/// Subtree assignment: the whole subcomputation with top-level
/// multiplication digit `t₁` goes to processor `t₁ mod p` (one BFS step of
/// CAPS); the inputs/outputs (encoding rank 0, decoding rank `r`) stay
/// cyclically distributed. Rank-balanced only in the middle when `p ≤ b`.
///
/// A segment whose `mul` index has `d ≥ 1` digits holds `b^d` runs of
/// `entry_width` ids, so its top digit `t₁` splits it into `b` equal
/// blocks of consecutive ids.
pub fn by_top_subproblem<V: CdagView>(g: &V, p: u32) -> Assignment {
    let (b, r) = (g.b(), g.r());
    let mut proc_of = Vec::with_capacity(g.n_vertices());
    for seg in g.closed_form().segments() {
        // Length of the packed `mul` prefix at (layer, level).
        let digits = match seg.layer {
            Layer::EncA | Layer::EncB => seg.level,
            Layer::Dec => r - seg.level,
        };
        if digits == 0 {
            // Inputs of the whole problem / final outputs: spread cyclically.
            proc_of.extend(seg.ids.map(|v| v % p));
        } else {
            for t1 in 0..b {
                proc_of.resize(proc_of.len() + seg.ids.len() / b, t1 as u32 % p);
            }
        }
    }
    Assignment { proc_of, p }
}

/// Everything on processor 0 — the degenerate assignment (zero
/// communication, maximally imbalanced). Violates the memory-independent
/// bound's hypothesis; used to show that hypothesis is necessary.
pub fn all_on_one<V: CdagView>(g: &V, p: u32) -> Assignment {
    Assignment {
        proc_of: vec![0; g.n_vertices()],
        p,
    }
}

/// Uniformly random assignment.
pub fn random<V: CdagView, R: Rng>(g: &V, p: u32, rng: &mut R) -> Assignment {
    Assignment {
        proc_of: (0..g.n_vertices()).map(|_| rng.gen_range(0..p)).collect(),
        p,
    }
}

/// The per-vertex definitions of the rank rules, one rank or address
/// lookup per vertex, and the test graphs beside the registry's: the
/// oracle of the segment walk above.
#[cfg(test)]
pub(crate) mod oracle {
    use super::Assignment;
    use mmio_cdag::{BaseGraph, CdagView, Layer, VertexId};
    use mmio_matrix::{Matrix, Rational};

    /// The shapes of `mmio-cdag`'s test fixtures: classical 2×2 (dense
    /// copies), a 1×1 base with no trivial row, and a 1×1 base with three
    /// products whose decoding row copies one of them; plus the 1×1
    /// one-product base, the one graph that reaches r = 32.
    pub(crate) fn fixture_bases() -> Vec<BaseGraph> {
        let m = |rows, cols, v: &[(i64, i64)]| {
            Matrix::from_vec(
                rows,
                cols,
                v.iter().map(|&(n, d)| Rational::new(n, d)).collect(),
            )
        };
        vec![
            mmio_algos::classical::classical(2),
            mmio_algos::classical::classical(1),
            BaseGraph::new(
                "scaled",
                1,
                m(1, 1, &[(2, 1)]),
                m(1, 1, &[(3, 1)]),
                m(1, 1, &[(1, 6)]),
            ),
            BaseGraph::new(
                "decoding-copy",
                1,
                m(3, 1, &[(2, 1), (1, 1), (1, 1)]),
                m(3, 1, &[(1, 1), (1, 1), (5, 1)]),
                m(1, 3, &[(0, 1), (1, 1), (0, 1)]),
            ),
        ]
    }

    /// Oracle comparisons skip graphs above this many vertices (the
    /// registry's `n₀ = 3` bases at r = 4 and `n₀ = 4` bases at r ≥ 3):
    /// there the per-vertex oracle passes would dominate a debug test run.
    pub(crate) const ORACLE_VERTICES: u64 = 100_000;

    /// The paper's global rank of every vertex, `0..=2r+1`.
    fn rank_of<V: CdagView>(g: &V, v: VertexId) -> u32 {
        g.rank_of(v).expect("vertex id in range")
    }

    pub(crate) fn is_rank_balanced<V: CdagView>(a: &Assignment, g: &V, slack: f64) -> bool {
        let max_rank = 2 * g.r() + 1;
        let mut members = vec![0u64; max_rank as usize + 1];
        let mut per_proc = vec![0u64; (max_rank as usize + 1) * a.p as usize];
        for i in 0..g.n_vertices() {
            let v = VertexId(i as u32);
            let rank = rank_of(g, v) as usize;
            members[rank] += 1;
            per_proc[rank * a.p as usize + a.of(v) as usize] += 1;
        }
        for rank in 0..=max_rank as usize {
            if members[rank] < u64::from(a.p) {
                continue;
            }
            let ideal = members[rank] as f64 / a.p as f64;
            let row = &per_proc[rank * a.p as usize..(rank + 1) * a.p as usize];
            if row.iter().any(|&c| c as f64 > ideal * slack) {
                return false;
            }
        }
        true
    }

    pub(crate) fn cyclic_per_rank<V: CdagView>(g: &V, p: u32) -> Assignment {
        let max_rank = 2 * g.r() + 1;
        let mut seen = vec![0u32; max_rank as usize + 1];
        let mut proc_of = vec![0u32; g.n_vertices()];
        for (i, slot) in proc_of.iter_mut().enumerate() {
            let rank = rank_of(g, VertexId(i as u32)) as usize;
            *slot = seen[rank] % p;
            seen[rank] += 1;
        }
        Assignment { proc_of, p }
    }

    pub(crate) fn block_per_rank<V: CdagView>(g: &V, p: u32) -> Assignment {
        let max_rank = 2 * g.r() + 1;
        let mut members = vec![0usize; max_rank as usize + 1];
        for i in 0..g.n_vertices() {
            members[rank_of(g, VertexId(i as u32)) as usize] += 1;
        }
        let chunk: Vec<usize> = members
            .iter()
            .map(|&n| n.div_ceil(p as usize).max(1))
            .collect();
        let mut seen = vec![0usize; max_rank as usize + 1];
        let mut proc_of = vec![0u32; g.n_vertices()];
        for (i, slot) in proc_of.iter_mut().enumerate() {
            let rank = rank_of(g, VertexId(i as u32)) as usize;
            *slot = ((seen[rank] / chunk[rank]) as u32).min(p - 1);
            seen[rank] += 1;
        }
        Assignment { proc_of, p }
    }

    pub(crate) fn by_top_subproblem<V: CdagView>(g: &V, p: u32) -> Assignment {
        let b = g.b();
        let r = g.r();
        let mut proc_of = vec![0u32; g.n_vertices()];
        for (i, slot) in proc_of.iter_mut().enumerate() {
            let v = VertexId(i as u32);
            let vr = g.try_vref(v).expect("vertex id in range");
            let len = match vr.layer {
                Layer::EncA | Layer::EncB => vr.level,
                Layer::Dec => r - vr.level,
            };
            *slot = if len == 0 {
                v.0 % p
            } else {
                let t1 = (vr.mul / mmio_cdag::index::pow(b, len - 1)) as u32;
                t1 % p
            };
        }
        Assignment { proc_of, p }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmio_algos::registry::all_base_graphs;
    use mmio_algos::strassen::strassen;
    use mmio_cdag::build::build_cdag;
    use mmio_cdag::view::count_vertices;
    use mmio_cdag::{Cdag, IndexView};
    use oracle::{fixture_bases, ORACLE_VERTICES};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Every assignment rule by the segment walk equals its per-vertex
    /// oracle on `g`, and so does the balance check on each of them.
    fn assert_walk_matches_oracle<V: CdagView>(g: &V, ctx: &str) {
        for p in [1u32, 3, 7, 64, 1024] {
            let pairs = [
                (cyclic_per_rank(g, p), oracle::cyclic_per_rank(g, p)),
                (block_per_rank(g, p), oracle::block_per_rank(g, p)),
                (by_top_subproblem(g, p), oracle::by_top_subproblem(g, p)),
                (all_on_one(g, p), all_on_one(g, p)),
            ];
            for (i, (walk, per_vertex)) in pairs.iter().enumerate() {
                assert_eq!(walk.proc_of, per_vertex.proc_of, "{ctx} P={p} rule {i}");
                for slack in [1.0, 1.5, 2.0] {
                    assert_eq!(
                        walk.is_rank_balanced(g, slack),
                        oracle::is_rank_balanced(walk, g, slack),
                        "{ctx} P={p} rule {i} slack {slack}"
                    );
                }
            }
        }
    }

    /// Zero processors is refused, as the per-vertex rules refused it by
    /// dividing by zero, and never yields processor ids out of range.
    #[test]
    fn zero_processors_are_refused() {
        let g = build_cdag(&strassen(), 1);
        let rules: [fn(&Cdag, u32) -> Assignment; 3] =
            [cyclic_per_rank, block_per_rank, by_top_subproblem];
        for rule in rules {
            let run = std::panic::AssertUnwindSafe(|| rule(&g, 0));
            assert!(std::panic::catch_unwind(run).is_err());
        }
    }

    #[test]
    fn segment_walk_assignments_match_per_vertex_oracles() {
        let mut bases = all_base_graphs();
        bases.extend(fixture_bases());
        for base in &bases {
            for r in 0..=4u32 {
                let n = count_vertices(base.a() as u64, base.b() as u64, r).unwrap();
                if n > ORACLE_VERTICES {
                    continue;
                }
                let ctx = format!("{} r={r}", base.name());
                let g = build_cdag(base, r);
                assert_walk_matches_oracle(&g, &format!("{ctx} Cdag"));
                if r >= 1 {
                    let view = IndexView::from_base(base, r);
                    assert_walk_matches_oracle(&view, &format!("{ctx} IndexView"));
                }
            }
        }
    }

    #[test]
    fn cyclic_is_rank_balanced() {
        let g = build_cdag(&strassen(), 3);
        for p in [2u32, 4, 7] {
            let a = cyclic_per_rank(&g, p);
            assert!(a.is_rank_balanced(&g, 1.5), "p={p}");
        }
    }

    #[test]
    fn block_is_rank_balanced() {
        let g = build_cdag(&strassen(), 3);
        let a = block_per_rank(&g, 4);
        assert!(a.is_rank_balanced(&g, 2.0));
    }

    #[test]
    fn all_on_one_is_imbalanced() {
        let g = build_cdag(&strassen(), 3);
        let a = all_on_one(&g, 4);
        assert!(!a.is_rank_balanced(&g, 2.0));
    }

    #[test]
    fn assignments_cover_range() {
        let g = build_cdag(&strassen(), 2);
        let mut rng = StdRng::seed_from_u64(3);
        for a in [
            cyclic_per_rank(&g, 3),
            block_per_rank(&g, 3),
            by_top_subproblem(&g, 3),
            random(&g, 3, &mut rng),
        ] {
            assert!(g.vertices().all(|v| a.of(v) < 3));
        }
    }

    #[test]
    fn subproblem_assignment_groups_subtrees() {
        let g = build_cdag(&strassen(), 2);
        let a = by_top_subproblem(&g, 7);
        // All products with the same top digit share a processor.
        for m in g.products() {
            let vr = g.vref(m);
            let t1 = (vr.mul / 7) as u32;
            assert_eq!(a.of(m), t1 % 7);
        }
    }

    #[test]
    fn implicit_view_matches_concrete_graph() {
        // The CdagView-generic constructors must assign identically on the
        // closed-form view and the materialized graph.
        let base = strassen();
        let g = build_cdag(&base, 2);
        let view = IndexView::from_base(&base, 2);
        for (ca, cb) in [
            (cyclic_per_rank(&g, 5), cyclic_per_rank(&view, 5)),
            (block_per_rank(&g, 5), block_per_rank(&view, 5)),
            (by_top_subproblem(&g, 5), by_top_subproblem(&view, 5)),
        ] {
            assert_eq!(ca.proc_of, cb.proc_of);
        }
    }
}
