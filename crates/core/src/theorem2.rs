//! Theorem 2 (the Routing Theorem): a `6a^k`-routing between the inputs and
//! outputs of `G_k`, hitting every meta-vertex at most `6a^k` times as well.
//!
//! Construction = Lemma 3 chains (`2n₀^k`-routing for guaranteed
//! dependencies) composed by the Lemma 4 concatenation scheme (each chain
//! reused at most `3n₀^k` times), giving `2n₀^k · 3n₀^k = 6a^k`.

use crate::chains::{ChainRouter, ChainScratch};
use crate::deps::{unpack_entry, DepSide};
use crate::lemma4::dependence_sequence;
use crate::routing::{PathArena, RoutingStats, VertexHitCounter};
use mmio_cdag::{index, Cdag, MetaVertices, VertexId};
use mmio_parallel::Pool;

/// The Routing Theorem's routing for one `G_k`.
pub struct InOutRouting<'g> {
    g: &'g Cdag,
    router: ChainRouter<'g>,
}

/// Reusable buffers for [`InOutRouting::path_with`]: the three constituent
/// chains plus the chain router's own digit scratch.
#[derive(Clone, Debug, Default)]
pub struct RouteScratch {
    chain: ChainScratch,
    c1: Vec<VertexId>,
    c2: Vec<VertexId>,
    c3: Vec<VertexId>,
}

impl RouteScratch {
    /// Fresh (empty) scratch.
    pub fn new() -> RouteScratch {
        RouteScratch::default()
    }
}

impl<'g> InOutRouting<'g> {
    /// Builds the routing machinery. `None` when the base graph admits no
    /// `n₀`-capacity Hall matching (paper assumptions violated).
    pub fn new(g: &'g Cdag) -> Option<InOutRouting<'g>> {
        Some(InOutRouting {
            g,
            router: ChainRouter::new(g)?,
        })
    }

    /// The Routing Theorem's claimed bound: `6·a^k`.
    pub fn theorem2_bound(&self) -> u64 {
        6 * index::pow(self.g.base().a(), self.g.r())
    }

    /// The path between one input vertex (`side`, entry digits
    /// `(in_row, in_col)`) and one output (`(out_row, out_col)`):
    /// concatenation of three chains, middle one reversed, junction
    /// vertices deduplicated.
    pub fn path(
        &self,
        side: DepSide,
        in_row: u64,
        in_col: u64,
        out_row: u64,
        out_col: u64,
    ) -> Vec<VertexId> {
        let mut scratch = RouteScratch::new();
        let mut path = Vec::new();
        self.path_with(
            side,
            in_row,
            in_col,
            out_row,
            out_col,
            &mut scratch,
            &mut path,
        );
        path
    }

    /// Allocation-free [`InOutRouting::path`]: writes the concatenated path
    /// into `out` (cleared first), reusing `scratch` for the three chains.
    #[allow(clippy::too_many_arguments)] // mirrors `path`, plus the two buffers
    pub fn path_with(
        &self,
        side: DepSide,
        in_row: u64,
        in_col: u64,
        out_row: u64,
        out_col: u64,
        scratch: &mut RouteScratch,
        out: &mut Vec<VertexId>,
    ) {
        let seq = dependence_sequence(side, in_row, in_col, out_row, out_col);
        self.router
            .chain_with(&seq[0], &mut scratch.chain, &mut scratch.c1);
        self.router
            .chain_with(&seq[1], &mut scratch.chain, &mut scratch.c2);
        self.router
            .chain_with(&seq[2], &mut scratch.chain, &mut scratch.c3);
        debug_assert_eq!(scratch.c1.last(), scratch.c2.last(), "junction 1 mismatch");
        debug_assert_eq!(
            scratch.c2.first(),
            scratch.c3.first(),
            "junction 2 mismatch"
        );
        out.clear();
        out.extend_from_slice(&scratch.c1);
        // Middle chain reversed, junction vertex (its last element, shared
        // with c1's tail) deduplicated.
        out.extend(scratch.c2[..scratch.c2.len() - 1].iter().rev());
        out.extend_from_slice(&scratch.c3[1..]);
    }

    /// The number of paths in the full routing: `2a^k · a^k`.
    pub fn n_paths(&self) -> u64 {
        let ak = index::pow(self.g.base().a(), self.g.r());
        2 * ak * ak
    }

    /// Enumerates the routing's paths for indices `range` (of `0..n_paths()`,
    /// ordered side-major, then input entry, then output entry — the same
    /// order [`InOutRouting::route_all`] streams them) and feeds each to `f`.
    pub fn for_each_path_in(
        &self,
        range: std::ops::Range<u64>,
        scratch: &mut RouteScratch,
        mut f: impl FnMut(&[VertexId]),
    ) {
        let g = self.g;
        let (n0, k) = (g.base().n0(), g.r());
        let ak = index::pow(g.base().a(), k);
        let mut path = Vec::with_capacity(6 * (k as usize + 1));
        for p in range {
            let side = if p < ak * ak { DepSide::A } else { DepSide::B };
            let (in_entry, out_entry) = ((p / ak) % ak, p % ak);
            let (ir, ic) = unpack_entry(in_entry, n0, k);
            let (or_, oc) = unpack_entry(out_entry, n0, k);
            self.path_with(side, ir, ic, or_, oc, scratch, &mut path);
            f(&path);
        }
    }

    /// Streams all `2a^k · a^k` input–output paths into `counter`.
    pub fn route_all(&self, counter: &mut VertexHitCounter<'_>) {
        let mut scratch = RouteScratch::new();
        self.for_each_path_in(0..self.n_paths(), &mut scratch, |path| {
            counter.add_path(path);
        });
    }

    /// Materializes the entire routing into a flat [`PathArena`] (the
    /// memoized-class representation transported into Fact-1 copies).
    pub fn collect_paths(&self) -> PathArena {
        let paths = self.n_paths() as usize;
        let mut arena = PathArena::with_capacity(paths, 6 * (self.g.r() as usize + 1) - 2);
        let mut scratch = RouteScratch::new();
        self.for_each_path_in(0..self.n_paths(), &mut scratch, |path| arena.push(path));
        arena
    }

    /// Builds, verifies, and summarizes the routing, tracking meta-vertices.
    /// The returned stats satisfy `is_m_routing(theorem2_bound())` whenever
    /// the theorem's hypotheses hold.
    pub fn verify(&self) -> RoutingStats {
        self.verify_with(&Pool::serial())
    }

    /// [`InOutRouting::verify`] sharded over `pool`: the path space is split
    /// into contiguous chunks, each chunk hit-counted into its own
    /// [`VertexHitCounter`], and the shards merged in fixed chunk order —
    /// so the returned stats are identical to the serial path at any thread
    /// count (hit counts are sums; merging is order-independent, and the
    /// fixed order makes that visible in the code rather than argued).
    pub fn verify_with(&self, pool: &Pool) -> RoutingStats {
        let meta = MetaVertices::compute(self.g);
        let n = self.n_paths();
        if pool.threads() == 1 {
            let mut counter = VertexHitCounter::new(self.g, Some(&meta));
            self.route_all(&mut counter);
            return counter.stats();
        }
        let chunks = (pool.threads() * 4).min(n.max(1) as usize);
        let shards = pool.map(chunks, |c| {
            let start = n * c as u64 / chunks as u64;
            let end = n * (c as u64 + 1) / chunks as u64;
            let mut counter = VertexHitCounter::new(self.g, Some(&meta));
            let mut scratch = RouteScratch::new();
            self.for_each_path_in(start..end, &mut scratch, |path| counter.add_path(path));
            counter
        });
        let mut merged = VertexHitCounter::new(self.g, Some(&meta));
        for shard in &shards {
            merged.merge(shard);
        }
        merged.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmio_algos::laderman::laderman;
    use mmio_algos::strassen::{strassen, winograd};
    use mmio_algos::synthetic::{with_dummy_product, without_copying};
    use mmio_cdag::build::build_cdag;

    #[test]
    fn paths_have_valid_endpoints() {
        let g = build_cdag(&strassen(), 2);
        let routing = InOutRouting::new(&g).unwrap();
        let p = routing.path(DepSide::A, 2, 1, 3, 0);
        assert_eq!(p[0], g.input_a(2, 1));
        assert_eq!(*p.last().unwrap(), g.output(3, 0));
        // Three chains of 2(k+1)=6 vertices, sharing 2 junctions: 16.
        assert_eq!(p.len(), 3 * 6 - 2);
    }

    #[test]
    fn routing_theorem_holds_for_strassen() {
        for k in 1..=2u32 {
            let g = build_cdag(&strassen(), k);
            let routing = InOutRouting::new(&g).unwrap();
            let stats = routing.verify();
            assert_eq!(stats.paths, 2 * 16u64.pow(k)); // 2a^k · a^k
            assert!(
                stats.is_m_routing(routing.theorem2_bound()),
                "k={k}: {} / {} vs {}",
                stats.max_vertex_hits,
                stats.max_meta_hits,
                routing.theorem2_bound()
            );
        }
    }

    #[test]
    fn verify_with_is_thread_count_invariant() {
        // The sharded path (`threads > 1`) is separate code from the
        // serial `route_all` stream; both must give the same stats.
        for base in [strassen(), winograd()] {
            let g = build_cdag(&base, 2);
            let routing = InOutRouting::new(&g).unwrap();
            let serial = routing.verify();
            for threads in [2, 3, 8] {
                assert_eq!(
                    routing.verify_with(&Pool::new(threads)),
                    serial,
                    "{} threads={threads}",
                    base.name()
                );
            }
        }
    }

    #[test]
    fn routing_theorem_holds_for_winograd() {
        let g = build_cdag(&winograd(), 2);
        let routing = InOutRouting::new(&g).unwrap();
        assert!(routing.verify().is_m_routing(routing.theorem2_bound()));
    }

    #[test]
    fn routing_theorem_holds_for_laderman() {
        let g = build_cdag(&laderman(), 1);
        let routing = InOutRouting::new(&g).unwrap();
        let stats = routing.verify();
        assert_eq!(stats.paths, 2 * 81);
        assert!(stats.is_m_routing(routing.theorem2_bound()));
    }

    #[test]
    fn routing_theorem_holds_with_disconnected_decoding() {
        // The paper's whole point: the routing survives structures that
        // break edge expansion.
        let g = build_cdag(&with_dummy_product(&strassen()), 2);
        let routing = InOutRouting::new(&g).unwrap();
        assert!(routing.verify().is_m_routing(routing.theorem2_bound()));
    }

    #[test]
    fn routing_theorem_holds_without_copying() {
        let g = build_cdag(&without_copying(&strassen()), 2);
        let routing = InOutRouting::new(&g).unwrap();
        let stats = routing.verify();
        assert!(stats.is_m_routing(routing.theorem2_bound()));
        // With no copying, every meta is a singleton: its per-path hit count
        // can only be below the per-occurrence vertex count (paths may
        // revisit a vertex across their three chain pieces).
        assert!(stats.max_meta_hits <= stats.max_vertex_hits);
    }
}
