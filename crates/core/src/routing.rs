//! Routings and their verification (Definition 2, Theorem 2).
//!
//! An *m-routing* between vertex sets `X` and `Y` is a family of `|X|·|Y|`
//! undirected paths, one per pair, such that no vertex of the graph lies on
//! more than `m` of them (counting multiplicity). The Routing Theorem
//! produces `6a^k`-routings between the inputs and outputs of `G_k`; this
//! module provides the streaming hit-counting used to *verify* every
//! constructed routing, both per vertex and per meta-vertex.

use mmio_cdag::hits::HitCounter;
use mmio_cdag::{Cdag, MetaVertices, VertexId};
use mmio_parallel::Pool;
use serde::Serialize;
use std::ops::Range;

/// Streaming hit counter over a CDAG's vertices (and optionally its
/// meta-vertices). The counting itself — per-occurrence vertex hits,
/// once-per-path group hits, deterministic shard merging — is the shared
/// [`mmio_cdag::hits::HitCounter`]; this wrapper binds it to a graph (for
/// the debug edge assertion) and to [`MetaVertices`] as the group source.
pub struct VertexHitCounter<'g> {
    g: &'g Cdag,
    counter: HitCounter,
}

/// Summary statistics of a verified routing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct RoutingStats {
    /// Number of paths in the routing.
    pub paths: u64,
    /// Total path length (vertices, counted with multiplicity).
    pub total_length: u64,
    /// Maximum hits over all vertices — the routing's actual `m`.
    pub max_vertex_hits: u64,
    /// Maximum hits over all meta-vertices (0 if not tracked).
    pub max_meta_hits: u64,
}

impl<'g> VertexHitCounter<'g> {
    /// Creates a counter; pass `meta` to also track meta-vertex hits
    /// (a path hitting several vertices of one meta-vertex counts once per
    /// vertex, as in the paper's counting).
    pub fn new(g: &'g Cdag, meta: Option<&'g MetaVertices>) -> VertexHitCounter<'g> {
        let counter = match meta {
            None => HitCounter::new(g.n_vertices()),
            Some(m) => HitCounter::with_groups(
                g.vertices()
                    .map(|v| m.root_vertex(m.meta_of(v)).0)
                    .collect(),
            ),
        };
        VertexHitCounter { g, counter }
    }

    /// Records one path. Vertex hits count per occurrence; a meta-vertex is
    /// hit once per path that touches it (the paper's counting — "any path
    /// hitting a meta-vertex also hits the root vertex", proof of
    /// Theorem 2).
    pub fn add_path(&mut self, path: &[VertexId]) {
        debug_assert!(!path.is_empty());
        debug_assert!(
            path.windows(2).all(|w| {
                self.g.preds(w[1]).contains(&w[0]) || self.g.succs(w[1]).contains(&w[0])
            }),
            "path contains a non-edge"
        );
        self.counter.add_path(path.iter().map(|v| v.0));
    }

    /// Absorbs another counter over the *same graph* (and the same
    /// meta-vertex tracking mode). Hit counts are sums, so merging sharded
    /// counters in any fixed order reproduces the serial count exactly —
    /// the foundation of the deterministic parallel verification path.
    ///
    /// # Panics
    /// Panics if the two counters track different graphs or disagree on
    /// meta tracking.
    pub fn merge(&mut self, other: &VertexHitCounter<'g>) {
        self.counter.merge(&other.counter);
    }

    /// Hits of a specific vertex.
    pub fn hits_of(&self, v: VertexId) -> u64 {
        self.counter.hits_of(v.0)
    }

    /// Clears all counts (keeping the allocations), so one counter can be
    /// reused across the per-copy verifications of a Fact-1 transport sweep.
    pub fn reset(&mut self) {
        self.counter.reset();
    }

    /// Finishes counting and returns summary statistics.
    pub fn stats(&self) -> RoutingStats {
        let s = self.counter.summary();
        RoutingStats {
            paths: s.paths,
            total_length: s.total_length,
            max_vertex_hits: s.max_vertex_hits,
            max_meta_hits: s.max_group_hits,
        }
    }
}

/// Hit-counts the paths `0..n` of a routing on `g`, tracking `meta`,
/// sharded over `pool`: the index space is split into contiguous chunks,
/// `feed` streams each chunk's paths into its own [`VertexHitCounter`], and
/// the shards are merged in fixed chunk order — so the stats are identical
/// at any thread count (hit counts are sums; the fixed order makes that
/// visible in the code rather than argued).
pub fn count_sharded<F>(g: &Cdag, meta: &MetaVertices, n: u64, pool: &Pool, feed: F) -> RoutingStats
where
    F: Fn(Range<u64>, &mut VertexHitCounter<'_>) + Sync,
{
    let chunks = (pool.threads() * 4).min(n.max(1) as usize);
    let shards = pool.map(chunks, |c| {
        let mut counter = VertexHitCounter::new(g, Some(meta));
        feed(
            n * c as u64 / chunks as u64..n * (c as u64 + 1) / chunks as u64,
            &mut counter,
        );
        counter
    });
    let mut merged = VertexHitCounter::new(g, Some(meta));
    for shard in &shards {
        merged.merge(shard);
    }
    merged.stats()
}

impl RoutingStats {
    /// Checks the routing against a claimed bound `m` (vertex hits, and
    /// meta hits if tracked).
    pub fn is_m_routing(&self, m: u64) -> bool {
        self.max_vertex_hits <= m && self.max_meta_hits <= m
    }
}

/// Checks that a path is a *chain*: consecutive vertices connected by
/// directed edges all pointing forward (a monotone path from input toward
/// output).
pub fn is_chain(g: &Cdag, path: &[VertexId]) -> bool {
    path.windows(2).all(|w| g.preds(w[1]).contains(&w[0]))
}

/// Flat storage for a family of paths: one shared vertex buffer plus an
/// offset table, instead of a `Vec<Vec<VertexId>>` with one heap block per
/// path. Routing families contain `2a^{2k}` paths; storing them contiguously
/// is what makes storing a whole routing class (and iterating it once per
/// Fact-1 copy) cheap.
#[derive(Clone, Debug, Default)]
pub struct PathArena {
    /// `offsets[i]..offsets[i+1]` delimits path `i` in `verts`.
    offsets: Vec<u32>,
    verts: Vec<VertexId>,
}

impl PathArena {
    /// An empty arena.
    pub fn new() -> PathArena {
        PathArena {
            offsets: vec![0],
            verts: Vec::new(),
        }
    }

    /// An empty arena pre-sized for `paths` paths of about `avg_len`
    /// vertices each.
    pub fn with_capacity(paths: usize, avg_len: usize) -> PathArena {
        let mut offsets = Vec::with_capacity(paths + 1);
        offsets.push(0);
        PathArena {
            offsets,
            verts: Vec::with_capacity(paths * avg_len),
        }
    }

    /// Appends one path.
    pub fn push(&mut self, path: &[VertexId]) {
        self.verts.extend_from_slice(path);
        self.offsets
            .push(u32::try_from(self.verts.len()).expect("arena exceeds u32 index space"));
    }

    /// Number of stored paths.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the arena holds no paths.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of stored vertices (path lengths summed).
    pub fn total_vertices(&self) -> usize {
        self.verts.len()
    }

    /// The `i`-th path.
    pub fn path(&self, i: usize) -> &[VertexId] {
        &self.verts[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Iterates over all paths in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &[VertexId]> + '_ {
        (0..self.len()).map(move |i| self.path(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmio_algos::strassen::strassen;
    use mmio_cdag::build::build_cdag;

    #[test]
    fn copy_groups_match_meta_vertices() {
        // A routing certificate claims the meta hits counted here, against
        // `MetaVertices`; the verifier recounts them against the closed
        // form's copy grouping (`IndexView::copy_roots`). The two groupings
        // must be the same partition on every registry base.
        use mmio_algos::registry::all_base_graphs;
        use std::collections::HashMap;
        for base in all_base_graphs() {
            for k in 1..=(if base.a() >= 16 { 1 } else { 2 }) {
                let g = build_cdag(&base, k);
                let meta = MetaVertices::compute(&g);
                let roots = mmio_cdag::IndexView::from_base(&base, k).copy_roots();
                let (mut root_of, mut meta_of) = (HashMap::new(), HashMap::new());
                for v in g.vertices() {
                    let (m, r) = (meta.meta_of(v), roots[v.idx()]);
                    assert_eq!(*root_of.entry(m).or_insert(r), r, "{} k={k}", base.name());
                    assert_eq!(*meta_of.entry(r).or_insert(m), m, "{} k={k}", base.name());
                }
            }
        }
    }

    #[test]
    fn counting_and_stats() {
        let g = build_cdag(&strassen(), 1);
        let mut counter = VertexHitCounter::new(&g, None);
        let input = g.inputs().next().unwrap();
        let combo = g.succs(input)[0];
        counter.add_path(&[input, combo]);
        counter.add_path(&[input, combo]);
        let stats = counter.stats();
        assert_eq!(stats.paths, 2);
        assert_eq!(stats.total_length, 4);
        assert_eq!(stats.max_vertex_hits, 2);
        assert!(stats.is_m_routing(2));
        assert!(!stats.is_m_routing(1));
        assert_eq!(counter.hits_of(input), 2);
    }

    #[test]
    fn meta_counting_once_per_path() {
        let g = build_cdag(&strassen(), 1);
        let meta = MetaVertices::compute(&g);
        let mut counter = VertexHitCounter::new(&g, Some(&meta));
        // A path through both members of one meta-vertex hits the meta once
        // (per path), though each vertex is hit individually.
        let input = g.input_b(0, 0); // b11: copied bare into M2
        let copy = g
            .succs(input)
            .iter()
            .copied()
            .find(|&s| meta.meta_of(s) == meta.meta_of(input))
            .expect("b11 must have a copy vertex in Strassen");
        counter.add_path(&[input, copy]);
        counter.add_path(&[input, copy]);
        let stats = counter.stats();
        assert_eq!(stats.max_vertex_hits, 2);
        assert_eq!(stats.max_meta_hits, 2, "once per path, two paths");
    }

    #[test]
    fn merge_equals_serial_count() {
        let g = build_cdag(&strassen(), 1);
        let meta = MetaVertices::compute(&g);
        let input = g.inputs().next().unwrap();
        let combo = g.succs(input)[0];
        // Serial: both paths into one counter.
        let mut serial = VertexHitCounter::new(&g, Some(&meta));
        serial.add_path(&[input, combo]);
        serial.add_path(&[input, combo]);
        // Sharded: one path per counter, merged.
        let mut a = VertexHitCounter::new(&g, Some(&meta));
        a.add_path(&[input, combo]);
        let mut b = VertexHitCounter::new(&g, Some(&meta));
        b.add_path(&[input, combo]);
        a.merge(&b);
        let (s, m) = (serial.stats(), a.stats());
        assert_eq!(s.paths, m.paths);
        assert_eq!(s.total_length, m.total_length);
        assert_eq!(s.max_vertex_hits, m.max_vertex_hits);
        assert_eq!(s.max_meta_hits, m.max_meta_hits);
        assert_eq!(a.hits_of(input), serial.hits_of(input));
    }

    #[test]
    fn arena_stores_paths_flat() {
        let g = build_cdag(&strassen(), 1);
        let input = g.inputs().next().unwrap();
        let combo = g.succs(input)[0];
        let mut arena = PathArena::with_capacity(2, 2);
        assert!(arena.is_empty());
        arena.push(&[input, combo]);
        arena.push(&[combo]);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.total_vertices(), 3);
        assert_eq!(arena.path(0), &[input, combo]);
        assert_eq!(arena.path(1), &[combo]);
        let collected: Vec<&[VertexId]> = arena.iter().collect();
        assert_eq!(collected.len(), 2);
    }

    #[test]
    fn chain_detection() {
        let g = build_cdag(&strassen(), 1);
        let input = g.inputs().next().unwrap();
        let combo = g.succs(input)[0];
        assert!(is_chain(&g, &[input, combo]));
        assert!(!is_chain(&g, &[combo, input]));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-edge")]
    fn non_edge_paths_rejected_in_debug() {
        let g = build_cdag(&strassen(), 1);
        let mut counter = VertexHitCounter::new(&g, None);
        let i1 = g.inputs().next().unwrap();
        let out = g.outputs().next().unwrap();
        counter.add_path(&[i1, out]);
    }
}
