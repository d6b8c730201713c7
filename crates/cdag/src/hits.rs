//! Shared hit-counting primitives: a union-find over dense vertex ids and a
//! streaming per-vertex / per-group hit counter.
//!
//! Two independent checkers count routing hits: the routing engine's one
//! sharded count (`mmio-core::routing::count_sharded`, behind
//! `InOutRouting::verify_with` and `RoutingClass::build`), and the portable
//! certificate verifier (`mmio-cert`, behind `mmio cert verify` and
//! `mmio analyze`). They deliberately *derive* their vertex groupings
//! differently (library meta-vertices, closed-form index arithmetic) — that
//! diversity is the point — but the mechanical bookkeeping (group roots,
//! saturating per-path dedup, shard merging) is identical and lives here,
//! once, unit-tested.

/// A union-find (disjoint-set) structure over dense `u32` ids with path
/// compression. Used to group copy chains into meta-vertices.
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    /// `n` singleton sets `0..n`.
    pub fn new(n: usize) -> UnionFind {
        UnionFind {
            // audit: safe — documented contract; callers size id spaces within u32
            parent: (0..u32::try_from(n).expect("id space exceeds u32")).collect(),
        }
    }

    /// Number of elements (not sets).
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// The representative of `v`'s set, compressing the path to the root.
    pub fn find(&mut self, v: u32) -> u32 {
        let mut root = v;
        // audit: safe — contract: v < len; parent entries are valid ids by construction
        while self.parent[root as usize] != root {
            root = self.parent[root as usize]; // audit: safe — parent entries are valid ids
        }
        let mut cur = v;
        // audit: safe — same invariant as the root walk above
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize]; // audit: safe — parent entries are valid ids
            self.parent[cur as usize] = root; // audit: safe — cur walks valid parent entries
            cur = next;
        }
        root
    }

    /// Merges the sets of `a` and `b`.
    pub fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra as usize] = rb; // audit: safe — ra is a root returned by find
        }
    }

    /// Flattens into a root table: `roots[v]` is the representative of `v`.
    /// Counting against a flat table avoids interior mutability in readers.
    pub fn roots(&mut self) -> Vec<u32> {
        (0..self.parent.len() as u32)
            .map(|v| self.find(v))
            .collect()
    }
}

/// Summary of a counted path family.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HitSummary {
    /// Number of paths counted.
    pub paths: u64,
    /// Total path length (vertices, with multiplicity).
    pub total_length: u64,
    /// Maximum hits over all vertices.
    pub max_vertex_hits: u64,
    /// Maximum hits over all groups (0 if groups are not tracked).
    pub max_group_hits: u64,
}

/// Streaming hit counter over `n` dense vertex ids, optionally also counting
/// hits per *group* (meta-vertex): a path hits each group at most once, no
/// matter how many of the group's vertices it traverses — the paper's
/// counting in the proof of Theorem 2.
///
/// The counter is pure bookkeeping: it never checks that paths traverse real
/// edges. Callers validate hops with whatever edge source their trust model
/// prescribes, then feed the path here.
#[derive(Clone, Debug)]
pub struct HitCounter {
    hits: Vec<u64>,
    /// `Some((roots, group_hits))` when group counting is on; `roots[v]` is
    /// the group representative of vertex `v`.
    groups: Option<(Vec<u32>, Vec<u64>)>,
    paths: u64,
    length_sum: u64,
    /// Reusable per-path scratch of touched group roots.
    touched: Vec<u32>,
}

impl HitCounter {
    /// A counter over `n` vertices without group tracking.
    pub fn new(n: usize) -> HitCounter {
        HitCounter {
            hits: vec![0; n],
            groups: None,
            paths: 0,
            length_sum: 0,
            touched: Vec::new(),
        }
    }

    /// A counter over `roots.len()` vertices that also counts group hits;
    /// `roots[v]` must be the group representative of vertex `v` (e.g. from
    /// [`UnionFind::roots`]).
    pub fn with_groups(roots: Vec<u32>) -> HitCounter {
        let n = roots.len();
        HitCounter {
            hits: vec![0; n],
            groups: Some((roots, vec![0; n])),
            paths: 0,
            length_sum: 0,
            touched: Vec::new(),
        }
    }

    /// Whether this counter tracks group hits.
    pub fn tracks_groups(&self) -> bool {
        self.groups.is_some()
    }

    /// Records one path of dense vertex ids. Vertex hits count per
    /// occurrence; each touched group counts once per path.
    pub fn add_path(&mut self, path: impl IntoIterator<Item = u32>) {
        self.paths += 1; // audit: safe — one increment per call; a u64 count of calls cannot wrap
        let touched = &mut self.touched;
        touched.clear();
        let mut len = 0u64;
        for v in path {
            self.hits[v as usize] += 1; // audit: safe — contract: path ids are pre-validated < n
            len += 1; // audit: safe — one increment per iterated vertex; cannot wrap a u64
            if let Some((roots, _)) = &self.groups {
                touched.push(roots[v as usize]); // audit: safe — roots table is sized n
            }
        }
        // audit: safe — the sum of every iterated vertex over all calls; cannot wrap a u64
        self.length_sum += len;
        if let Some((_, group_hits)) = &mut self.groups {
            touched.sort_unstable();
            touched.dedup();
            for &root in touched.iter() {
                group_hits[root as usize] += 1; // audit: safe — roots are themselves ids < n
            }
        }
    }

    /// Hits of one vertex.
    pub fn hits_of(&self, v: u32) -> u64 {
        self.hits[v as usize]
    }

    /// Dense index of a vertex with maximal hits (ties: lowest id).
    pub fn argmax_vertex(&self) -> Option<u32> {
        argmax(&self.hits)
    }

    /// Dense index of a group root with maximal group hits (ties: lowest id).
    pub fn argmax_group(&self) -> Option<u32> {
        self.groups.as_ref().and_then(|(_, gh)| argmax(gh))
    }

    /// Absorbs another counter over the same vertex space. Hit counts are
    /// sums, so merging sharded counters in any fixed order reproduces the
    /// serial count exactly — the foundation of every deterministic parallel
    /// verification path in the workspace.
    ///
    /// # Panics
    /// Panics if the counters cover different vertex spaces or disagree on
    /// group tracking.
    pub fn merge(&mut self, other: &HitCounter) {
        assert_eq!(
            self.hits.len(),
            other.hits.len(),
            "counters must cover the same vertex space"
        );
        for (h, o) in self.hits.iter_mut().zip(&other.hits) {
            *h += o;
        }
        match (&mut self.groups, &other.groups) {
            (None, None) => {}
            (Some((_, gh)), Some((_, oh))) => {
                for (h, o) in gh.iter_mut().zip(oh) {
                    *h += o;
                }
            }
            _ => panic!("counters disagree on group tracking"),
        }
        self.paths += other.paths;
        self.length_sum += other.length_sum;
    }

    /// Clears all counts, keeping allocations and the group root table, so
    /// one counter is reusable across per-copy verification sweeps.
    pub fn reset(&mut self) {
        self.hits.fill(0);
        if let Some((_, gh)) = &mut self.groups {
            gh.fill(0);
        }
        self.paths = 0;
        self.length_sum = 0;
    }

    /// Summary statistics so far.
    pub fn summary(&self) -> HitSummary {
        HitSummary {
            paths: self.paths,
            total_length: self.length_sum,
            max_vertex_hits: self.hits.iter().copied().max().unwrap_or(0),
            max_group_hits: self
                .groups
                .as_ref()
                .map(|(_, gh)| gh.iter().copied().max().unwrap_or(0))
                .unwrap_or(0),
        }
    }
}

fn argmax(values: &[u64]) -> Option<u32> {
    let (mut best, mut best_at) = (0u64, None);
    for (i, &v) in values.iter().enumerate() {
        if best_at.is_none() || v > best {
            best = v;
            best_at = Some(i as u32);
        }
    }
    best_at
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_find_groups_and_compresses() {
        let mut uf = UnionFind::new(6);
        assert_eq!(uf.len(), 6);
        assert!(!uf.is_empty());
        uf.union(0, 1);
        uf.union(1, 2);
        uf.union(4, 5);
        let roots = uf.roots();
        assert_eq!(roots.len(), 6);
        assert_eq!(roots[0], roots[1]);
        assert_eq!(roots[1], roots[2]);
        assert_eq!(roots[4], roots[5]);
        assert_ne!(roots[0], roots[3]);
        // Root table entries are fixed points.
        for &r in &roots {
            assert_eq!(roots[r as usize], r);
        }
    }

    #[test]
    fn vertex_hits_count_multiplicity_group_hits_once_per_path() {
        let mut uf = UnionFind::new(4);
        uf.union(0, 1); // {0,1} one group
        let mut c = HitCounter::with_groups(uf.roots());
        assert!(c.tracks_groups());
        // A path through both members of the group: each vertex hit once,
        // the group hit once.
        c.add_path([0u32, 1, 2]);
        c.add_path([0u32, 1, 2]);
        let s = c.summary();
        assert_eq!(s.paths, 2);
        assert_eq!(s.total_length, 6);
        assert_eq!(s.max_vertex_hits, 2);
        assert_eq!(s.max_group_hits, 2, "group counted once per path");
        assert_eq!(c.hits_of(0), 2);
        assert_eq!(c.hits_of(3), 0);
    }

    #[test]
    fn merge_equals_serial() {
        let mut uf = UnionFind::new(3);
        uf.union(1, 2);
        let roots = uf.roots();
        let mut serial = HitCounter::with_groups(roots.clone());
        serial.add_path([0u32, 1]);
        serial.add_path([1u32, 2]);
        let mut a = HitCounter::with_groups(roots.clone());
        a.add_path([0u32, 1]);
        let mut b = HitCounter::with_groups(roots);
        b.add_path([1u32, 2]);
        a.merge(&b);
        assert_eq!(a.summary(), serial.summary());
        assert_eq!(a.hits_of(1), serial.hits_of(1));
    }

    #[test]
    fn reset_keeps_grouping() {
        let mut uf = UnionFind::new(2);
        uf.union(0, 1);
        let mut c = HitCounter::with_groups(uf.roots());
        c.add_path([0u32, 1]);
        c.reset();
        assert_eq!(c.summary(), HitSummary::default());
        c.add_path([0u32, 1]);
        assert_eq!(c.summary().max_group_hits, 1);
    }

    #[test]
    fn argmax_prefers_lowest_id_on_ties() {
        let mut c = HitCounter::new(3);
        c.add_path([1u32, 2]);
        assert_eq!(c.argmax_vertex(), Some(1));
        assert_eq!(c.argmax_group(), None, "groups untracked");
        let empty = HitCounter::new(0);
        assert_eq!(empty.argmax_vertex(), None);
    }

    #[test]
    #[should_panic(expected = "group tracking")]
    fn merge_rejects_mismatched_tracking() {
        let mut a = HitCounter::new(2);
        let b = HitCounter::with_groups(vec![0, 1]);
        a.merge(&b);
    }
}
