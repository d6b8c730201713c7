//! Cache replacement policies for the automatic scheduler.
//!
//! The model lets the scheduler choose *which* cached value to evict when
//! space is needed; the choice changes the I/O count but not validity. The
//! policies here span the design space experiment E11 compares: LRU
//! (realistic), Belady's MIN (offline-optimal eviction for a fixed compute
//! order), and random (baseline).

use mmio_cdag::VertexId;
use rand::Rng;

/// How the fast engine in [`crate::auto`] may specialize a policy.
///
/// A policy that returns [`PolicyKind::Lru`] or [`PolicyKind::Belady`]
/// promises that its [`ReplacementPolicy::choose_victim`] implements exactly
/// the canonical rule below, which lets the engine replace the per-eviction
/// candidate scan with an exact structure of its own (a recency list, an
/// indexed next-use heap) and never call the policy at all:
///
/// - **LRU**: minimize `(last_touch, VertexId)` — least-recently touched,
///   ties (impossible under the scheduler's monotone clock, but defined
///   anyway) broken toward the smaller vertex id;
/// - **Belady**: maximize `(next_use, Reverse(VertexId))` — farthest next
///   use, ties broken toward the smaller vertex id.
///
/// [`PolicyKind::Other`] policies are driven through `choose_victim` with
/// the candidate list in cache-insertion order (the order the reference
/// engine has always used), so stateful or randomized policies see the
/// identical call sequence in both engines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyKind {
    /// Canonical least-recently-used (recency list).
    Lru,
    /// Canonical Belady MIN (indexed next-use heap).
    Belady,
    /// Anything else: the engine falls back to `choose_victim`.
    Other,
}

/// A replacement policy: asked to rank eviction candidates.
///
/// The scheduler always prefers evicting *dead* values (never used again,
/// already stored if needed) — that is free and policy-independent. Policies
/// only decide among *live* candidates.
pub trait ReplacementPolicy {
    /// Called when `v` is touched (loaded, computed, or used as an operand)
    /// at logical time `time`. The fast engine calls it on
    /// [`PolicyKind::Other`] policies only; it never consults the others.
    fn on_touch(&mut self, v: VertexId, time: u64);
    /// Chooses which of `candidates` (all live, all cached) to evict.
    /// `next_use[i]` is the compute-order position of the candidate's next
    /// use (`u64::MAX` if none); LRU ignores it, Belady uses it.
    ///
    /// The choice must either be independent of the candidates' order (LRU,
    /// Belady — both use a total key with a VertexId tie-break) or accept
    /// that it sees candidates in cache-insertion order (random).
    fn choose_victim(&mut self, candidates: &[VertexId], next_use: &[u64]) -> usize;
    /// Policy name for reports.
    fn name(&self) -> &'static str;
    /// Which canonical rule (if any) this policy implements; see
    /// [`PolicyKind`]. Defaults to [`PolicyKind::Other`].
    fn kind(&self) -> PolicyKind {
        PolicyKind::Other
    }
}

/// Least-recently-used.
#[derive(Default)]
pub struct Lru {
    last_touch: Vec<u64>,
}

impl Lru {
    /// Creates an LRU policy for a graph with `n` vertices.
    pub fn new(n: usize) -> Lru {
        Lru {
            last_touch: vec![0; n],
        }
    }
}

impl ReplacementPolicy for Lru {
    fn on_touch(&mut self, v: VertexId, time: u64) {
        self.last_touch[v.idx()] = time;
    }
    fn choose_victim(&mut self, candidates: &[VertexId], _next_use: &[u64]) -> usize {
        (0..candidates.len())
            .min_by_key(|&i| (self.last_touch[candidates[i].idx()], candidates[i]))
            .expect("no eviction candidates")
    }
    fn name(&self) -> &'static str {
        "lru"
    }
    fn kind(&self) -> PolicyKind {
        PolicyKind::Lru
    }
}

/// Belady's MIN: evict the value whose next use is farthest in the future.
/// Optimal eviction for a fixed compute order.
#[derive(Default)]
pub struct Belady;

impl ReplacementPolicy for Belady {
    fn on_touch(&mut self, _v: VertexId, _time: u64) {}
    fn choose_victim(&mut self, candidates: &[VertexId], next_use: &[u64]) -> usize {
        (0..candidates.len())
            .max_by_key(|&i| (next_use[i], std::cmp::Reverse(candidates[i])))
            .expect("no eviction candidates")
    }
    fn name(&self) -> &'static str {
        "belady"
    }
    fn kind(&self) -> PolicyKind {
        PolicyKind::Belady
    }
}

/// Uniform-random eviction.
pub struct RandomEvict<R: Rng> {
    rng: R,
}

impl<R: Rng> RandomEvict<R> {
    /// Creates a random-eviction policy.
    pub fn new(rng: R) -> RandomEvict<R> {
        RandomEvict { rng }
    }
}

impl<R: Rng> ReplacementPolicy for RandomEvict<R> {
    fn on_touch(&mut self, _v: VertexId, _time: u64) {}
    fn choose_victim(&mut self, candidates: &[VertexId], _next_use: &[u64]) -> usize {
        self.rng.gen_range(0..candidates.len())
    }
    fn name(&self) -> &'static str {
        "random"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lru_picks_least_recent() {
        let mut lru = Lru::new(3);
        lru.on_touch(VertexId(0), 5);
        lru.on_touch(VertexId(1), 2);
        lru.on_touch(VertexId(2), 9);
        let cands = [VertexId(0), VertexId(1), VertexId(2)];
        assert_eq!(lru.choose_victim(&cands, &[0, 0, 0]), 1);
    }

    #[test]
    fn belady_picks_farthest_use() {
        let mut b = Belady;
        let cands = [VertexId(0), VertexId(1)];
        assert_eq!(b.choose_victim(&cands, &[3, 100]), 1);
        assert_eq!(b.choose_victim(&cands, &[u64::MAX, 100]), 0);
    }

    #[test]
    fn random_in_range() {
        let mut r = RandomEvict::new(StdRng::seed_from_u64(1));
        let cands = [VertexId(0), VertexId(1), VertexId(2)];
        for _ in 0..50 {
            assert!(r.choose_victim(&cands, &[0, 0, 0]) < 3);
        }
    }
}
