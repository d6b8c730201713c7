//! Interconnect topologies and the contended-time machine model.
//!
//! The paper's counts (total words, per-rank critical path) assume a
//! fully-connected machine where every word costs the same. Real
//! interconnects serialize traffic on *links*: a ring forwards a word
//! through every intermediate node, a 2D torus routes dimension-ordered
//! (X then Y, shortest direction, ties towards positive). This module
//! models that: each send is routed deterministically over directed
//! links, loads accumulate per (round, link), and a round's contended
//! time follows the classic α-β-γ cost model
//!
//! ```text
//! time(ρ) = γ·max_execs(ρ) + α·max_hops(ρ) + β·max(max_link(ρ), max_rank(ρ))
//! ```
//!
//! where the maxima range over ranks (execs; words sent+received — the
//! NIC bottleneck) and directed links (forwarded words — the wire
//! bottleneck). Rounds are the paper's global ranks (`0..=2r+1`): the
//! round of a send or exec is the CDAG rank of its vertex, so the
//! bucketing is derivable from the graph alone and the analyzer can
//! recount it without trusting the engine.
//!
//! With `β ≥ 1` (enforced by [`MachineModel::new`]) the contended
//! makespan dominates the uncontended critical path:
//! `Σ_ρ max_rank(ρ) ≥ max_r Σ_ρ (sent_r + recv_r)(ρ) = critical_path_words`.
//!
//! **Arcs and difference arrays.** Every tracked link lies on one
//! directed *line* that closes on itself: the ring's two directions, or
//! one row (x±) or column (y±) of the torus. A dimension-ordered
//! shortest route uses one contiguous arc per line — on a ring the
//! forward arc `[from, from + fwd)` or the backward arc ending at `from`;
//! on a torus an x-arc on row `from / q`, then a y-arc on column
//! `to % q`. So the run's accumulator charges a word in O(1), whatever
//! its hop count: +1 at the arc's first link and −1 just past its last,
//! in a per-round difference array indexed by link id, with a wrapping
//! arc split in two. The report takes one prefix sum per line to get
//! every link's load. A send derives its route's arcs once and takes its
//! hop count from them. [`Topology::route_into`] and [`Topology::hops`]
//! stay the hop-by-hop definition, which the analyzer's recount and the
//! tests use as the oracle. One accumulator serves a whole run:
//! `rounds · (2P + links)` words.
//!
//! Offsets `(to − from) mod p` are computed without intermediate
//! overflow and link ids are `u64`, so every `p ≥ 1` up to `u32::MAX`
//! routes exactly; `p = 0` is rejected by [`Topology::validate`].

use serde::{Serialize, Value};

/// A point-to-point interconnect shape over `p` ranks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// Every pair of ranks shares a dedicated wire; the only bottleneck
    /// is the per-rank NIC (no per-link load is tracked — a pair link's
    /// load is always bounded by its endpoints' NIC loads).
    Full,
    /// A bidirectional ring: rank `i` links to `i±1 (mod p)`. Words take
    /// the shorter direction; ties go forward (towards `+1`).
    Ring,
    /// A `q×q` bidirectional torus (`p = q²`), rank `= x + q·y`. Routing
    /// is dimension-ordered: X first, then Y, each the shorter way
    /// around, ties towards positive.
    Torus2d {
        /// Side length; `p` must equal `q²`.
        q: u32,
    },
}

impl Serialize for Topology {
    fn to_value(&self) -> Value {
        match *self {
            Topology::Full => Value::Str("full".to_string()),
            Topology::Ring => Value::Str("ring".to_string()),
            Topology::Torus2d { q } => Value::Str(format!("torus{q}x{q}")),
        }
    }
}

impl Topology {
    /// Parses a CLI spelling (`full`, `ring`, `torus`) against a rank
    /// count, checking the torus side constraint.
    pub fn parse(s: &str, p: u32) -> Result<Topology, String> {
        let t = match s {
            "full" => Topology::Full,
            "ring" => Topology::Ring,
            "torus" => {
                let q = (p as f64).sqrt().round() as u32;
                if q == 0 || q.checked_mul(q) != Some(p) {
                    return Err(format!("--topo torus needs a square rank count, got {p}"));
                }
                Topology::Torus2d { q }
            }
            other => return Err(format!("unknown topology {other:?} (full|ring|torus)")),
        };
        t.validate(p)?;
        Ok(t)
    }

    /// Checks that the topology is consistent with `p` ranks (at least
    /// one: routes are taken modulo `p`).
    pub fn validate(&self, p: u32) -> Result<(), String> {
        if p == 0 {
            return Err("a topology needs at least one rank".to_string());
        }
        match *self {
            Topology::Full | Topology::Ring => Ok(()),
            Topology::Torus2d { q } => {
                if q.checked_mul(q) == Some(p) {
                    Ok(())
                } else {
                    Err(format!("torus side {q} does not square to {p} ranks"))
                }
            }
        }
    }

    /// Number of directed links whose load is tracked. `Full` tracks
    /// none (see the variant docs).
    pub fn n_links(&self, p: u32) -> usize {
        match self {
            Topology::Full => 0,
            Topology::Ring => 2 * p as usize,
            Topology::Torus2d { .. } => 4 * p as usize,
        }
    }

    /// Hop count of the deterministic route `from → to` (1 on `Full`).
    pub fn hops(&self, p: u32, from: u32, to: u32) -> u64 {
        match *self {
            Topology::Full => 1,
            Topology::Ring => {
                let fwd = forward(p, from, to);
                u64::from(fwd.min(p - fwd))
            }
            Topology::Torus2d { q } => {
                let dx = forward(q, from % q, to % q);
                let dy = forward(q, from / q, to / q);
                u64::from(dx.min(q - dx)) + u64::from(dy.min(q - dy))
            }
        }
    }

    /// Appends the directed link ids of the route `from → to` to `out`
    /// (cleared first). Empty on `Full` — no per-link tracking. Link
    /// ids: ring `2·node + {0:+1, 1:−1}`, torus `4·node + {0:x+, 1:x−,
    /// 2:y+, 3:y−}`, where `node` is the rank the word departs from.
    pub fn route_into(&self, p: u32, from: u32, to: u32, out: &mut Vec<u64>) {
        out.clear();
        match *self {
            Topology::Full => {}
            Topology::Ring => {
                let fwd = forward(p, from, to);
                let mut cur = from;
                if fwd <= p - fwd {
                    for _ in 0..fwd {
                        out.push(2 * u64::from(cur));
                        cur = step_up(p, cur);
                    }
                } else {
                    for _ in 0..(p - fwd) {
                        out.push(2 * u64::from(cur) + 1);
                        cur = step_down(p, cur);
                    }
                }
            }
            Topology::Torus2d { q } => {
                let (mut x, mut y) = (from % q, from / q);
                let (tx, ty) = (to % q, to / q);
                let node = |x: u32, y: u32| 4 * (u64::from(x) + u64::from(q) * u64::from(y));
                let fx = forward(q, x, tx);
                if fx <= q - fx {
                    for _ in 0..fx {
                        out.push(node(x, y));
                        x = step_up(q, x);
                    }
                } else {
                    for _ in 0..(q - fx) {
                        out.push(node(x, y) + 1);
                        x = step_down(q, x);
                    }
                }
                let fy = forward(q, y, ty);
                if fy <= q - fy {
                    for _ in 0..fy {
                        out.push(node(x, y) + 2);
                        y = step_up(q, y);
                    }
                } else {
                    for _ in 0..(q - fy) {
                        out.push(node(x, y) + 3);
                        y = step_down(q, y);
                    }
                }
            }
        }
    }

    /// The directed lines of the interconnect: the ring's two directions,
    /// or the torus's rows (x±) and columns (y±). Every tracked link lies
    /// on exactly one line.
    fn lines(&self, p: u32) -> Vec<Line> {
        match *self {
            Topology::Full => Vec::new(),
            Topology::Ring => (0..2).map(|d| Line::new(d, 2, p)).collect(),
            Topology::Torus2d { q } => {
                let q64 = u64::from(q);
                let rows =
                    (0..2).flat_map(|d| (0..q64).map(move |y| Line::new(4 * q64 * y + d, 4, q)));
                let cols =
                    (2..4).flat_map(|d| (0..q64).map(move |x| Line::new(4 * x + d, 4 * q64, q)));
                rows.chain(cols).collect()
            }
        }
    }

    /// The route `from → to` as at most two arcs, the same links
    /// [`Topology::route_into`] lists hop by hop: on a ring, the forward
    /// arc starting at `from` or the backward arc ending at `from`; on a
    /// torus, an x-arc on row `from / q`, then a y-arc on column `to % q`.
    /// Zero-hop legs are `None`.
    fn arcs(&self, p: u32, from: u32, to: u32) -> [Option<Arc>; 2] {
        match *self {
            Topology::Full => [None, None],
            Topology::Ring => [
                Arc::shortest(Line::new(0, 2, p), Line::new(1, 2, p), from, to),
                None,
            ],
            Topology::Torus2d { q } => {
                let q64 = u64::from(q);
                let (x, y) = (from % q, from / q);
                let (tx, ty) = (to % q, to / q);
                let row = |d: u64| Line::new(4 * q64 * u64::from(y) + d, 4, q);
                let col = |d: u64| Line::new(4 * u64::from(tx) + d, 4 * q64, q);
                [
                    Arc::shortest(row(0), row(1), x, tx),
                    Arc::shortest(col(2), col(3), y, ty),
                ]
            }
        }
    }

    /// The hop count of a route from its [`Topology::arcs`]: 1 on `Full`,
    /// which tracks no links, else the sum of the arcs' hops — what
    /// [`Topology::hops`] derives from the coordinates again.
    fn arc_hops(&self, arcs: &[Option<Arc>; 2]) -> u64 {
        match self {
            Topology::Full => 1,
            _ => arcs.iter().flatten().map(|a| u64::from(a.hops)).sum(),
        }
    }
}

/// `(to − from) mod n` for `from, to < n`, without intermediate overflow.
fn forward(n: u32, from: u32, to: u32) -> u32 {
    if to >= from {
        to - from
    } else {
        n - (from - to)
    }
}

/// `(i + 1) mod n` for `i < n`.
fn step_up(n: u32, i: u32) -> u32 {
    if i + 1 == n {
        0
    } else {
        i + 1
    }
}

/// `(i − 1) mod n` for `i < n`.
fn step_down(n: u32, i: u32) -> u32 {
    if i == 0 {
        n - 1
    } else {
        i - 1
    }
}

/// One directed line of links that closes on itself: position `i` is
/// link `first + i·stride`, for `i < len`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Line {
    first: u64,
    stride: u64,
    len: u32,
}

impl Line {
    fn new(first: u64, stride: u64, len: u32) -> Line {
        Line { first, stride, len }
    }

    /// The link id at position `i`.
    fn link(&self, i: u32) -> usize {
        (self.first + u64::from(i) * self.stride) as usize
    }
}

/// The links one route leg uses on one line: positions `start`,
/// `start + 1`, …, `start + hops − 1`, modulo the line's length.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Arc {
    line: Line,
    start: u32,
    hops: u32,
}

impl Arc {
    /// The shorter way from position `from` to `to` along a line pair:
    /// forward on `up` from `from`, or backward on `down`, which uses the
    /// links of positions `to + 1 ..= from`. Ties go forward.
    fn shortest(up: Line, down: Line, from: u32, to: u32) -> Option<Arc> {
        let n = up.len;
        let fwd = forward(n, from, to);
        let arc = if fwd <= n - fwd {
            Arc {
                line: up,
                start: from,
                hops: fwd,
            }
        } else {
            Arc {
                line: down,
                start: step_up(n, to),
                hops: n - fwd,
            }
        };
        (arc.hops > 0).then_some(arc)
    }

    /// Adds one word to each link of the arc in `diff`, the line's
    /// difference array: +1 where the arc starts, −1 just past where it
    /// ends, and a wrapping arc split in two at position 0.
    fn add_to(&self, diff: &mut [i64]) {
        let end = u64::from(self.start) + u64::from(self.hops);
        let len = u64::from(self.line.len);
        diff[self.line.link(self.start)] += 1;
        if end < len {
            diff[self.line.link(end as u32)] -= 1;
        } else if end > len {
            diff[self.line.link(0)] += 1;
            diff[self.line.link((end - len) as u32)] -= 1;
        }
    }
}

/// The α-β-γ cost parameters attached to a [`Topology`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct MachineModel {
    /// Interconnect shape.
    pub topo: Topology,
    /// Per-round latency charge per hop of the longest route used (α).
    pub alpha: u64,
    /// Inverse bandwidth: time per word on the busiest link/NIC (β ≥ 1,
    /// so the makespan dominates the uncontended critical path).
    pub beta: u64,
    /// Compute time per executed vertex on the busiest rank (γ).
    pub gamma: u64,
}

impl MachineModel {
    /// Builds a model.
    ///
    /// # Panics
    /// Panics if `beta == 0`: the makespan ≥ critical-path-words contract
    /// needs at least one time unit per word.
    pub fn new(topo: Topology, alpha: u64, beta: u64, gamma: u64) -> MachineModel {
        assert!(beta >= 1, "inverse bandwidth must be >= 1, got {beta}");
        MachineModel {
            topo,
            alpha,
            beta,
            gamma,
        }
    }
}

/// Per-round contended load summary.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct RoundLoad {
    /// The CDAG rank this round executes (`0..=2r+1`).
    pub round: u32,
    /// Words sent in this round.
    pub words: u64,
    /// Words × hops: total link occupancy in this round (equals `words`
    /// on `Full`, where every route is one hop).
    pub hop_words: u64,
    /// Longest route (hops) of any send this round.
    pub max_hops: u64,
    /// Busiest directed link (forwarded words); 0 on `Full`.
    pub max_link_words: u64,
    /// Busiest rank (words sent + received).
    pub max_rank_words: u64,
    /// Busiest rank (vertices executed).
    pub max_execs: u64,
    /// `γ·max_execs + α·max_hops + β·max(max_link_words, max_rank_words)`.
    pub time: u64,
}

/// The full contended-time accounting of one run.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct ContentionReport {
    /// The model that produced the timing.
    pub machine: MachineModel,
    /// One entry per CDAG rank, in rank order (empty rounds included).
    pub rounds: Vec<RoundLoad>,
    /// Sum of the per-round times.
    pub makespan: u64,
}

/// The contended-load accumulator of one run: per-round word and hop
/// totals, per-(round, rank) NIC loads and executions, and per-round
/// link-load difference arrays. A send costs O(1) whatever its length:
/// each arc of its route adds ±1 at its two ends (see [`Arc::add_to`]),
/// and [`ContAcc::report`] takes one prefix sum per line. State is
/// `rounds · (2P + links)` words, allocated once per run.
#[derive(Clone, Debug)]
pub(crate) struct ContAcc {
    machine: MachineModel,
    p: u32,
    rounds: usize,
    n_links: usize,
    words: Vec<u64>,
    hop_words: Vec<u64>,
    max_hops: Vec<u64>,
    rank_words: Vec<u64>,
    execs: Vec<u64>,
    /// `n_links` cells per round, indexed by link id: along each line,
    /// a link's load is the sum of the line's cells up to and including
    /// its own.
    link_diff: Vec<i64>,
}

impl ContAcc {
    pub(crate) fn new(machine: MachineModel, p: u32, rounds: usize) -> ContAcc {
        let n_links = machine.topo.n_links(p);
        let ranks = rounds * p as usize;
        ContAcc {
            machine,
            p,
            rounds,
            n_links,
            words: vec![0; rounds],
            hop_words: vec![0; rounds],
            max_hops: vec![0; rounds],
            rank_words: vec![0; ranks],
            execs: vec![0; ranks],
            link_diff: vec![0; rounds * n_links],
        }
    }

    pub(crate) fn record_send(&mut self, round: usize, from: u32, to: u32) {
        let p = self.p as usize;
        self.words[round] += 1;
        self.rank_words[round * p + from as usize] += 1;
        self.rank_words[round * p + to as usize] += 1;
        let topo = self.machine.topo;
        let arcs = topo.arcs(self.p, from, to);
        let h = topo.arc_hops(&arcs);
        self.hop_words[round] += h;
        self.max_hops[round] = self.max_hops[round].max(h);
        let diff = &mut self.link_diff[round * self.n_links..(round + 1) * self.n_links];
        for arc in arcs.into_iter().flatten() {
            arc.add_to(diff);
        }
    }

    pub(crate) fn record_execs(&mut self, round: usize, proc: u32, n: u64) {
        self.execs[round * self.p as usize + proc as usize] += n;
    }

    /// Words forwarded over each link in `round`, indexed by link id.
    fn link_loads(&self, round: usize) -> Vec<u64> {
        let diff = &self.link_diff[round * self.n_links..(round + 1) * self.n_links];
        let mut loads = vec![0; self.n_links];
        for line in self.machine.topo.lines(self.p) {
            let mut load = 0i64;
            for i in 0..line.len {
                load += diff[line.link(i)];
                loads[line.link(i)] = load as u64;
            }
        }
        loads
    }

    pub(crate) fn report(&self) -> ContentionReport {
        let p = self.p as usize;
        let mut rounds = Vec::with_capacity(self.rounds);
        let mut makespan = 0u64;
        for r in 0..self.rounds {
            let max_rank_words = self.rank_words[r * p..(r + 1) * p]
                .iter()
                .copied()
                .max()
                .unwrap_or(0);
            let max_execs = self.execs[r * p..(r + 1) * p]
                .iter()
                .copied()
                .max()
                .unwrap_or(0);
            let max_link_words = self.link_loads(r).into_iter().max().unwrap_or(0);
            let load = RoundLoad {
                round: r as u32,
                words: self.words[r],
                hop_words: self.hop_words[r],
                max_hops: self.max_hops[r],
                max_link_words,
                max_rank_words,
                max_execs,
                time: round_time(
                    &self.machine,
                    max_execs,
                    self.max_hops[r],
                    max_link_words,
                    max_rank_words,
                ),
            };
            makespan += load.time;
            rounds.push(load);
        }
        ContentionReport {
            machine: self.machine,
            rounds,
            makespan,
        }
    }
}

/// The α-β-γ round-time formula, shared with the analyzer's recount.
pub fn round_time(
    machine: &MachineModel,
    max_execs: u64,
    max_hops: u64,
    max_link_words: u64,
    max_rank_words: u64,
) -> u64 {
    machine.gamma * max_execs
        + machine.alpha * max_hops
        + machine.beta * max_link_words.max(max_rank_words)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_routes_take_the_short_way() {
        let t = Topology::Ring;
        let mut route = Vec::new();
        // 0 → 2 of 8: forward through links 0, 2.
        t.route_into(8, 0, 2, &mut route);
        assert_eq!(route, vec![0, 2]);
        assert_eq!(t.hops(8, 0, 2), 2);
        // 0 → 6 of 8: backward through 0−, 7−.
        t.route_into(8, 0, 6, &mut route);
        assert_eq!(route, vec![1, 15]);
        assert_eq!(t.hops(8, 0, 6), 2);
        // Antipodal tie goes forward.
        t.route_into(8, 0, 4, &mut route);
        assert_eq!(route.len(), 4);
        assert!(route.iter().all(|l| l % 2 == 0));
    }

    #[test]
    fn torus_routes_are_dimension_ordered() {
        let t = Topology::Torus2d { q: 4 };
        let mut route = Vec::new();
        // (0,0) → (2,1) of 4×4: x+,x+ then y+. Rank 0 → rank 6.
        t.route_into(16, 0, 6, &mut route);
        // Link ids: x+ from node 0, x+ from node 1, y+ from node 2.
        assert_eq!(route, vec![0, 4, 4 * 2 + 2]);
        assert_eq!(t.hops(16, 0, 6), 3);
    }

    #[test]
    fn route_length_matches_hops_everywhere() {
        let mut route = Vec::new();
        for (topo, p) in [
            (Topology::Ring, 7u32),
            (Topology::Ring, 8),
            (Topology::Torus2d { q: 3 }, 9),
            (Topology::Torus2d { q: 4 }, 16),
        ] {
            for from in 0..p {
                for to in 0..p {
                    if from == to {
                        continue;
                    }
                    topo.route_into(p, from, to, &mut route);
                    assert_eq!(
                        route.len() as u64,
                        topo.hops(p, from, to),
                        "{topo:?} {from}->{to}"
                    );
                }
            }
        }
    }

    /// Every ring of 1..=17 ranks and torus of side 1..=6, with `p`.
    fn small_topologies() -> Vec<(Topology, u32)> {
        let rings = (1..=17).map(|p| (Topology::Ring, p));
        let tori = (1..=6).map(|q| (Topology::Torus2d { q }, q * q));
        rings.chain(tori).collect()
    }

    /// Per-hop link loads of `sends` (one round), from `route_into`.
    fn routed_loads(topo: Topology, p: u32, sends: &[(u32, u32)]) -> Vec<u64> {
        let mut loads = vec![0; topo.n_links(p)];
        let mut route = Vec::new();
        for &(from, to) in sends {
            topo.route_into(p, from, to, &mut route);
            for &link in &route {
                loads[link as usize] += 1;
            }
        }
        loads
    }

    #[test]
    fn difference_arrays_match_per_hop_routes_link_for_link() {
        // Every ordered pair alone (odd and even sizes, antipodal ties,
        // wraparound), then all pairs at once spread over three rounds:
        // the prefix-summed difference arrays give the per-hop counts of
        // `route_into` on every link, and the report's per-round maxima
        // and hop totals agree with them.
        for (topo, p) in small_topologies() {
            let machine = MachineModel::new(topo, 1, 1, 1);
            let pairs: Vec<(u32, u32)> = (0..p).flat_map(|f| (0..p).map(move |t| (f, t))).collect();
            for &(from, to) in &pairs {
                let mut acc = ContAcc::new(machine, p, 1);
                acc.record_send(0, from, to);
                let expect = routed_loads(topo, p, &[(from, to)]);
                assert_eq!(acc.link_loads(0), expect, "{topo:?} {from}->{to}");
            }
            let mut acc = ContAcc::new(machine, p, 3);
            for (i, &(from, to)) in pairs.iter().enumerate() {
                acc.record_send(i % 3, from, to);
            }
            let report = acc.report();
            for round in 0..3 {
                let sends: Vec<(u32, u32)> = pairs.iter().copied().skip(round).step_by(3).collect();
                let expect = routed_loads(topo, p, &sends);
                assert_eq!(acc.link_loads(round), expect, "{topo:?} round {round}");
                let load = &report.rounds[round];
                assert_eq!(
                    load.max_link_words,
                    expect.iter().copied().max().unwrap_or(0)
                );
                assert_eq!(load.hop_words, expect.iter().sum::<u64>(), "{topo:?}");
            }
        }
    }

    /// On every small ring and torus and on `Full`, the hop count a send
    /// takes from its arcs is the coordinate definition's, for every pair.
    #[test]
    fn arc_hops_equal_coordinate_hops() {
        let full = [(Topology::Full, 1), (Topology::Full, 7)];
        for (topo, p) in small_topologies().into_iter().chain(full) {
            for from in 0..p {
                for to in 0..p {
                    let arcs = topo.arcs(p, from, to);
                    assert_eq!(
                        topo.arc_hops(&arcs),
                        topo.hops(p, from, to),
                        "{topo:?} p={p} {from}->{to}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_ranks_are_rejected() {
        for topo in [Topology::Full, Topology::Ring, Topology::Torus2d { q: 0 }] {
            assert!(topo.validate(0).is_err(), "{topo:?}");
        }
        assert!(Topology::parse("ring", 0).is_err());
        assert!(Topology::parse("full", 0).is_err());
        assert!(Topology::parse("torus", 0).is_err());
    }

    #[test]
    fn one_and_two_ranks_route_sensibly() {
        let mut route = Vec::new();
        for topo in [Topology::Ring, Topology::Torus2d { q: 1 }] {
            assert!(topo.validate(1).is_ok());
            assert_eq!(topo.hops(1, 0, 0), 0);
            topo.route_into(1, 0, 0, &mut route);
            assert!(route.is_empty());
            assert_eq!(topo.arcs(1, 0, 0), [None, None]);
        }
        // Two ranks: both directions are one hop, and the tie goes forward.
        let t = Topology::Ring;
        assert!(t.validate(2).is_ok());
        t.route_into(2, 0, 1, &mut route);
        assert_eq!(route, vec![0]);
        t.route_into(2, 1, 0, &mut route);
        assert_eq!(route, vec![2]);
        assert_eq!(t.hops(2, 1, 0), 1);
    }

    /// The links of the route `from → to`: per hop from `route_into` and
    /// position by position from its arcs, each sorted.
    fn both_link_lists(t: Topology, p: u32, from: u32, to: u32) -> (Vec<u64>, Vec<u64>) {
        let mut route = Vec::new();
        t.route_into(p, from, to, &mut route);
        route.sort_unstable();
        let mut arcs: Vec<u64> = t
            .arcs(p, from, to)
            .into_iter()
            .flatten()
            .flat_map(|a| {
                (0..a.hops).map(move |i| {
                    let pos = (u64::from(a.start) + u64::from(i)) % u64::from(a.line.len);
                    a.line.link(pos as u32) as u64
                })
            })
            .collect();
        arcs.sort_unstable();
        (route, arcs)
    }

    #[test]
    fn offsets_do_not_wrap_at_u32_max_ranks() {
        let (t, p) = (Topology::Ring, u32::MAX);
        assert!(t.validate(p).is_ok());
        // Backward across rank 0, forward across the top, and the longest
        // route, which goes forward (p is odd: no tie).
        for (from, to, hops) in [
            (0, p - 1, 1u64),
            (p - 1, 0, 1),
            (p - 2, 1, 3),
            (1, p - 2, 3),
        ] {
            assert_eq!(t.hops(p, from, to), hops, "{from}->{to}");
            let (route, arcs) = both_link_lists(t, p, from, to);
            assert_eq!(route, arcs, "{from}->{to}");
        }
        assert_eq!(t.hops(p, 0, p / 2), u64::from(p / 2));
        assert_eq!(t.hops(p, p / 2, 0), u64::from(p / 2));
        // Route (0, 0) -> (q−1, q−1) and back on the largest square torus:
        // link ids pass u32::MAX.
        let q = 65_535u32;
        let (t, p) = (Topology::Torus2d { q }, q * q);
        assert!(t.validate(p).is_ok());
        for (from, to) in [(0, p - 1), (p - 1, 0)] {
            assert_eq!(t.hops(p, from, to), 2);
            let (route, arcs) = both_link_lists(t, p, from, to);
            assert_eq!(route, arcs, "{from}->{to}");
        }
        let mut route = Vec::new();
        t.route_into(p, p - 1, 0, &mut route);
        let last_row = u64::from(q) * u64::from(q - 1);
        assert_eq!(route, vec![4 * u64::from(p - 1), 4 * last_row + 2]);
    }

    #[test]
    fn parse_checks_square() {
        assert!(Topology::parse("torus", 16).is_ok());
        assert!(Topology::parse("torus", 12).is_err());
        assert!(Topology::parse("ring", 5).is_ok());
        assert!(Topology::parse("hypercube", 8).is_err());
    }

    #[test]
    #[should_panic(expected = "inverse bandwidth")]
    fn zero_beta_is_rejected() {
        MachineModel::new(Topology::Full, 0, 0, 0);
    }
}
