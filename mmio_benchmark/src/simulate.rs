//! `simulate`: the paper's two machines on `G_6` of Strassen and Winograd,
//! built once during set-up. Operations alternate between an LRU/Belady
//! sweep of the two-level machine and a contended distributed run.

use crate::batch::Workload;
use crate::stats::Rng;
use crate::trace::Tracer;
use mmio_analyze::{audit_dist_trace, Report};
use mmio_cdag::build::build_cdag;
use mmio_cdag::{BaseGraph, Cdag, CdagView, VertexId};
use mmio_parallel::assign::{block_per_rank, by_top_subproblem, cyclic_per_rank, Assignment};
use mmio_parallel::distsim::{
    simulate_on, simulate_traced_on, DistOutcome, MachineModel, Topology,
};
use mmio_parallel::Pool;
use mmio_pebble::orders::recursive_order;
use mmio_pebble::sweep::{sweep, PolicySpec, SweepPoint};
use mmio_serve::cache::fnv64;
use mmio_serve::ops;

const R: u32 = 6;
/// Per-rank cache of the distributed runs.
const DIST_M: usize = 64;

/// The distributed configurations: every P with every assignment on both
/// topologies, each once per cycle.
const PS: [u32; 3] = [256, 1024, 4096];
const ASSIGNS: [Assign; 3] = [Assign::Cyclic, Assign::Block, Assign::Subtree];
const TOPOS: [Topo; 2] = [Topo::Torus, Topo::Ring];
const N_DIST: usize = PS.len() * ASSIGNS.len() * TOPOS.len();

/// The `j`-th distributed configuration, `j < N_DIST`.
fn dist_config(j: usize) -> (u32, Assign, Topo) {
    let (t, a) = (TOPOS.len(), ASSIGNS.len());
    (PS[j / (a * t)], ASSIGNS[j / t % a], TOPOS[j % t])
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Assign {
    Cyclic,
    Block,
    Subtree,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topo {
    Torus,
    Ring,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimOp {
    /// LRU and Belady on one base at one cache size.
    Sweep { base: usize, m: usize },
    /// One distributed run at `DIST_M` words per rank.
    Dist {
        base: usize,
        p: u32,
        assign: Assign,
        topo: Topo,
    },
}

pub enum SimOut {
    Sweep(Vec<SweepPoint>),
    Dist(DistOutcome),
}

struct Prebuilt {
    base: BaseGraph,
    g: Cdag,
    order: Vec<VertexId>,
}

pub struct Simulate {
    seed: u64,
    graphs: Vec<Prebuilt>,
}

fn assignment<V: CdagView>(g: &V, p: u32, a: Assign) -> Assignment {
    match a {
        Assign::Cyclic => cyclic_per_rank(g, p),
        Assign::Block => block_per_rank(g, p),
        Assign::Subtree => by_top_subproblem(g, p),
    }
}

fn machine(p: u32, t: Topo) -> MachineModel {
    let name = match t {
        Topo::Torus => "torus",
        Topo::Ring => "ring",
    };
    MachineModel::new(Topology::parse(name, p).expect("square P"), 1, 1, 1)
}

impl Workload for Simulate {
    type Op = SimOp;
    type Out = SimOut;
    const CYCLE: usize = 2 * N_DIST;

    fn setup(seed: u64, _pool: &Pool, tr: &mut Tracer) -> Simulate {
        let graphs = ["strassen", "winograd"]
            .iter()
            .map(|name| {
                let base = ops::resolve_registry(name).expect("registry base");
                let g = tr.span("cdag.build", |_| build_cdag(&base, R));
                tr.count("cdag.vertices", g.n_vertices() as f64);
                let order = tr.span("pebble.order", |_| recursive_order(&g));
                Prebuilt { base, g, order }
            })
            .collect();
        Simulate { seed, graphs }
    }

    /// Even operations sweep, odd ones run distributed. Each cycle visits
    /// every distributed configuration once, in a seeded order, with a
    /// seeded base per operation and a seeded sweep size.
    fn op(&self, i: usize) -> SimOp {
        let (cycle, slot) = (i / Self::CYCLE, i % Self::CYCLE);
        let mut rng = Rng::new(self.seed, 1 + cycle as u64);
        let mut order: Vec<usize> = (0..N_DIST).collect();
        rng.shuffle(&mut order);
        let draws: Vec<(usize, usize)> = (0..Self::CYCLE)
            .map(|_| (rng.range(0, 2) as usize, rng.range(32, 257) as usize))
            .collect();
        let (base, m) = draws[slot];
        if slot % 2 == 0 {
            SimOp::Sweep { base, m }
        } else {
            let (p, assign, topo) = dist_config(order[slot / 2]);
            SimOp::Dist {
                base,
                p,
                assign,
                topo,
            }
        }
    }

    fn kinds(&self) -> usize {
        2
    }

    fn execute(&self, op: &SimOp, pool: &Pool, tr: &mut Tracer) -> SimOut {
        match *op {
            SimOp::Sweep { base, m } => {
                let pb = &self.graphs[base];
                let policies = [PolicySpec::Lru, PolicySpec::Belady];
                let points = tr.span("pebble.sweep", |_| {
                    sweep(&pb.g, &[&pb.order], &policies, &[m], pool)
                });
                for run in points.iter().filter_map(|p| p.result.as_ref().ok()) {
                    let s = run.stats;
                    tr.count("pebble.io", s.io() as f64);
                    tr.count("pebble.steps", (s.loads + s.stores + s.computes) as f64);
                }
                SimOut::Sweep(points)
            }
            SimOp::Dist {
                base,
                p,
                assign,
                topo,
            } => {
                let pb = &self.graphs[base];
                let a = tr.span("parallel.assign", |_| assignment(&pb.g, p, assign));
                let out = tr.span("parallel.distsim", |_| {
                    simulate_on(&pb.g, &a, &pb.order, DIST_M, Some(machine(p, topo)), pool)
                });
                tr.count("parallel.words", out.run.total_words as f64);
                SimOut::Dist(out)
            }
        }
    }

    fn check(&self, op: &SimOp, out: &SimOut) -> Result<u64, String> {
        let json = match out {
            SimOut::Sweep(points) => {
                let io = |policy| {
                    points
                        .iter()
                        .find(|p| p.point.policy == policy)
                        .and_then(|p| p.result.ok())
                        .map(|run| run.stats.io())
                };
                match (io(PolicySpec::Lru), io(PolicySpec::Belady)) {
                    (Some(lru), Some(belady)) if belady <= lru => {}
                    (lru, belady) => {
                        return Err(format!("{op:?}: Belady I/O {belady:?} vs LRU {lru:?}"))
                    }
                }
                serde_json::to_string(points)
            }
            SimOut::Dist(out) => {
                let c = out.contention.as_ref().ok_or("no contention report")?;
                let round_words: u64 = c.rounds.iter().map(|r| r.words).sum();
                if c.makespan < out.run.critical_path_words
                    || round_words != out.run.total_words
                    || out.run.critical_path_words > 2 * out.run.total_words
                    || out.run.max_local_io > out.run.total_local_io
                {
                    return Err(format!("{op:?}: inconsistent accounting {out:?}"));
                }
                serde_json::to_string(out)
            }
        };
        Ok(fnv64(json.map_err(|e| e.to_string())?.as_bytes()))
    }

    /// One distributed run per run is recorded and replayed by the
    /// independent auditor. `G_4` keeps the auditor's P × |V| state small.
    fn finish(&self, _digests: &[u64], pool: &Pool, _tr: &mut Tracer) -> Vec<String> {
        let mut rng = Rng::new(self.seed, 0);
        let base = &self.graphs[rng.range(0, 2) as usize].base;
        let (p, assign, topo) = dist_config(rng.range(0, N_DIST as u64) as usize);
        let p = p.min(256);
        let g = build_cdag(base, 4);
        let order = recursive_order(&g);
        let a = assignment(&g, p, assign);
        let trace = simulate_traced_on(&g, &a, &order, DIST_M, Some(machine(p, topo)), pool);
        let mut report = Report::new();
        let audit = audit_dist_trace(&g, &a, &trace, &mut report);
        if audit.ok && report.error_count() == 0 {
            Vec::new()
        } else {
            vec![format!(
                "distsim audit of {} P={p} {assign:?} {topo:?}: {} error(s)",
                base.name(),
                report.error_count()
            )]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_seeded_and_alternate() {
        let w = |seed| Simulate {
            seed,
            graphs: Vec::new(),
        };
        let s = |seed| (0..72).map(|i| w(seed).op(i)).collect::<Vec<_>>();
        assert_eq!(s(1), s(1));
        assert_ne!(s(1), s(2));
        for (i, op) in s(3).iter().enumerate() {
            assert_eq!(matches!(op, SimOp::Sweep { .. }), i % 2 == 0);
        }
        for cycle in s(3).chunks_exact(Simulate::CYCLE) {
            let mut dist: Vec<_> = cycle
                .iter()
                .filter_map(|op| match *op {
                    SimOp::Dist {
                        p, assign, topo, ..
                    } => Some((p, assign as u8, topo as u8)),
                    SimOp::Sweep { .. } => None,
                })
                .collect();
            dist.sort_unstable();
            let mut want = Vec::new();
            for p in PS {
                for a in ASSIGNS {
                    for t in TOPOS {
                        want.push((p, a as u8, t as u8));
                    }
                }
            }
            assert_eq!(dist, want);
        }
    }
}
