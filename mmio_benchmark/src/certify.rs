//! `certify`: what `mmio certify <base> 6 <M>` computes, through
//! `mmio_serve::ops::certify_text`, half the operations on the materialized
//! graph and half on the closed-form view.

use crate::batch::Workload;
use crate::stats::Rng;
use crate::trace::Tracer;
use mmio_cdag::build::build_cdag;
use mmio_cdag::{index, BaseGraph, CdagView, IndexView, MetaVertices};
use mmio_core::theorem1::CertifyParams;
use mmio_core::{lemma1, segments};
use mmio_parallel::Pool;
use mmio_pebble::orders::recursive_order;
use mmio_serve::cache::fnv64;
use mmio_serve::ops::{self, ViewMode};

/// The largest depth the explicit view answers interactively (|V| ≈ 0.8M).
const R: u32 = 6;

/// Cache sizes, one per pair of a cycle.
const MS: [u64; 4] = [32, 64, 128, 256];

pub struct Certify {
    seed: u64,
    bases: [BaseGraph; 2],
}

pub struct CertifyOp {
    base: usize,
    m: u64,
    view: ViewMode,
}

/// `certify_text`, re-created as the sequence of public calls it makes so
/// that each can carry its own span. The text is byte-identical by
/// construction and checked to be so against the untraced call.
pub fn certify_traced(
    base: &BaseGraph,
    r: u32,
    m: u64,
    view: ViewMode,
    pool: &Pool,
    tr: &mut Tracer,
) -> String {
    if ops::use_implicit(view, base, r) {
        let v = tr.span("cdag.view", |_| IndexView::from_base(base, r));
        certify_on(base, &v, m, pool, tr)
    } else {
        let g = tr.span("cdag.build", |_| build_cdag(base, r));
        certify_on(base, &g, m, pool, tr)
    }
}

fn certify_on<V: CdagView + Sync>(
    base: &BaseGraph,
    g: &V,
    m: u64,
    pool: &Pool,
    tr: &mut Tracer,
) -> String {
    tr.count("cdag.vertices", g.n_vertices() as f64);
    let params = CertifyParams::SMALL;
    let order = tr.span("pebble.order", |_| recursive_order(g));
    let meta = tr.span("cdag.meta", |_| MetaVertices::compute_view(g));
    let (k, feasible) = tr.span("core.choose_k", |_| {
        segments::choose_k(g, m, params.k_multiplier)
    });
    let chosen = tr.span("core.lemma1", |_| {
        lemma1::select_input_disjoint(g, &meta, k)
    });
    let counted = tr.span("core.counted_mask", |_| {
        segments::counted_mask(g, k, &chosen)
    });
    let analysis = tr.span("core.segments", |_| {
        let threshold = params.threshold_multiplier * m;
        segments::analyze_with(g, &meta, &order, &counted, m, threshold, k, pool)
    });
    tr.count("core.complete_segments", analysis.complete_segments as f64);
    let r = g.r();
    let target = if k + 2 <= r {
        index::pow(base.b(), r - k - 2)
    } else {
        0
    };
    format!(
        "n = {}, M = {m}: {} complete segments, certified I/O ≥ {}\n\
         (k = {k}, feasible = {feasible}, disjoint subcomputations = {} ≥ target {target})\n",
        index::pow(base.n0(), r),
        analysis.complete_segments,
        analysis.certified_io,
        chosen.len(),
    )
}

impl Workload for Certify {
    type Op = CertifyOp;
    type Out = String;
    const CYCLE: usize = 2 * MS.len();

    fn setup(seed: u64, _pool: &Pool, _tr: &mut Tracer) -> Certify {
        let resolve = |n| ops::resolve_registry(n).expect("registry base");
        Certify {
            seed,
            bases: [resolve("strassen"), resolve("winograd")],
        }
    }

    /// Operations come in pairs, explicit then implicit, on one seeded
    /// `(base, M)`. Each cycle of four pairs visits every M once, in a
    /// seeded order, so every seed times the same mix of sizes.
    fn op(&self, i: usize) -> CertifyOp {
        let (pair, view) = (i / 2, i % 2);
        let (cycle, slot) = (pair / MS.len(), pair % MS.len());
        let mut rng = Rng::new(self.seed, 1 + cycle as u64);
        let mut order: Vec<usize> = (0..MS.len()).collect();
        rng.shuffle(&mut order);
        let bases: Vec<usize> = (0..MS.len()).map(|_| rng.range(0, 2) as usize).collect();
        CertifyOp {
            base: bases[slot],
            m: MS[order[slot]],
            view: [ViewMode::Explicit, ViewMode::Implicit][view],
        }
    }

    fn kinds(&self) -> usize {
        2
    }

    fn execute(&self, op: &CertifyOp, pool: &Pool, tr: &mut Tracer) -> String {
        let base = &self.bases[op.base];
        if tr.is_on() {
            certify_traced(base, R, op.m, op.view, pool, tr)
        } else {
            ops::certify_text(base, R, op.m, op.view, pool)
        }
    }

    fn check(&self, _op: &CertifyOp, out: &String) -> Result<u64, String> {
        if out.starts_with("n = ") && out.contains("certified I/O ≥ ") {
            Ok(fnv64(out.as_bytes()))
        } else {
            Err(format!("not a certificate: {out:?}"))
        }
    }

    /// Explicit and implicit views must print the same bytes.
    fn finish(&self, digests: &[u64], _pool: &Pool, _tr: &mut Tracer) -> Vec<String> {
        digests
            .chunks_exact(2)
            .enumerate()
            .filter(|(_, d)| d[0] != d[1])
            .map(|(j, _)| {
                let op = self.op(2 * j);
                format!(
                    "certify {} r={R} M={}: explicit and implicit outputs differ",
                    self.bases[op.base].name(),
                    op.m
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64) -> Vec<(usize, u64, ViewMode)> {
        let w = Certify::setup(seed, &Pool::serial(), &mut Tracer::new(false));
        (0..40)
            .map(|i| w.op(i))
            .map(|o| (o.base, o.m, o.view))
            .collect()
    }

    #[test]
    fn inputs_are_seeded_and_balanced() {
        assert_eq!(stream(1), stream(1));
        assert_ne!(stream(1), stream(2));
        for seed in [1, 2, 3] {
            let s = stream(seed);
            for pair in s.chunks_exact(2) {
                assert_eq!((pair[0].0, pair[0].1), (pair[1].0, pair[1].1));
                assert_eq!(
                    (pair[0].2, pair[1].2),
                    (ViewMode::Explicit, ViewMode::Implicit)
                );
            }
            // Every cycle of 8 operations visits each M exactly twice.
            for cycle in s.chunks_exact(Certify::CYCLE) {
                let mut ms: Vec<u64> = cycle.iter().map(|o| o.1).collect();
                ms.sort_unstable();
                assert_eq!(ms, [32, 32, 64, 64, 128, 128, 256, 256]);
            }
        }
    }

    #[test]
    fn traced_certify_prints_the_same_bytes() {
        let base = ops::resolve_registry("strassen").unwrap();
        let pool = Pool::new(2);
        for view in [ViewMode::Explicit, ViewMode::Implicit] {
            for (r, m) in [(3, 8), (4, 16)] {
                let mut tr = Tracer::new(true);
                assert_eq!(
                    certify_traced(&base, r, m, view, &pool, &mut tr),
                    ops::certify_text(&base, r, m, view, &pool)
                );
            }
        }
    }
}
