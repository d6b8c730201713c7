//! `cert_roundtrip`: the certificates `mmio --view implicit cert emit
//! <base> 5` writes — routing (k = 2, r = 5), schedule (r = 4) and LRU sweep
//! (r = 4) — each rendered to JSON and read back by the standalone
//! verifier, `mmio_cert::verify_json`.

use crate::batch::Workload;
use crate::stats::Rng;
use crate::trace::Tracer;
use mmio_cdag::build::build_cdag;
use mmio_cdag::BaseGraph;
use mmio_cert::format::peek_version;
use mmio_cert::{Certificate, Verdict, FORMAT_VERSION};
use mmio_core::transport::{emit_certificate, RoutingClass};
use mmio_parallel::Pool;
use mmio_pebble::cert::{emit_schedule_certificate, emit_sweep_certificate};
use mmio_pebble::orders::recursive_order;
use mmio_pebble::policy::Belady;
use mmio_pebble::sweep::{sweep, PolicySpec};
use mmio_pebble::AutoScheduler;
use mmio_serve::cache::fnv64;
use mmio_serve::ops;
use serde::Deserialize;

const BASES: [&str; 3] = ["strassen", "winograd", "strassen-nocopy"];
const ROUTING_K: u32 = 2;
const ROUTING_R: u32 = 5;
/// `cert emit` caps schedule and sweep witnesses at depth 4 under the
/// implicit view.
const SCHED_R: u32 = 4;

pub struct Roundtrip {
    seed: u64,
    bases: Vec<BaseGraph>,
}

/// Each certificate of one operation: its JSON and the verifier's verdict.
pub struct Emitted {
    json: String,
    verdict: Result<Verdict, String>,
}

/// Emits the three certificates for `base`, in `cert emit` order.
fn emit(base: &BaseGraph, pool: &Pool, tr: &mut Tracer) -> Vec<Certificate> {
    let mut certs = Vec::new();
    let class = tr.span("core.routing_class", |_| {
        RoutingClass::build(base, ROUTING_K, pool)
    });
    if let Some(class) = class {
        certs.push(tr.span("core.emit", |_| emit_certificate(&class, ROUTING_R)));
    }
    let g = tr.span("cdag.build", |_| build_cdag(base, SCHED_R));
    tr.count("cdag.vertices", g.n_vertices() as f64);
    let need = g.vertices().map(|v| g.preds(v).len()).max().unwrap_or(1) + 1;
    let m = need + 4;
    let order = tr.span("pebble.order", |_| recursive_order(&g));
    certs.push(tr.span("pebble.record", |tr| {
        let (stats, sched) = AutoScheduler::new(&g, m).run_recorded(&order, &mut Belady);
        tr.count("pebble.io", stats.io() as f64);
        emit_schedule_certificate(&g, m, &sched)
    }));
    let points = tr.span("pebble.sweep", |tr| {
        let points = sweep(
            &g,
            &[&order],
            &[PolicySpec::Lru],
            &[2, need, 4 * need],
            pool,
        );
        for run in points.iter().filter_map(|p| p.result.as_ref().ok()) {
            let s = run.stats;
            tr.count("pebble.steps", (s.loads + s.stores + s.computes) as f64);
        }
        points
    });
    certs.push(tr.span("pebble.record", |_| {
        emit_sweep_certificate(&g, &PolicySpec::Lru, &points)
    }));
    certs
}

/// `verify_json`, re-created as its parse, decode and verify steps.
fn verify_traced(json: &str, tr: &mut Tracer) -> Result<Verdict, String> {
    let value: serde::Value = tr
        .span("cert.parse", |_| serde_json::from_str(json))
        .map_err(|e| format!("parse: {e}"))?;
    let cert = tr.span("cert.decode", |_| {
        if peek_version(&value) != Some(u64::from(FORMAT_VERSION)) {
            return Err("unsupported format version".to_string());
        }
        Certificate::from_value(&value).map_err(|e| format!("decode: {e}"))
    })?;
    Ok(tr.span("cert.verify", |_| mmio_cert::verify(&cert)))
}

impl Workload for Roundtrip {
    type Op = usize;
    type Out = Vec<Emitted>;
    const CYCLE: usize = BASES.len();

    fn setup(seed: u64, _pool: &Pool, _tr: &mut Tracer) -> Roundtrip {
        Roundtrip {
            seed,
            bases: BASES
                .iter()
                .map(|n| ops::resolve_registry(n).expect("registry base"))
                .collect(),
        }
    }

    /// A seeded base per operation; no routing memo outlives an operation.
    /// Each cycle of three visits every base once, in a seeded order.
    fn op(&self, i: usize) -> usize {
        let mut order: Vec<usize> = (0..BASES.len()).collect();
        Rng::new(self.seed, 1 + (i / BASES.len()) as u64).shuffle(&mut order);
        order[i % BASES.len()]
    }

    fn kinds(&self) -> usize {
        1
    }

    fn execute(&self, &base: &usize, pool: &Pool, tr: &mut Tracer) -> Vec<Emitted> {
        let certs = emit(&self.bases[base], pool, tr);
        certs
            .iter()
            .map(|cert| {
                let json = tr.span("cert.encode", |_| cert.to_json());
                tr.count("cert.bytes", json.len() as f64);
                let verdict = if tr.is_on() {
                    verify_traced(&json, tr)
                } else {
                    Ok(mmio_cert::verify_json(&json))
                };
                Emitted { json, verdict }
            })
            .collect()
    }

    fn check(&self, &base: &usize, out: &Vec<Emitted>) -> Result<u64, String> {
        let name = BASES[base];
        if out.len() != 3 {
            return Err(format!("{name}: {} certificates, expected 3", out.len()));
        }
        let mut bytes = Vec::new();
        for e in out {
            let v = e.verdict.as_ref().map_err(|err| format!("{name}: {err}"))?;
            if !v.accepted {
                return Err(format!(
                    "{name}: {} certificate rejected: {:?}",
                    v.kind, v.rejections
                ));
            }
            bytes.extend_from_slice(e.json.as_bytes());
            bytes.extend_from_slice(v.to_json().as_bytes());
        }
        Ok(fnv64(&bytes))
    }

    /// The verifier must also say no: one seeded mutant of each certificate
    /// kind has to be rejected with one of the codes that justify it.
    fn finish(&self, _digests: &[u64], pool: &Pool, tr: &mut Tracer) -> Vec<String> {
        let base = &self.bases[self.op(0)];
        let mut rng = Rng::new(self.seed, 0);
        let mut errors = Vec::new();
        for cert in emit(base, pool, &mut Tracer::new(false)) {
            let mutants = mmio_cert::mutate::mutants_for(&cert);
            let m = &mutants[rng.range(0, mutants.len() as u64) as usize];
            if m.is_killed_by(&mmio_cert::verify(&m.cert)) {
                tr.count("cert.mutants_killed", 1.0);
            } else {
                errors.push(format!(
                    "{} {} mutant {:?} survived the verifier",
                    base.name(),
                    cert.payload.kind(),
                    m.name
                ));
            }
        }
        errors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_seeded_and_balanced() {
        let w = |seed| Roundtrip::setup(seed, &Pool::serial(), &mut Tracer::new(false));
        let s = |seed| (0..42).map(|i| w(seed).op(i)).collect::<Vec<_>>();
        assert_eq!(s(1), s(1));
        assert_ne!(s(1), s(2));
        for cycle in s(3).chunks_exact(3) {
            let mut bases = cycle.to_vec();
            bases.sort_unstable();
            assert_eq!(bases, [0, 1, 2]);
        }
    }

    #[test]
    fn traced_roundtrip_matches_untraced_and_mutants_die() {
        let pool = Pool::new(2);
        let w = Roundtrip::setup(7, &pool, &mut Tracer::new(false));
        for base in 0..BASES.len() {
            let plain = w.execute(&base, &pool, &mut Tracer::new(false));
            let traced = w.execute(&base, &pool, &mut Tracer::new(true));
            assert_eq!(w.check(&base, &plain), w.check(&base, &traced));
            assert!(w.check(&base, &plain).is_ok());
        }
        let mut tr = Tracer::new(true);
        assert!(w.finish(&[], &pool, &mut tr).is_empty());
        assert_eq!(tr.total_count("cert.mutants_killed"), 3.0);
    }
}
