//! The one-call analysis API: run the whole paper on one base graph and
//! get a single serializable report — structural classification, routing
//! verification, and a certified lower-bound instance with its matching
//! upper-bound measurement.

use crate::claim1::DecodingRouting;
use crate::instance::Instance;
use crate::theorem1::{certify_with, Certificate, CertifyParams, LowerBound};
use crate::theorem2::InOutRouting;
use crate::RoutingStats;
use mmio_cdag::build::build_cdag;
use mmio_cdag::connectivity::{classify, BaseGraphProperties};
use mmio_cdag::stats::{profile, CdagProfile};
use mmio_pebble::orders::recursive_order;
use mmio_pebble::policy::Belady;
use mmio_pebble::AutoScheduler;
use serde::Serialize;

/// Verification outcome of one routing construction.
#[derive(Clone, Debug, Serialize)]
pub struct RoutingReport {
    /// Claimed m-bound.
    pub bound: u64,
    /// Measured maximum vertex hits.
    pub max_vertex_hits: u64,
    /// Measured maximum meta-vertex hits.
    pub max_meta_hits: u64,
    /// Whether the claimed bound held.
    pub verified: bool,
}

/// The full analysis of one algorithm at one scale.
#[derive(Clone, Debug, Serialize)]
pub struct AlgorithmReport {
    /// Structural classification of the base graph.
    pub properties: BaseGraphProperties,
    /// CDAG profile at the analysis depth.
    pub profile: CdagProfile,
    /// Claim 1 routing (None when the decoding graph is disconnected —
    /// which is information, not failure).
    pub claim1: Option<RoutingReport>,
    /// Routing Theorem routing (None when no Hall matching exists, i.e.
    /// the paper's hypotheses fail).
    pub theorem2: Option<RoutingReport>,
    /// The certified lower-bound instance.
    pub certificate: Certificate,
    /// Measured I/O of the recursive schedule at the certificate's `M`.
    pub measured_io: u64,
    /// The closed-form Ω-expression at `(n, M)`.
    pub formula: f64,
}

/// Runs the full pipeline on `inst` with [`CertifyParams::SMALL`]
/// constants (laptop scale), at the instance's cache size, or at its
/// operand floor when it names none.
///
/// `routing_k` bounds the depth at which routings are *constructed and
/// verified* (path counts grow as `a^{2k}`); pass 1 or 2.
pub fn analyze(inst: &Instance, routing_k: u32) -> AlgorithmReport {
    let (base, r) = (inst.base(), inst.r());
    let m = inst.m().unwrap_or(inst.floor() as u64);
    let g = build_cdag(base, r);
    let scheduler = AutoScheduler::new(&g, usize::try_from(m).unwrap_or(usize::MAX));
    let gk = build_cdag(base, routing_k.min(r));
    let order = recursive_order(&g);

    let report = |bound: u64, stats: RoutingStats| RoutingReport {
        bound,
        max_vertex_hits: stats.max_vertex_hits,
        max_meta_hits: stats.max_meta_hits,
        verified: stats.is_m_routing(bound),
    };
    let claim1 = DecodingRouting::new(&gk).map(|rt| report(rt.claim1_bound(), rt.verify()));
    let theorem2 = InOutRouting::new(&gk).map(|rt| report(rt.theorem2_bound(), rt.verify()));

    let certificate = certify_with(&g, m, &order, CertifyParams::SMALL);
    let measured_io = scheduler.run(&order, &Belady).io();
    AlgorithmReport {
        properties: classify(base),
        profile: profile(&g),
        claim1,
        theorem2,
        certificate,
        measured_io,
        formula: LowerBound::new(base).sequential_io(g.n(), m),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmio_algos::classical::classical;
    use mmio_algos::strassen::strassen;
    use mmio_cdag::BaseGraph;

    fn report(base: BaseGraph, r: u32, m: u64, routing_k: u32) -> AlgorithmReport {
        analyze(
            &Instance::try_new(base, r, Some(m), None).unwrap(),
            routing_k,
        )
    }

    #[test]
    fn strassen_report_is_fully_verified() {
        let report = report(strassen(), 4, 8, 2);
        assert!(report.properties.is_fast);
        assert!(report.claim1.as_ref().unwrap().verified);
        assert!(report.theorem2.as_ref().unwrap().verified);
        assert!(report.certificate.analysis.certified_io <= report.measured_io);
        assert!(report.certificate.analysis.certified_io > 0);
    }

    #[test]
    fn classical_report_flags_disconnection() {
        let report = report(classical(2), 3, 8, 1);
        assert!(report.claim1.is_none(), "disconnected decoding graph");
        assert!(!report.properties.is_fast);
    }

    #[test]
    fn report_serializes() {
        let report = report(strassen(), 3, 8, 1);
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"certified_io\""));
        assert!(json.contains("\"omega0\""));
    }
}
