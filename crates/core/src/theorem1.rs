//! Theorem 1: the closed-form lower bounds, and end-to-end certified
//! instances of them.
//!
//! Sequential I/O: `Ω((n/√M)^{2·log_a b} · M)`. Parallel bandwidth:
//! the same over `P`. Memory-independent bandwidth: `Ω(n²/P^{2/ω₀})`
//! (under per-rank load balance). The `certify` pipeline assembles the
//! whole proof for one concrete `(base graph, r, M, order)`: Lemma 1
//! selection → counted ranks → segment partition → per-segment `δ'` →
//! I/O certificate, each step machine-checked.

use crate::lemma1;
use crate::segments::{self, SegmentAnalysis};
use mmio_cdag::{index, BaseGraph, Cdag, CdagView, IndexView, MetaVertices, VertexId};
use serde::Serialize;

/// The Theorem 1 formulas for one algorithm family.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct LowerBound {
    /// `a = n₀²`.
    pub a: usize,
    /// Multiplications per step.
    pub b: usize,
    /// `ω₀ = 2·log_a b`.
    pub omega0: f64,
}

impl LowerBound {
    /// Builds the formula object from a base graph.
    pub fn new(base: &mmio_cdag::BaseGraph) -> LowerBound {
        LowerBound {
            a: base.a(),
            b: base.b(),
            omega0: base.omega0(),
        }
    }

    /// Sequential I/O lower bound `(n/√M)^{ω₀}·M` (the Ω-expression with
    /// constant 1; shape, not constant, is the claim).
    pub fn sequential_io(&self, n: u64, m: u64) -> f64 {
        let ratio = n as f64 / (m as f64).sqrt();
        ratio.powf(self.omega0) * m as f64
    }

    /// Parallel bandwidth lower bound `(n/√M)^{ω₀}·M/P`.
    pub fn parallel_bandwidth(&self, n: u64, m: u64, p: u64) -> f64 {
        self.sequential_io(n, m) / p as f64
    }

    /// Memory-independent bandwidth lower bound `n²/P^{2/ω₀}`.
    pub fn memory_independent_bandwidth(&self, n: u64, p: u64) -> f64 {
        (n as f64).powi(2) / (p as f64).powf(2.0 / self.omega0)
    }
}

/// An end-to-end certified lower-bound instance.
#[derive(Clone, Debug, Serialize)]
pub struct Certificate {
    /// Base-graph name.
    pub base: String,
    /// Recursion depth.
    pub r: u32,
    /// Matrix side `n = n₀^r`.
    pub n: u64,
    /// Cache size.
    pub m: u64,
    /// Depth `k` used by the segment argument, and whether the paper's
    /// choice was feasible (`k ≤ r-2` with `a^k ≥ 72M`).
    pub k: u32,
    /// Whether the asymptotic choice of `k` was feasible.
    pub k_feasible: bool,
    /// Number of mutually input-disjoint subcomputations selected.
    pub disjoint_subcomputations: u64,
    /// Lemma 1's target `b^{r-k-2}` (0 when `k > r-2`).
    pub lemma1_target: u64,
    /// The segment analysis (per-segment boundaries and certificate).
    pub analysis: SegmentAnalysis,
    /// The closed-form Ω-expression evaluated at `(n, M)`.
    pub formula_value: f64,
}

/// Tunable constants of the segment argument. [`CertifyParams::PAPER`]
/// reproduces the paper's (deliberately unoptimized) choices
/// `k: a^k ≥ 72M`, `|S̄| ≥ 36M`; smaller values yield certificates on
/// smaller instances at the cost of weaker per-segment guarantees.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct CertifyParams {
    /// `k` is the smallest integer with `a^k ≥ k_multiplier·M`.
    pub k_multiplier: u64,
    /// Segments close when they contain `threshold_multiplier·M` counted
    /// vertices.
    pub threshold_multiplier: u64,
}

impl CertifyParams {
    /// The constants used in the paper's Section 6.
    pub const PAPER: CertifyParams = CertifyParams {
        k_multiplier: 72,
        threshold_multiplier: 36,
    };

    /// Constants suited to laptop-scale instances (weaker per-segment
    /// constant, same asymptotic shape).
    pub const SMALL: CertifyParams = CertifyParams {
        k_multiplier: 2,
        threshold_multiplier: 4,
    };
}

/// Runs the whole lower-bound pipeline on a concrete instance.
///
/// `order` is any valid compute order of `g` (the certificate holds for
/// *this* order; the theorem quantifies over all orders, which the formula
/// captures).
pub fn certify_with(g: &Cdag, m: u64, order: &[VertexId], params: CertifyParams) -> Certificate {
    certify_pooled(g, m, order, params, &mmio_parallel::Pool::serial())
}

/// [`certify_with`], with the per-segment analysis sharded over `pool`
/// (identical certificate at any thread count — see
/// [`segments::analyze_with`]).
pub fn certify_pooled(
    g: &Cdag,
    m: u64,
    order: &[VertexId],
    params: CertifyParams,
    pool: &mmio_parallel::Pool,
) -> Certificate {
    certify_pooled_view(g.base(), g, m, order, params, pool)
}

/// [`certify_pooled`] over any [`CdagView`]: the whole pipeline — meta
/// grouping, Lemma 1 selection, counted mask, segment analysis — runs on
/// the view's closed-form adjacency, so an [`mmio_cdag::IndexView`] yields
/// the same certificate as the materialized graph without ever allocating
/// its edge lists (equivalence pinned by `view_certificate_matches_explicit`
/// below and the CLI golden test).
///
/// It is the composition of [`prepare`] on the view's closed form and
/// [`Prepared::certify`] on the view.
///
/// `base` must be the base graph the view was derived from (it supplies the
/// name and the Theorem 1 formula constants).
pub fn certify_pooled_view<V: CdagView + Sync>(
    base: &BaseGraph,
    g: &V,
    m: u64,
    order: &[VertexId],
    params: CertifyParams,
    pool: &mmio_parallel::Pool,
) -> Certificate {
    prepare(g.closed_form(), m, params).certify(base, g, order, pool)
}

/// What the certificate needs besides the order and the segment pass:
/// the meta-vertices, `k`, Lemma 1's selection and the counted mask. The
/// closed form decides all of them, so they can be prepared while the
/// graph is still being built.
pub struct Prepared {
    meta: MetaVertices,
    m: u64,
    threshold: u64,
    k: u32,
    k_feasible: bool,
    disjoint_subcomputations: u64,
    counted: Vec<bool>,
}

/// The closed-form half of the certificate for cache size `m`:
/// [`MetaVertices::compute_view`], [`segments::choose_k`],
/// [`lemma1::select_input_disjoint`] and [`segments::counted_mask`], all
/// read off `view`.
pub fn prepare(view: &IndexView, m: u64, params: CertifyParams) -> Prepared {
    let meta = MetaVertices::compute_view(view);
    let (k, k_feasible) = segments::choose_k(view, m, params.k_multiplier);
    let chosen = lemma1::select_input_disjoint(view, &meta, k);
    let counted = segments::counted_mask(view, k, &chosen);
    Prepared {
        meta,
        m,
        // Saturating: a threshold past `u64::MAX` completes no segment.
        threshold: params.threshold_multiplier.saturating_mul(m),
        k,
        k_feasible,
        disjoint_subcomputations: chosen.len() as u64,
        counted,
    }
}

impl Prepared {
    /// The segment analysis of `order` over `g`, and the certificate.
    /// `g` must be a view of the graph this was prepared from, and `base`
    /// the base graph it was derived from.
    pub fn certify<V: CdagView + Sync>(
        &self,
        base: &BaseGraph,
        g: &V,
        order: &[VertexId],
        pool: &mmio_parallel::Pool,
    ) -> Certificate {
        assert_eq!(
            (base.a(), base.b(), self.counted.len()),
            (g.a(), g.b(), g.n_vertices()),
            "view must come from this base graph and preparation"
        );
        let (m, k) = (self.m, self.k);
        let n = index::pow(base.n0(), g.r());
        let analysis = segments::analyze_with(
            g,
            &self.meta,
            order,
            &self.counted,
            m,
            self.threshold,
            k,
            pool,
        );
        let lemma1_target = if k + 2 <= g.r() {
            index::pow(base.b(), g.r() - k - 2)
        } else {
            0
        };
        let bound = LowerBound::new(base);
        Certificate {
            base: base.name().to_string(),
            r: g.r(),
            n,
            m,
            k,
            k_feasible: self.k_feasible,
            disjoint_subcomputations: self.disjoint_subcomputations,
            lemma1_target,
            analysis,
            formula_value: bound.sequential_io(n, m),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmio_algos::strassen::{strassen, winograd};
    use mmio_cdag::build::build_cdag;
    use mmio_pebble::orders;

    #[test]
    fn formula_shapes() {
        let base = strassen();
        let lb = LowerBound::new(&base);
        // ω₀ = log2 7.
        assert!((lb.omega0 - 7f64.log2()).abs() < 1e-12);
        // Fixing M, doubling n scales by 2^ω₀ ≈ 7.
        let r1 = lb.sequential_io(1024, 64);
        let r2 = lb.sequential_io(2048, 64);
        assert!((r2 / r1 - 7.0).abs() < 1e-9);
        // Fixing n, quadrupling M multiplies by 4^{1-ω₀/2} = 4/7… i.e.
        // decreases (ω₀ > 2).
        let m1 = lb.sequential_io(1 << 20, 1 << 10);
        let m2 = lb.sequential_io(1 << 20, 1 << 12);
        assert!(m2 < m1);
        // Parallel = sequential / P.
        assert!((lb.parallel_bandwidth(1024, 64, 8) - r1 / 8.0).abs() < 1e-9);
    }

    #[test]
    fn memory_independent_shape() {
        let lb = LowerBound::new(&strassen());
        // At P=1 it is n².
        assert!((lb.memory_independent_bandwidth(100, 1) - 10_000.0).abs() < 1e-9);
        // Increasing P decreases it, slower than 1/P (2/ω₀ < 1).
        let b1 = lb.memory_independent_bandwidth(1 << 10, 4);
        let b4 = lb.memory_independent_bandwidth(1 << 10, 16);
        assert!(b4 < b1);
        assert!(b4 > b1 / 4.0);
    }

    #[test]
    fn certificate_pipeline_runs_and_is_positive() {
        let g = build_cdag(&strassen(), 4);
        let order = orders::recursive_order(&g);
        // Laptop-scale constants so the asymptotic k fits at r=4.
        let cert = certify_with(&g, 2, &order, CertifyParams::SMALL);
        assert_eq!(cert.n, 16);
        assert!(cert.k_feasible, "k={} r={}", cert.k, cert.r);
        assert!(cert.disjoint_subcomputations >= cert.lemma1_target);
        assert!(cert.analysis.complete_segments > 0);
        assert!(cert.analysis.certified_io > 0);
    }

    #[test]
    fn view_certificate_matches_explicit() {
        use mmio_cdag::IndexView;
        let pool = mmio_parallel::Pool::serial();
        for base in [strassen(), winograd()] {
            let g = build_cdag(&base, 3);
            let order = orders::recursive_order(&g);
            let view = IndexView::from_base(&base, 3);
            for m in [2u64, 6, 64] {
                let explicit = certify_pooled(&g, m, &order, CertifyParams::SMALL, &pool);
                let implicit =
                    certify_pooled_view(&base, &view, m, &order, CertifyParams::SMALL, &pool);
                assert_eq!(
                    format!("{explicit:?}"),
                    format!("{implicit:?}"),
                    "{} M = {m}",
                    base.name()
                );
            }
        }
    }

    #[test]
    fn certificate_sound_for_random_orders() {
        use mmio_pebble::policy::Lru;
        use mmio_pebble::AutoScheduler;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let g = build_cdag(&strassen(), 3);
        let mut rng = StdRng::seed_from_u64(77);
        for trial in 0..8 {
            let order = orders::random_topo_order(&g, &mut rng);
            for m in [6u64, 12, 24] {
                let cert = certify_with(&g, m, &order, CertifyParams::SMALL);
                let measured = AutoScheduler::new(&g, m as usize).run(&order, &Lru).io();
                assert!(
                    cert.analysis.certified_io <= measured,
                    "trial {trial} m={m}: certified {} > measured {measured}",
                    cert.analysis.certified_io
                );
            }
        }
    }

    #[test]
    fn certificate_lower_bounds_hold_against_simulation() {
        // The certified I/O must lower-bound the I/O of an actual simulated
        // run with the same order (certificate ≤ measured).
        use mmio_pebble::policy::Belady;
        use mmio_pebble::AutoScheduler;
        let g = build_cdag(&strassen(), 4);
        for order in [orders::recursive_order(&g), orders::rank_order(&g)] {
            for m in [8u64, 16, 32] {
                let cert = certify_with(&g, m, &order, CertifyParams::SMALL);
                let measured = AutoScheduler::new(&g, m as usize).run(&order, &Belady).io();
                assert!(
                    cert.analysis.certified_io <= measured,
                    "m={m}: certificate {} exceeds measured {measured}",
                    cert.analysis.certified_io
                );
            }
        }
    }
}
