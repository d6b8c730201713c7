//! The standalone certificate verifier.
//!
//! Everything a certificate claims is re-derived here from the embedded
//! coefficients and the closed-form [`IndexView`]: the tensor identity,
//! every edge every path traverses, the copy grouping and hit counts, the
//! Fact-1 transport images, schedule legality by full replay, and sweep
//! I/O floors. Nothing is taken from the routing or scheduling engines.
//!
//! The verifier **never panics on untrusted input**: malformed JSON, stale
//! versions, inconsistent shapes, out-of-range ids, and oversized claims
//! all surface as structured `MMIO-V0xx` rejections in a [`Verdict`].
//! Rejections accumulate — one corrupt certificate reports every defect the
//! verifier can still reach — but per-code detail is capped so adversarial
//! input cannot balloon the verdict itself.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::codes;
use crate::format::{
    self, Certificate, Payload, RoutingPayload, SchedulePayload, SweepPayload, FORMAT_VERSION,
};
use crate::view::{checked_pow, CdagView, IndexView, VertexRef, ViewError};
use mmio_cdag::hits::HitCounter;

/// Hard ceiling on the vertex count of any graph the verifier will walk
/// per-vertex (copy grouping, schedule replay). Registry certificates are
/// orders of magnitude below; anything above is rejected as out of range
/// rather than allowed to allocate gigabytes.
const MAX_WALK_VERTICES: u64 = 1 << 26;
/// Hard ceiling on `paths × transport copies` re-walk work.
const MAX_TRANSPORT_WORK: u64 = 1 << 26;
/// Hard ceiling on the expected path count of a routing certificate.
const MAX_PATHS: u64 = 1 << 24;
/// Detailed rejections kept per code before summarizing.
const MAX_DETAILS_PER_CODE: u64 = 8;

/// One structured rejection.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Rejection {
    /// Stable `MMIO-V0xx` code (see [`crate::codes`]).
    pub code: String,
    /// Human-readable specifics for this instance.
    pub detail: String,
}

/// The machine-readable verdict of one verification run.
#[derive(Clone, Debug, Serialize)]
pub struct Verdict {
    /// The certificate's declared format version (0 if unreadable).
    pub format_version: u64,
    /// Payload kind (`"routing"`, `"schedule"`, `"sweep"`, or `""`).
    pub kind: String,
    /// The embedded algorithm name (informational).
    pub algo: String,
    /// Whether the certificate verified with zero rejections.
    pub accepted: bool,
    /// Every rejection found, in check order.
    pub rejections: Vec<Rejection>,
}

impl Verdict {
    /// Serializes the verdict to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).unwrap_or_else(|e| {
            // A verdict that cannot render must still reject: degrade to
            // a hand-built non-accepting verdict rather than panic.
            format!(
                "{{\"format_version\":0,\"kind\":\"\",\"algo\":\"\",\"accepted\":false,\
                 \"rejections\":[{{\"code\":\"{}\",\"detail\":\"verdict render failed: {}\"}}]}}",
                codes::V_MALFORMED,
                e.to_string().replace(['"', '\\'], "?")
            )
        })
    }

    /// Whether `code` appears among the rejections.
    pub fn has_code(&self, code: &str) -> bool {
        self.rejections.iter().any(|r| r.code == code)
    }
}

/// Rejection accumulator with per-code detail capping.
struct Ctx {
    rejections: Vec<Rejection>,
    counts: BTreeMap<String, u64>,
}

impl Ctx {
    fn new() -> Ctx {
        Ctx {
            rejections: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn reject(&mut self, code: &str, detail: impl Into<String>) {
        let n = self.counts.entry(code.to_string()).or_insert(0);
        // audit: safe — one increment per call, and a u64 count of calls cannot wrap
        *n += 1;
        if *n <= MAX_DETAILS_PER_CODE {
            self.rejections.push(Rejection {
                code: code.to_string(),
                detail: detail.into(),
            });
        }
    }

    fn finish(mut self, format_version: u64, kind: &str, algo: &str) -> Verdict {
        for (code, n) in &self.counts {
            if *n > MAX_DETAILS_PER_CODE {
                self.rejections.push(Rejection {
                    code: code.clone(),
                    // audit: safe — n > MAX_DETAILS_PER_CODE on this branch
                    detail: format!("… and {} more", n - MAX_DETAILS_PER_CODE),
                });
            }
        }
        Verdict {
            format_version,
            kind: kind.to_string(),
            algo: algo.to_string(),
            accepted: self.rejections.is_empty(),
            rejections: self.rejections,
        }
    }
}

/// Verifies a serialized certificate.
///
/// The certificate is read typed, straight from the text
/// ([`serde_json::read_json`]), and verified. A typed read that ends at a
/// syntax error is answered with the parse-failure verdict, since the tree
/// parse fails on that text with the same message. Other text the typed
/// read does not take (a decode failure, a stale version, fields out of
/// wire order, unknown or repeated keys) goes to [`verify_json_tree`],
/// whose verdict is returned. Whenever the typed read succeeds, the tree
/// path decodes an equal certificate, so both paths give the same verdict
/// on every input.
pub fn verify_json(s: &str) -> Verdict {
    match serde_json::read_json::<Certificate>(s) {
        Ok(cert) => verify(&cert),
        Err(e) if e.is_syntax() => parse_failure(&e),
        Err(_) => verify_json_tree(s),
    }
}

/// The verdict on text that is not JSON.
fn parse_failure(e: &serde_json::Error) -> Verdict {
    let mut ctx = Ctx::new();
    ctx.reject(codes::V_MALFORMED, format!("JSON parse failure: {e}"));
    ctx.finish(0, "", "")
}

/// Verifies a serialized certificate through its [`serde::Value`] tree:
/// the path for every input [`verify_json`]'s typed read rejects, and the
/// oracle it is tested against. Parse failures and stale versions are
/// rejected without attempting a full decode.
pub fn verify_json_tree(s: &str) -> Verdict {
    let value: serde::Value = match serde_json::from_str(s) {
        Ok(v) => v,
        Err(e) => return parse_failure(&e),
    };
    let Some(version) = format::peek_version(&value) else {
        let mut ctx = Ctx::new();
        ctx.reject(codes::V_MALFORMED, "missing or non-integer `version` field");
        return ctx.finish(0, "", "");
    };
    if version != FORMAT_VERSION as u64 {
        let mut ctx = Ctx::new();
        ctx.reject(
            codes::V_VERSION,
            format!("certificate has format version {version}, verifier supports {FORMAT_VERSION}"),
        );
        return ctx.finish(version, "", "");
    }
    match Certificate::from_value(&value) {
        Ok(cert) => verify(&cert),
        Err(e) => {
            let mut ctx = Ctx::new();
            ctx.reject(codes::V_MALFORMED, format!("decode failure: {e}"));
            ctx.finish(version, "", "")
        }
    }
}

/// Verifies an in-memory certificate.
pub fn verify(cert: &Certificate) -> Verdict {
    let kind = cert.payload.kind();
    let algo = cert.base.name.as_str();
    let version = cert.version as u64;
    let mut ctx = Ctx::new();

    if cert.version != FORMAT_VERSION {
        ctx.reject(
            codes::V_VERSION,
            format!(
                "certificate has format version {}, verifier supports {FORMAT_VERSION}",
                cert.version
            ),
        );
        return ctx.finish(version, kind, algo);
    }

    match &cert.payload {
        Payload::Routing(p) => verify_routing(cert, p, &mut ctx),
        Payload::Schedule(p) => verify_schedule(cert, p, &mut ctx),
        Payload::Sweep(p) => verify_sweep(cert, p, &mut ctx),
    }
    ctx.finish(version, kind, algo)
}

/// Builds the view, mapping construction failures to reject codes. Also
/// enforces the per-vertex walk ceiling when `walk` is set. The base's
/// tensor identity is left to [`tensor_holds`], once per certificate.
fn build_view(cert: &Certificate, r: u32, walk: bool, ctx: &mut Ctx) -> Option<IndexView> {
    let view = match crate::view::view_of(&cert.base, r) {
        Ok(v) => v,
        Err(ViewError::Shape(e)) => {
            ctx.reject(codes::V_BASE_INVALID, e);
            return None;
        }
        Err(ViewError::Params(e)) => {
            ctx.reject(codes::V_PARAMS, e);
            return None;
        }
    };
    if walk && view.n_vertices() as u64 > MAX_WALK_VERTICES {
        ctx.reject(
            codes::V_PARAMS,
            format!(
                "G_{r} has {} vertices, above the verifier's walk ceiling",
                view.n_vertices()
            ),
        );
        return None;
    }
    Some(view)
}

/// Checks the embedded base's tensor identity, rejecting on failure. It
/// needs the consistent shapes a built view has checked, so each payload
/// runs it once, after its first [`build_view`].
fn tensor_holds(cert: &Certificate, ctx: &mut Ctx) -> bool {
    match crate::view::check_tensor(&cert.base) {
        Ok(()) => true,
        Err(e) => {
            ctx.reject(codes::V_BASE_INVALID, e);
            false
        }
    }
}

fn verify_routing(cert: &Certificate, p: &RoutingPayload, ctx: &mut Ctx) {
    if p.k < 1 || p.k > p.r {
        ctx.reject(
            codes::V_PARAMS,
            format!("routing requires 1 ≤ k ≤ r, got k = {}, r = {}", p.k, p.r),
        );
        return;
    }
    // The k-view is walked per-vertex (copy grouping); the r-view is only
    // probed through lift/preds, so it needs no walk ceiling.
    let Some(kview) = build_view(cert, p.k, true, ctx) else {
        return;
    };
    if !tensor_holds(cert, ctx) {
        return;
    }
    let Some(rview) = build_view(cert, p.r, false, ctx) else {
        return;
    };

    // a^k fits whenever the k-view built, but reject rather than assume.
    let Some(ak) = checked_pow(kview.a() as u64, p.k) else {
        ctx.reject(codes::V_PARAMS, "a^k overflows the id space");
        return;
    };
    let Some(expected_paths) = ak.checked_mul(ak).and_then(|x| x.checked_mul(2)) else {
        ctx.reject(codes::V_PARAMS, "expected path count 2a^{2k} overflows");
        return;
    };
    if expected_paths > MAX_PATHS {
        ctx.reject(
            codes::V_PARAMS,
            format!("{expected_paths} paths exceed the verifier's ceiling"),
        );
        return;
    }

    // audit: safe — ak ≤ MAX_PATHS = 2^24 here, so 6·ak < 2^27
    let true_bound = 6 * ak;
    if p.bound != true_bound {
        ctx.reject(
            codes::V_ROUTE_BOUND,
            format!(
                "claimed bound {} but the Routing Theorem gives 6a^k = {true_bound}",
                p.bound
            ),
        );
    }
    if p.paths.len() as u64 != expected_paths {
        ctx.reject(
            codes::V_ROUTE_PATH_COUNT,
            format!(
                "{} paths, an in-out routing of G_{} has {expected_paths}",
                p.paths.len(),
                p.k
            ),
        );
    }

    // Per-path structural validation on the standalone G_k, plus pair
    // coverage and the hit recount over structurally valid paths.
    let n_local = kview.n_vertices();
    let mut counter = HitCounter::with_groups(kview.copy_roots());
    let outputs = kview.outputs_count();
    let mut pair_seen = vec![false; expected_paths as usize];
    for (i, path) in p.paths.iter().enumerate() {
        if path.is_empty() {
            ctx.reject(codes::V_ROUTE_NON_EDGE, format!("path {i} is empty"));
            continue;
        }
        if let Some(&bad) = path.iter().find(|&&v| v >= n_local) {
            ctx.reject(
                codes::V_MALFORMED,
                format!("path {i} references vertex {bad}, G_{} has {n_local}", p.k),
            );
            continue;
        }
        let mut ok = true;
        for (j, w) in path.windows(2).enumerate() {
            let &[u, v] = w else { continue };
            // Either direction is an edge, so path storage order is not
            // part of the format contract.
            if !kview.is_edge(u, v) {
                ctx.reject(
                    codes::V_ROUTE_NON_EDGE,
                    format!("path {i} hop {j}: ({u}, {v}) is not an edge of G_{}", p.k),
                );
                ok = false;
                break;
            }
        }
        if !ok {
            continue;
        }
        let (Some(&s), Some(&t)) = (path.first(), path.last()) else {
            continue; // unreachable: emptiness rejected above
        };
        let pair = match (kview.input_ord(s), kview.output_ord(t)) {
            (Some(iord), Some(oord)) => Some((iord, oord)),
            _ => match (kview.input_ord(t), kview.output_ord(s)) {
                (Some(iord), Some(oord)) => Some((iord, oord)),
                _ => {
                    ctx.reject(
                        codes::V_ROUTE_PAIRS,
                        format!("path {i} endpoints ({s}, {t}) are not an input-output pair"),
                    );
                    None
                }
            },
        };
        if let Some((iord, oord)) = pair {
            // audit: safe — iord < 2a^k inputs and oord < a^k outputs of G_k, so the slot is below 2a^{2k} ≤ MAX_PATHS
            let slot = (iord * outputs + oord) as usize;
            match pair_seen.get_mut(slot) {
                Some(true) => {
                    ctx.reject(
                        codes::V_ROUTE_PAIRS,
                        format!("pair (input {iord}, output {oord}) routed twice"),
                    );
                }
                Some(seen) => *seen = true,
                // Ordinals are bounded by the view's own input/output
                // counts, which size the table — defensive only.
                None => ctx.reject(
                    codes::V_ROUTE_PAIRS,
                    format!("pair (input {iord}, output {oord}) out of range"),
                ),
            }
        }
        counter.add_path(path.iter().copied());
    }
    let missing = pair_seen.iter().filter(|&&seen| !seen).count();
    if missing > 0 {
        ctx.reject(
            codes::V_ROUTE_PAIRS,
            format!("{missing} of {expected_paths} (input, output) pairs have no path"),
        );
    }

    let s = counter.summary();
    if s.max_vertex_hits > true_bound {
        let worst = counter.argmax_vertex().unwrap_or(0);
        ctx.reject(
            codes::V_ROUTE_VERTEX_OVERLOAD,
            format!(
                "vertex {worst} lies on {} paths, above the 6a^k = {true_bound} bound",
                s.max_vertex_hits
            ),
        );
    }
    if s.max_group_hits > true_bound {
        let worst = counter.argmax_group().unwrap_or(0);
        ctx.reject(
            codes::V_ROUTE_META_OVERLOAD,
            format!(
                "copy-group of vertex {worst} is hit by {} paths, above 6a^k = {true_bound}",
                s.max_group_hits
            ),
        );
    }
    if s.max_vertex_hits != p.max_vertex_hits || s.max_group_hits != p.max_meta_hits {
        ctx.reject(
            codes::V_ROUTE_CLAIM_MISMATCH,
            format!(
                "claimed hits (vertex {}, meta {}) but recount gives (vertex {}, meta {})",
                p.max_vertex_hits, p.max_meta_hits, s.max_vertex_hits, s.max_group_hits
            ),
        );
    }

    verify_transport(p, &kview, &rview, ctx);
}

/// Re-checks the Fact-1 transport: the prefix set must be exactly
/// `[b^{r-k}]`, and every lifted hop of every path must be an edge of `G_r`.
///
/// Cost: `O(H log H + n_k + b^{r-k} · (distinct vertices + distinct hops))`
/// for `H` path hops over a `G_k` of `n_k` vertices. Whether a lifted hop
/// is an edge depends only on `(prefix, hu, hv)`, so the hops of the
/// structurally valid paths are collected once, repeats removed, in the
/// order a path-by-path walk first meets them. Each distinct vertex is
/// decoded to its address once; each copy lifts every address once and
/// tests every distinct hop on the two lifted addresses
/// ([`IndexView::is_edge_vref`]), with no id decoded back. The checked
/// `(prefix, lifted hop)` facts are exactly the path walk's with repeats
/// removed, and the first failing distinct hop of a copy is the first
/// failing hop that walk meets, so each copy reports the same hop with the
/// same code and message.
fn verify_transport(p: &RoutingPayload, kview: &IndexView, rview: &IndexView, ctx: &mut Ctx) {
    // audit: safe — verify_routing returns before calling this unless k ≤ r
    let Some(copies) = checked_pow(kview.b() as u64, p.r - p.k) else {
        ctx.reject(codes::V_PARAMS, "b^{r-k} overflows the id space");
        return;
    };
    if p.copy_prefixes.len() as u64 != copies {
        ctx.reject(
            codes::V_ROUTE_TRANSPORT,
            format!(
                "{} transport prefixes, Fact 1 gives b^{{r-k}} = {copies} copies",
                p.copy_prefixes.len()
            ),
        );
    }
    let mut seen = vec![false; copies as usize];
    let mut prefixes_ok = Vec::new();
    for &prefix in &p.copy_prefixes {
        match usize::try_from(prefix).ok().and_then(|i| seen.get_mut(i)) {
            None => ctx.reject(
                codes::V_ROUTE_TRANSPORT,
                format!("prefix {prefix} out of range [0, {copies})"),
            ),
            Some(true) => ctx.reject(
                codes::V_ROUTE_TRANSPORT,
                format!("prefix {prefix} duplicated"),
            ),
            Some(s) => {
                *s = true;
                prefixes_ok.push(prefix);
            }
        }
    }

    let work = (prefixes_ok.len() as u64).saturating_mul(p.paths.len() as u64);
    if work > MAX_TRANSPORT_WORK {
        ctx.reject(
            codes::V_PARAMS,
            format!("transport re-walk of {work} path-copies exceeds the verifier's ceiling"),
        );
        return;
    }

    // Distinct hops in first-occurrence order: every hop of every
    // structurally valid path with its position in that walk, sorted so
    // that each hop's first occurrence leads its run, deduplicated, and
    // put back in walk order.
    let n_local = kview.n_vertices();
    let mut walk: Vec<(u32, u32, usize)> = Vec::new();
    for path in &p.paths {
        if path.is_empty() || path.iter().any(|&v| v >= n_local) {
            continue; // already rejected structurally
        }
        for w in path.windows(2) {
            let &[hu, hv] = w else { continue };
            walk.push((hu, hv, walk.len()));
        }
    }
    walk.sort_unstable();
    walk.dedup_by_key(|&mut (hu, hv, _)| (hu, hv));
    walk.sort_unstable_by_key(|&(_, _, first)| first);

    // Each distinct local vertex gets a lift-table slot (a dense table over
    // G_k ids) and is decoded once; `locals[slot]` is its address.
    const NO_SLOT: u32 = u32::MAX;
    let mut slot_of = vec![NO_SLOT; n_local as usize];
    let mut locals: Vec<Option<VertexRef>> = Vec::new();
    let mut slot = |v: u32| {
        let s = &mut slot_of[v as usize]; // audit: safe — v < n_local, checked above
        if *s == NO_SLOT {
            *s = locals.len() as u32;
            locals.push(kview.vref(v));
        }
        *s as usize
    };
    let hops: Vec<(u32, u32, usize, usize)> = walk
        .iter()
        .map(|&(hu, hv, _)| (hu, hv, slot(hu), slot(hv)))
        .collect();

    // Per copy, each vertex is lifted once, as an address and its id; each
    // hop is tested on the two addresses.
    let mut lifted: Vec<Option<(u32, VertexRef)>> = Vec::with_capacity(locals.len());
    for &prefix in &prefixes_ok {
        lifted.clear();
        lifted.extend(locals.iter().map(|&vr| {
            let l = rview.lift_vref(kview, prefix, vr?)?;
            Some((rview.id(l)?, l))
        }));
        let lift = |slot: usize| lifted.get(slot).copied().flatten();
        for &(hu, hv, su, sv) in &hops {
            let (Some((lu, ru)), Some((lv, rv))) = (lift(su), lift(sv)) else {
                ctx.reject(
                    codes::V_ROUTE_TRANSPORT,
                    format!("prefix {prefix}: hop ({hu}, {hv}) does not lift into G_r"),
                );
                break;
            };
            if !rview.is_edge_vref(ru, rv) {
                ctx.reject(
                    codes::V_ROUTE_TRANSPORT,
                    format!(
                        "prefix {prefix}: lifted hop ({lu}, {lv}) is not an edge of G_{}",
                        p.r
                    ),
                );
                break; // one broken copy is enough evidence for this prefix
            }
        }
    }
}

/// Total-access replay column: reads off the end yield the zero value,
/// writes off the end are dropped. Vertex ids are validated against the
/// view size before replay begins, so the defensive path never executes
/// — it exists to keep the replay free of panic sites.
struct Col<T: Copy + Default>(Vec<T>);

impl<T: Copy + Default> Col<T> {
    fn new(n: usize) -> Col<T> {
        Col(vec![T::default(); n])
    }
    fn get(&self, i: usize) -> T {
        self.0.get(i).copied().unwrap_or_default()
    }
    fn set(&mut self, i: usize, val: T) {
        if let Some(slot) = self.0.get_mut(i) {
            *slot = val;
        }
    }
}

fn verify_schedule(cert: &Certificate, p: &SchedulePayload, ctx: &mut Ctx) {
    if p.ops.len() != p.vertices.len() {
        ctx.reject(
            codes::V_MALFORMED,
            format!("{} ops but {} vertices", p.ops.len(), p.vertices.len()),
        );
        return;
    }
    if p.res_vertex.len() != p.res_start.len() || p.res_vertex.len() != p.res_end.len() {
        ctx.reject(codes::V_MALFORMED, "residency columns have unequal lengths");
        return;
    }
    let Some(view) = build_view(cert, p.r, true, ctx) else {
        return;
    };
    if !tensor_holds(cert, ctx) {
        return;
    }
    let n = view.n_vertices();
    if let Some(&bad) = p.vertices.iter().find(|&&v| v >= n) {
        ctx.reject(
            codes::V_MALFORMED,
            format!("schedule references vertex {bad}, G_{} has {n}", p.r),
        );
        return;
    }

    // Full replay under the machine-model rules of the pebble simulator,
    // with its exact error precedence. The replay stops at the first
    // illegality — later state would be fiction.
    let mut in_cache = Col::<bool>::new(n as usize);
    let mut computed = Col::<bool>::new(n as usize);
    let mut stored = Col::<bool>::new(n as usize);
    let mut open = Col::<u64>::new(n as usize);
    let mut intervals: Vec<(u32, u64, u64)> = Vec::new();
    let mut occupancy: u64 = 0;
    let mut peak: u64 = 0;
    let (mut loads, mut stores, mut computes) = (0u64, 0u64, 0u64);
    let mut preds = Vec::new();
    let mut legal = true;

    for (i, (op, &v)) in p.ops.chars().zip(&p.vertices).enumerate() {
        let vi = v as usize;
        match op {
            'L' => {
                if !view.is_input(v) && !stored.get(vi) {
                    ctx.reject(
                        codes::V_SCHED_BAD_LOAD,
                        format!("action {i}: load of {v}, which is not in slow memory"),
                    );
                    legal = false;
                } else if in_cache.get(vi) {
                    ctx.reject(
                        codes::V_SCHED_BAD_LOAD,
                        format!("action {i}: load of {v}, which is already cached"),
                    );
                    legal = false;
                } else if occupancy >= p.m {
                    ctx.reject(
                        codes::V_SCHED_CAPACITY,
                        format!("action {i}: load of {v} into a full cache (M = {})", p.m),
                    );
                    legal = false;
                } else {
                    in_cache.set(vi, true);
                    open.set(vi, i as u64);
                    // audit: safe — occupancy < p.m on this branch
                    occupancy += 1;
                    // audit: safe — at most one load per action, and the action index fits usize
                    loads += 1;
                }
            }
            'S' => {
                if !in_cache.get(vi) {
                    ctx.reject(
                        codes::V_SCHED_NOT_RESIDENT,
                        format!("action {i}: store of non-resident {v}"),
                    );
                    legal = false;
                } else {
                    stored.set(vi, true);
                    // audit: safe — at most one store per action, and the action index fits usize
                    stores += 1;
                }
            }
            'D' => {
                if !in_cache.get(vi) {
                    ctx.reject(
                        codes::V_SCHED_NOT_RESIDENT,
                        format!("action {i}: drop of non-resident {v}"),
                    );
                    legal = false;
                } else {
                    in_cache.set(vi, false);
                    intervals.push((v, open.get(vi), i as u64));
                    // audit: safe — v is cached, so its load or compute counted it in occupancy
                    occupancy -= 1;
                }
            }
            'C' => {
                preds.clear();
                view.preds_into(v, &mut preds);
                if view.is_input(v) {
                    ctx.reject(
                        codes::V_SCHED_BAD_COMPUTE,
                        format!("action {i}: compute of input {v}"),
                    );
                    legal = false;
                } else if computed.get(vi) {
                    ctx.reject(
                        codes::V_SCHED_BAD_COMPUTE,
                        format!("action {i}: recomputation of {v}"),
                    );
                    legal = false;
                } else if let Some(&missing) = preds.iter().find(|&&q| !in_cache.get(q as usize)) {
                    ctx.reject(
                        codes::V_SCHED_MISSING_OPERAND,
                        format!("action {i}: compute of {v} with operand {missing} not cached"),
                    );
                    legal = false;
                } else if occupancy >= p.m {
                    ctx.reject(
                        codes::V_SCHED_CAPACITY,
                        format!("action {i}: compute of {v} into a full cache (M = {})", p.m),
                    );
                    legal = false;
                } else {
                    in_cache.set(vi, true);
                    open.set(vi, i as u64);
                    // audit: safe — occupancy < p.m on this branch
                    occupancy += 1;
                    computed.set(vi, true);
                    // audit: safe — at most one compute per action, and the action index fits usize
                    computes += 1;
                }
            }
            other => {
                ctx.reject(
                    codes::V_MALFORMED,
                    format!("action {i}: unknown op character {other:?}"),
                );
                legal = false;
            }
        }
        if !legal {
            return;
        }
        peak = peak.max(occupancy);
    }

    // Terminal conditions: every non-input computed, every output stored.
    for v in 0..n {
        if !view.is_input(v) && !computed.get(v as usize) {
            ctx.reject(
                codes::V_SCHED_INCOMPLETE,
                format!("vertex {v} never computed"),
            );
        }
        if view.is_output(v) && !stored.get(v as usize) {
            ctx.reject(
                codes::V_SCHED_INCOMPLETE,
                format!("output {v} never stored"),
            );
        }
    }

    if (loads, stores, computes) != (p.loads, p.stores, p.computes) {
        ctx.reject(
            codes::V_SCHED_COUNTER_MISMATCH,
            format!(
                "claimed (loads {}, stores {}, computes {}) but replay gives ({loads}, {stores}, {computes})",
                p.loads, p.stores, p.computes
            ),
        );
    }
    if peak != p.peak_occupancy {
        ctx.reject(
            codes::V_SCHED_WITNESS_MISMATCH,
            format!(
                "claimed peak occupancy {} but replay gives {peak}",
                p.peak_occupancy
            ),
        );
    }
    // Residency intervals: values still resident at termination close at
    // the trace length. Compare as sorted multisets.
    let len = p.ops.len() as u64;
    for v in 0..n as usize {
        if in_cache.get(v) {
            intervals.push((v as u32, open.get(v), len));
        }
    }
    let mut claimed: Vec<(u32, u64, u64)> = p
        .res_vertex
        .iter()
        .zip(&p.res_start)
        .zip(&p.res_end)
        .map(|((&v, &s), &e)| (v, s, e))
        .collect();
    intervals.sort_unstable();
    claimed.sort_unstable();
    if intervals != claimed {
        ctx.reject(
            codes::V_SCHED_WITNESS_MISMATCH,
            format!(
                "claimed {} residency intervals disagree with the replay's {}",
                claimed.len(),
                intervals.len()
            ),
        );
    }
}

fn verify_sweep(cert: &Certificate, p: &SweepPayload, ctx: &mut Ctx) {
    let cols = [
        p.feasible.len(),
        p.loads.len(),
        p.stores.len(),
        p.computes.len(),
    ];
    if cols.iter().any(|&l| l != p.ms.len()) {
        ctx.reject(
            codes::V_SWEEP_MALFORMED,
            format!(
                "grid has {} cache sizes but columns of lengths {cols:?}",
                p.ms.len()
            ),
        );
        return;
    }
    for (i, &m) in p.ms.iter().enumerate() {
        if p.ms.iter().take(i).any(|&prior| prior == m) {
            ctx.reject(codes::V_SWEEP_MALFORMED, format!("cache size {m} repeats"));
        }
    }
    // Floors come from closed forms only — no per-vertex walk, so no size
    // ceiling is needed here.
    let Some(view) = build_view(cert, p.r, false, ctx) else {
        return;
    };
    if !tensor_holds(cert, ctx) {
        return;
    }
    // audit: safe — an in-degree is below the view's u32 vertex count
    let need = view.max_indegree() as u64 + 1;
    let used_inputs = view.used_inputs();
    let outputs = view.outputs_count();
    // audit: safe — the inputs are vertices of the view, so inputs_count ≤ n_vertices
    let work = view.n_vertices() as u64 - view.inputs_count();
    let rows =
        p.ms.iter()
            .zip(&p.feasible)
            .zip(&p.loads)
            .zip(&p.stores)
            .zip(&p.computes);
    for ((((&m, &feasible), &loads), &stores), &computes) in rows {
        if feasible != (m >= need) {
            ctx.reject(
                codes::V_SWEEP_FLOOR,
                format!(
                    "M = {m}: declared {}feasible but the minimum cache is {need}",
                    if feasible { "" } else { "in" }
                ),
            );
            continue;
        }
        if !feasible {
            if loads != 0 || stores != 0 || computes != 0 {
                ctx.reject(
                    codes::V_SWEEP_FLOOR,
                    format!("M = {m}: infeasible point carries nonzero I/O claims"),
                );
            }
            continue;
        }
        if loads < used_inputs {
            ctx.reject(
                codes::V_SWEEP_FLOOR,
                format!("M = {m}: {loads} loads, below the {used_inputs} used inputs"),
            );
        }
        if stores < outputs {
            ctx.reject(
                codes::V_SWEEP_FLOOR,
                format!("M = {m}: {stores} stores, below the {outputs} outputs"),
            );
        }
        if computes != work {
            ctx.reject(
                codes::V_SWEEP_WORK,
                format!("M = {m}: {computes} computes, the non-input vertex count is {work}"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{unit_base, unit_routing, unit_schedule};

    #[test]
    fn unit_routing_accepted() {
        let v = verify(&unit_routing());
        assert!(v.accepted, "rejections: {:?}", v.rejections);
        // And survives a JSON round trip.
        let v = verify_json(&unit_routing().to_json());
        assert!(v.accepted, "rejections: {:?}", v.rejections);
    }

    #[test]
    fn unit_schedule_replay() {
        // The schedule above is illegal: peak occupancy 5 exceeds M = 4.
        let mut cert = unit_schedule();
        if let Payload::Schedule(p) = &mut cert.payload {
            p.m = 4;
        }
        let v = verify(&cert);
        assert!(!v.accepted);
        assert!(v.has_code(codes::V_SCHED_CAPACITY), "{:?}", v.rejections);

        // With M = 5 it is legal and all claims match.
        let mut cert = unit_schedule();
        if let Payload::Schedule(p) = &mut cert.payload {
            p.m = 5;
        }
        let v = verify(&cert);
        assert!(v.accepted, "rejections: {:?}", v.rejections);
    }

    #[test]
    fn stale_version_rejected_before_decode() {
        let mut cert = unit_routing();
        cert.version = 99;
        let v = verify_json(&cert.to_json());
        assert!(!v.accepted);
        assert!(v.has_code(codes::V_VERSION));
        assert_eq!(v.format_version, 99);
    }

    #[test]
    fn garbage_never_panics() {
        for s in [
            "",
            "{",
            "[1,2,3]",
            "{\"version\":true}",
            "{\"a\":1}",
            "null",
        ] {
            let v = verify_json(s);
            assert!(!v.accepted);
            assert!(
                v.has_code(codes::V_MALFORMED) || v.has_code(codes::V_VERSION),
                "input {s:?} gave {:?}",
                v.rejections
            );
        }
    }

    #[test]
    fn corrupt_routing_rejections() {
        // Non-edge hop.
        let mut cert = unit_routing();
        if let Payload::Routing(p) = &mut cert.payload {
            p.paths[0][1] = p.paths[0][0];
        }
        let v = verify(&cert);
        assert!(!v.accepted);
        assert!(v.has_code(codes::V_ROUTE_NON_EDGE), "{:?}", v.rejections);

        // Wrong bound.
        let mut cert = unit_routing();
        if let Payload::Routing(p) = &mut cert.payload {
            p.bound += 1;
        }
        assert!(verify(&cert).has_code(codes::V_ROUTE_BOUND));

        // Dropped path: count and pair coverage both fire.
        let mut cert = unit_routing();
        if let Payload::Routing(p) = &mut cert.payload {
            p.paths.pop();
            p.max_meta_hits = 1;
        }
        let v = verify(&cert);
        assert!(v.has_code(codes::V_ROUTE_PATH_COUNT));
        assert!(v.has_code(codes::V_ROUTE_PAIRS));

        // Claim mismatch.
        let mut cert = unit_routing();
        if let Payload::Routing(p) = &mut cert.payload {
            p.max_vertex_hits += 1;
        }
        assert!(verify(&cert).has_code(codes::V_ROUTE_CLAIM_MISMATCH));

        // Transport prefix out of range.
        let mut cert = unit_routing();
        if let Payload::Routing(p) = &mut cert.payload {
            p.copy_prefixes = vec![1];
        }
        let v = verify(&cert);
        assert!(v.has_code(codes::V_ROUTE_TRANSPORT), "{:?}", v.rejections);
    }

    #[test]
    fn corrupt_base_rejected() {
        use mmio_matrix::Rational;
        let mut cert = unit_routing();
        cert.base.dec[(0, 0)] = Rational::ZERO;
        let v = verify(&cert);
        assert!(!v.accepted);
        assert!(v.has_code(codes::V_BASE_INVALID));
    }

    #[test]
    fn sweep_floors_enforced() {
        // unit at r=1: need = 3, used inputs = 2, outputs = 1, work = 4.
        let sweep = |ms: Vec<u64>,
                     feasible: Vec<bool>,
                     loads: Vec<u64>,
                     stores: Vec<u64>,
                     computes: Vec<u64>| {
            Certificate::new(
                unit_base(),
                Payload::Sweep(crate::format::SweepPayload {
                    r: 1,
                    policy: "lru".into(),
                    ms,
                    feasible,
                    loads,
                    stores,
                    computes,
                }),
            )
        };
        let ok = sweep(
            vec![2, 5],
            vec![false, true],
            vec![0, 2],
            vec![0, 1],
            vec![0, 4],
        );
        let v = verify(&ok);
        assert!(v.accepted, "rejections: {:?}", v.rejections);

        let bad = sweep(
            vec![2, 5],
            vec![false, true],
            vec![0, 1],
            vec![0, 1],
            vec![0, 4],
        );
        assert!(verify(&bad).has_code(codes::V_SWEEP_FLOOR));

        let bad = sweep(
            vec![2, 5],
            vec![false, true],
            vec![0, 2],
            vec![0, 1],
            vec![0, 5],
        );
        assert!(verify(&bad).has_code(codes::V_SWEEP_WORK));

        let bad = sweep(
            vec![5, 5],
            vec![true, true],
            vec![2, 2],
            vec![1, 1],
            vec![4, 4],
        );
        assert!(verify(&bad).has_code(codes::V_SWEEP_MALFORMED));
    }
}
