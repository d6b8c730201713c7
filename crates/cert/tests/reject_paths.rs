//! Regression tests for the verifier's typed-rejection paths — the
//! sites the static auditor proves panic-free must keep answering with
//! stable codes, never by unwinding. Each test pins one `MMIO-V0xx`
//! rejection, and fails if the verifier stops making it.
//!
//! The verifier is the one checker of schedule legality and of the
//! routing bound (`mmio analyze` reports its verdicts), so every defect
//! class of the machine model and of Definition 2 is planted here: in the
//! unit schedule (`M` overrun, missing operand, illegal load,
//! recomputation, store or drop of an uncached value, unfinished run) and
//! in the unit routing (empty or non-edge path, wrong path count).

use mmio_cert::format::{Payload, RoutingPayload, SchedulePayload};
use mmio_cert::{fixtures, verify, verify_json, Certificate, Verdict};

fn routing_mut(cert: &mut Certificate) -> &mut RoutingPayload {
    match &mut cert.payload {
        Payload::Routing(p) => p,
        other => panic!("expected routing payload, got {other:?}"),
    }
}

fn schedule_mut(cert: &mut Certificate) -> &mut SchedulePayload {
    match &mut cert.payload {
        Payload::Schedule(p) => p,
        other => panic!("expected schedule payload, got {other:?}"),
    }
}

/// The distinct codes of a verdict, sorted.
fn codes(v: &Verdict) -> Vec<&str> {
    let mut c: Vec<&str> = v.rejections.iter().map(|r| r.code.as_str()).collect();
    c.sort_unstable();
    c.dedup();
    c
}

/// Verifies the unit schedule certificate with its actions replaced by
/// `ops` on `vertices` and its cache size by `m`. The claims stay the
/// fixture's: the replay stops at the first illegal action, before it
/// compares them.
fn replay(m: u64, ops: &str, vertices: &[u32]) -> Verdict {
    let mut cert = fixtures::unit_schedule();
    let p = schedule_mut(&mut cert);
    p.m = m;
    p.ops = ops.into();
    p.vertices = vertices.to_vec();
    verify(&cert)
}

// Dense ids of the unit `G_1`: EncA 0 (input) → 1, EncB 2 (input) → 3,
// product 4 of {1, 3}, output 5 of {4}. The fixture runs
// L0 C1 L2 C3 C4 D0 D2 D1 C5 S5 D3 and peaks at 5 cached values.

#[test]
fn cache_overrun_rejects_with_v022() {
    // The fixture's run at M = 3 has no slot for the compute at action 3 …
    let v = replay(3, "LCLCCDDDCSD", &[0, 1, 2, 3, 4, 0, 2, 1, 5, 5, 3]);
    assert_eq!(codes(&v), ["MMIO-V022"], "{:?}", v.rejections);
    assert!(v.rejections[0].detail.starts_with("action 3: compute"));
    // … and at M = 2 none for the load at action 2.
    let v = replay(2, "LCLCCDDDCSD", &[0, 1, 2, 3, 4, 0, 2, 1, 5, 5, 3]);
    assert_eq!(codes(&v), ["MMIO-V022"], "{:?}", v.rejections);
    assert!(v.rejections[0].detail.starts_with("action 2: load"));
}

#[test]
fn compute_with_a_missing_operand_rejects_with_v023() {
    // The product first, with neither combination cached.
    let v = replay(5, "C", &[4]);
    assert_eq!(codes(&v), ["MMIO-V023"], "{:?}", v.rejections);
    assert!(v.rejections[0].detail.starts_with("action 0:"));
}

#[test]
fn illegal_loads_reject_with_v020() {
    // The product was never stored, so slow memory does not hold it.
    let v = replay(5, "L", &[4]);
    assert_eq!(codes(&v), ["MMIO-V020"], "{:?}", v.rejections);
    assert!(v.rejections[0].detail.contains("not in slow memory"));
    // An input loaded twice without a drop between.
    let v = replay(5, "LL", &[0, 0]);
    assert_eq!(codes(&v), ["MMIO-V020"], "{:?}", v.rejections);
    assert!(v.rejections[0].detail.contains("already cached"));
}

#[test]
fn recomputation_rejects_with_v024() {
    let v = replay(5, "LCC", &[0, 1, 1]);
    assert_eq!(codes(&v), ["MMIO-V024"], "{:?}", v.rejections);
    assert!(v.rejections[0].detail.contains("recomputation of 1"));
}

#[test]
fn store_and_drop_of_uncached_values_reject_with_v021() {
    let v = replay(5, "S", &[5]);
    assert_eq!(codes(&v), ["MMIO-V021"], "{:?}", v.rejections);
    assert!(v.rejections[0].detail.contains("store of non-resident 5"));
    let v = replay(5, "LD", &[0, 2]);
    assert_eq!(codes(&v), ["MMIO-V021"], "{:?}", v.rejections);
    assert!(v.rejections[0].detail.contains("drop of non-resident 2"));
}

#[test]
fn unfinished_schedules_reject_with_v025() {
    // The fixture without its store: every claim matches the replay, but
    // the output ends in cache only.
    let mut cert = fixtures::unit_schedule();
    let p = schedule_mut(&mut cert);
    p.ops = "LCLCCDDDCD".into();
    p.vertices = vec![0, 1, 2, 3, 4, 0, 2, 1, 5, 3];
    p.stores = 0;
    p.res_end = vec![5, 7, 6, 9, 10, 10];
    let v = verify(&cert);
    assert_eq!(codes(&v), ["MMIO-V025"], "{:?}", v.rejections);
    assert_eq!(v.rejections.len(), 1);
    assert_eq!(v.rejections[0].detail, "output 5 never stored");

    // A run that stops after the first combination: three vertices are
    // never computed, and the output is never stored.
    let mut cert = fixtures::unit_schedule();
    let p = schedule_mut(&mut cert);
    p.ops = "LC".into();
    p.vertices = vec![0, 1];
    (p.loads, p.stores, p.computes, p.peak_occupancy) = (1, 0, 1, 2);
    p.res_vertex = vec![0, 1];
    p.res_start = vec![0, 1];
    p.res_end = vec![2, 2];
    let v = verify(&cert);
    assert_eq!(codes(&v), ["MMIO-V025"], "{:?}", v.rejections);
    let details: Vec<&str> = v.rejections.iter().map(|r| r.detail.as_str()).collect();
    assert_eq!(
        details,
        [
            "vertex 3 never computed",
            "vertex 4 never computed",
            "vertex 5 never computed",
            "output 5 never stored"
        ]
    );
}

#[test]
fn empty_and_non_edge_paths_reject_with_v010() {
    let mut cert = fixtures::unit_routing();
    routing_mut(&mut cert).paths[0].clear();
    let v = verify(&cert);
    assert!(v.has_code("MMIO-V010"), "{:?}", v.rejections);
    assert!(v.rejections.iter().any(|r| r.detail == "path 0 is empty"));

    // 0 → 4 skips the combination vertex 1: no such edge in G_1.
    let mut cert = fixtures::unit_routing();
    routing_mut(&mut cert).paths[0] = vec![0, 4, 5];
    let v = verify(&cert);
    assert!(v.has_code("MMIO-V010"), "{:?}", v.rejections);
    assert!(v
        .rejections
        .iter()
        .any(|r| r.detail.starts_with("path 0 hop 0: (0, 4)")));
}

#[test]
fn wrong_path_count_rejects_with_v015() {
    // Two pairs need two paths; one is given, with honest hit claims.
    let mut cert = fixtures::unit_routing();
    let p = routing_mut(&mut cert);
    p.paths.truncate(1);
    (p.max_vertex_hits, p.max_meta_hits) = (1, 1);
    let v = verify(&cert);
    assert_eq!(codes(&v), ["MMIO-V011", "MMIO-V015"], "{:?}", v.rejections);
}

#[test]
fn out_of_range_params_reject_with_v004() {
    // k = 0 breaks the Routing Theorem's 1 ≤ k precondition.
    let mut low = fixtures::unit_routing();
    routing_mut(&mut low).k = 0;
    let v = verify(&low);
    assert!(!v.accepted);
    assert!(v.has_code("MMIO-V004"), "{:?}", v.rejections);

    // k > r inverts the Fact-1 transport direction.
    let mut inverted = fixtures::unit_routing();
    routing_mut(&mut inverted).k = 5;
    let v = verify(&inverted);
    assert!(!v.accepted);
    assert!(v.has_code("MMIO-V004"), "{:?}", v.rejections);
}

#[test]
fn vertex_and_group_overload_reject_with_v012_v013() {
    // Route the same input-output pair nine times: vertex 4 (the
    // product) and its copy group are hit 9 > 6a^k = 6 times. The pair
    // duplication and path count are also wrong — the verifier must
    // still reach and report the congestion recount.
    let mut cert = fixtures::unit_routing();
    routing_mut(&mut cert).paths = vec![vec![0, 1, 4, 5]; 9];
    let v = verify(&cert);
    assert!(!v.accepted);
    assert!(v.has_code("MMIO-V012"), "{:?}", v.rejections);
    assert!(v.has_code("MMIO-V013"), "{:?}", v.rejections);
}

#[test]
fn compute_of_an_input_rejects_with_v024() {
    // Replay the legal unit schedule but compute vertex 0 (an input)
    // instead of loading it.
    let mut cert = fixtures::unit_schedule();
    let p = schedule_mut(&mut cert);
    assert_eq!(&p.ops[..1], "L");
    assert_eq!(p.vertices[0], 0);
    p.ops.replace_range(..1, "C");
    let v = verify(&cert);
    assert!(!v.accepted);
    assert!(v.has_code("MMIO-V024"), "{:?}", v.rejections);
}

#[test]
fn hostile_json_yields_a_renderable_verdict_not_a_panic() {
    for bad in [
        "",
        "not json at all",
        "[1,2,3]",
        "{}",
        r#"{"version":1,"kind":"routing"}"#,
        r#"{"version":1,"kind":"routing","base":null,"payload":{}}"#,
        "{\"version\":1,\"kind\":\"routing\",\"base\":\"\u{0000}\"}",
    ] {
        let v = verify_json(bad);
        assert!(!v.accepted, "{bad:?} must be rejected");
        assert!(!v.rejections.is_empty(), "{bad:?}: rejected with no code");
        // The verdict itself must always render to one JSON document.
        let rendered = v.to_json();
        assert!(
            rendered.contains("\"accepted\""),
            "verdict render degraded: {rendered}"
        );
    }
}
