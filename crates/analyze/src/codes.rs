//! The diagnostic code registry.
//!
//! Codes are stable identifiers: tests and downstream tooling match on them,
//! so a code is never reused for a different meaning. Families:
//!
//! - `MMIO-Axxx` — CDAG structure lints ([`crate::cdag`]);
//! - `MMIO-Cxxx` — concurrency soundness (sync traces and the `mmio-check`
//!   model checker);
//! - `MMIO-Dxxx` — distributed-run audits ([`crate::distsim`]);
//! - `MMIO-Fxxx` — serve-tier fault handling (`mmio-serve`: snapshot
//!   recovery, load shedding, deadlines, panic isolation);
//! - `MMIO-Lxxx` — workspace static-soundness lints (`mmio-audit`:
//!   panic-reachability on the trust paths, diagnostic-registry lifecycle,
//!   determinism hygiene).
//!
//! The `MMIO-Vxxx` family lives in `mmio-cert::codes` — the standalone
//! verifier registers its own reject codes so its trust base stays free of
//! the engine crates. It is the one checker of schedule legality and of
//! the routing bound: `mmio analyze` reports its rejections as they are.
//! [`all_tables`] merges every family into one machine-checkable registry.

/// Cycle detected: the vertex ordering admits no topological order.
pub const CDAG_CYCLE: &str = "MMIO-A001";
/// Edge does not increase the paper rank (pred rank ≥ succ rank).
pub const CDAG_RANK_MISMATCH: &str = "MMIO-A002";
/// Dangling vertex: a non-output whose value is never used.
pub const CDAG_DANGLING: &str = "MMIO-A003";
/// Vertex unreachable from every input.
pub const CDAG_UNREACHABLE: &str = "MMIO-A004";
/// Copy vertex violating the meta-vertex rules (≠ 1 predecessor, wrong
/// parent, or coefficient ≠ 1).
pub const CDAG_COPY_RULE: &str = "MMIO-A005";
/// Fact 1 violation: the middle `2(k+1)` ranks do not decompose into
/// `b^{r-k}` vertex-disjoint copies of `G_k`.
pub const CDAG_FACT1: &str = "MMIO-A006";
/// Single-use assumption violated: a nontrivial linear combination feeds
/// more than one multiplication.
pub const CDAG_MULTI_USE: &str = "MMIO-A007";
/// The base graph does not compute matrix multiplication (tensor identity
/// violated).
pub const CDAG_INCORRECT: &str = "MMIO-A008";
/// Lemma 1 hypothesis fails: one side's encoding has only trivial rows.
pub const CDAG_LEMMA1: &str = "MMIO-A009";
/// Routing Theorem hypothesis fails: the base admits no n₀-capacity Hall
/// matching, so no routing exists to certify.
pub const CDAG_ROUTING_HYPOTHESIS: &str = "MMIO-A010";

// MMIO-S001–S007 (schedule legality) and MMIO-R001–R004 (routing paths)
// are retired with the audits that emitted them: the certificate
// verifier's MMIO-V010–V027 check the same claims. The ids are never
// reused.

/// Data race: two threads access the same location, at least one writes,
/// and no happens-before edge orders them.
pub const CONC_DATA_RACE: &str = "MMIO-C001";
/// Lost update: an index was claimed by two workers (or never claimed),
/// so the parallel output diverges from serial.
pub const CONC_LOST_UPDATE: &str = "MMIO-C002";
// MMIO-C003 (routing-memo double fill) is retired with the memo it
// checked; the id is never reused.
/// The bounded model checker found a schedule whose output differs from
/// the serial execution (determinism contract violated).
pub const CONC_SCHEDULE_DIVERGES: &str = "MMIO-C004";
/// The bounded model checker found a schedule that deadlocks (some thread
/// neither finished nor has an enabled step).
pub const CONC_DEADLOCK: &str = "MMIO-C005";

/// Conservation violated: `total_words`, `Σ sent`, `Σ received`, or the
/// per-rank critical-path recount disagree with the run's claims.
pub const DIST_CONSERVATION: &str = "MMIO-D001";
/// A value was sent or consumed before it was available at its owner.
pub const DIST_NOT_AVAILABLE: &str = "MMIO-D002";
/// Assignment totality violated: a vertex executed on the wrong rank,
/// twice, or never.
pub const DIST_ASSIGNMENT: &str = "MMIO-D003";
/// A processor's cache occupancy exceeded `M` (or evict/insert events are
/// inconsistent with cache membership).
pub const DIST_OVER_CAPACITY: &str = "MMIO-D004";
/// A receive event has no outstanding matching send.
pub const DIST_UNMATCHED_RECV: &str = "MMIO-D005";
/// Contention conservation violated: the claimed per-round words, link
/// occupancy, hop totals, or per-rank/per-link load maxima disagree with
/// a recount of the event stream routed over the claimed topology.
pub const DIST_LINK_CONSERVATION: &str = "MMIO-D006";
/// The claimed per-round contended times or the makespan disagree with
/// the α-β-γ formula applied to the recounted loads (or the model's
/// inverse bandwidth is 0, voiding the makespan ≥ critical-path bound).
pub const DIST_MAKESPAN: &str = "MMIO-D007";

/// A request line failed to parse or validate (not JSON, unknown op,
/// wrong field types, out-of-range parameters, unknown algorithm).
pub const SERVE_BAD_REQUEST: &str = "MMIO-F000";
/// Cache snapshot unreadable or unparseable: not JSON, truncated, or
/// missing required fields. The entry is quarantined and recomputed.
pub const SERVE_SNAPSHOT_UNPARSEABLE: &str = "MMIO-F001";
/// Cache snapshot checksum mismatch (bit flip or torn final write). The
/// entry is quarantined and recomputed.
pub const SERVE_SNAPSHOT_CHECKSUM: &str = "MMIO-F002";
/// Cache snapshot carries a stale or unknown format version. The entry is
/// quarantined and recomputed.
pub const SERVE_SNAPSHOT_VERSION: &str = "MMIO-F003";
/// Cache snapshot's content-hash key disagrees with its filename or its
/// recomputed content hash (cross-linked or mislabeled entry). Quarantined.
pub const SERVE_SNAPSHOT_KEY: &str = "MMIO-F004";
/// Transient cache I/O failure: retries with backoff were exhausted and
/// the request degraded to memo-less recompute.
pub const SERVE_CACHE_DEGRADED: &str = "MMIO-F005";
/// A job panicked; the panic was isolated to the job and surfaced as a
/// typed response instead of taking the server down.
pub const SERVE_JOB_PANIC: &str = "MMIO-F006";
/// A request's deadline expired before its job produced a result.
pub const SERVE_DEADLINE: &str = "MMIO-F007";
/// The bounded job queue was full; the request was shed with a typed
/// `overloaded` response instead of queuing unboundedly.
pub const SERVE_OVERLOADED: &str = "MMIO-F008";
/// A worker exceeded the wedge threshold and was replaced by a fresh one.
pub const SERVE_WORKER_REPLACED: &str = "MMIO-F009";
/// A cached payload passed its checksum but failed semantic
/// re-verification (`mmio-cert`); quarantined and recomputed.
pub const SERVE_PAYLOAD_REVERIFY: &str = "MMIO-F010";
/// An orphaned temp file from an interrupted persist was swept during the
/// recovery scan.
pub const SERVE_ORPHAN_TEMP: &str = "MMIO-F011";

/// A panic site (`unwrap`/`expect`) is reachable from a static trust root
/// (`mmio_cert::verify_json` or the serve request path) with no
/// `// audit: safe —` justification.
pub const AUDIT_UNWRAP_REACHABLE: &str = "MMIO-L001";
/// An explicit panic macro (`panic!`, `unreachable!`, `todo!`,
/// `unimplemented!`, `assert!` family) is reachable from a trust root.
pub const AUDIT_PANIC_REACHABLE: &str = "MMIO-L002";
/// A slice/array indexing expression (aborts on out-of-bounds in every
/// profile) is reachable from a trust root.
pub const AUDIT_INDEX_REACHABLE: &str = "MMIO-L003";
/// Unchecked integer arithmetic (overflow panics under
/// `debug_assertions`) is reachable from a trust root. Advisory: release
/// builds wrap instead of aborting.
pub const AUDIT_ARITH_REACHABLE: &str = "MMIO-L004";
/// An `// audit: safe —` justification comment with no dischargeable site
/// on its line (orphaned — the code it justified is gone).
pub const AUDIT_JUSTIFICATION_ORPHANED: &str = "MMIO-L005";
/// An `// audit: safe —` justification on a site no audit pass flags
/// (stale — the site is no longer reachable from any trust root).
pub const AUDIT_JUSTIFICATION_STALE: &str = "MMIO-L006";
/// A diagnostic code is emitted by workspace source but registered in no
/// `codes::TABLE`.
pub const AUDIT_CODE_UNREGISTERED: &str = "MMIO-L010";
/// A registered diagnostic code is never emitted by any crate (dead).
pub const AUDIT_CODE_DEAD: &str = "MMIO-L011";
/// A registered diagnostic code is not documented in `DESIGN.md`.
pub const AUDIT_CODE_UNDOCUMENTED: &str = "MMIO-L012";
/// A registered diagnostic code is asserted by no test or golden-corpus
/// file.
pub const AUDIT_CODE_UNTESTED: &str = "MMIO-L013";
/// A diagnostic code is emitted by two different crates.
pub const AUDIT_CODE_DUPLICATE_EMITTER: &str = "MMIO-L014";
/// `HashMap`/`HashSet` iteration feeds a rendered or serialized output
/// path (iteration order is nondeterministic; output bytes must not be).
pub const AUDIT_HASH_ITERATION: &str = "MMIO-L020";
/// A wall-clock source (`SystemTime::now`/`Instant::now`) is reachable
/// from certificate emission or memo-key construction.
pub const AUDIT_TIME_IN_PAYLOAD: &str = "MMIO-L021";
/// A crate root is missing `#![forbid(unsafe_code)]`.
pub const AUDIT_MISSING_FORBID_UNSAFE: &str = "MMIO-L022";
/// A `mutate`/`trace` feature-gated item is callable from a
/// default-feature build (feature-gate hygiene).
pub const AUDIT_FEATURE_LEAK: &str = "MMIO-L023";
/// A non-test fn is reached from no root: no binary, example, benchmark,
/// trait impl or audit root calls it (dead code).
pub const AUDIT_UNREACHED_FN: &str = "MMIO-L024";

/// `(code, one-line description)` for every registered code, in order —
/// the source of the documentation table in `DESIGN.md`.
pub const TABLE: &[(&str, &str)] = &[
    (CDAG_CYCLE, "cycle: no topological order exists"),
    (CDAG_RANK_MISMATCH, "edge does not increase paper rank"),
    (CDAG_DANGLING, "non-output vertex is never used"),
    (CDAG_UNREACHABLE, "vertex unreachable from every input"),
    (CDAG_COPY_RULE, "copy vertex violates meta-vertex rules"),
    (CDAG_FACT1, "Fact 1 decomposition check failed"),
    (CDAG_MULTI_USE, "single-use assumption violated"),
    (CDAG_INCORRECT, "tensor identity violated"),
    (
        CDAG_LEMMA1,
        "Lemma 1 hypothesis fails (all-trivial encoding)",
    ),
    (
        CDAG_ROUTING_HYPOTHESIS,
        "Routing Theorem hypothesis fails (no Hall matching)",
    ),
    (CONC_DATA_RACE, "unordered conflicting accesses (data race)"),
    (
        CONC_LOST_UPDATE,
        "index claimed twice or never (lost update)",
    ),
    (
        CONC_SCHEDULE_DIVERGES,
        "a schedule's output differs from serial",
    ),
    (CONC_DEADLOCK, "a schedule deadlocks"),
    (
        DIST_CONSERVATION,
        "send/recv/word totals violate conservation",
    ),
    (DIST_NOT_AVAILABLE, "value used before it was available"),
    (
        DIST_ASSIGNMENT,
        "vertex executed on wrong rank, twice, or never",
    ),
    (DIST_OVER_CAPACITY, "local cache occupancy exceeds M"),
    (DIST_UNMATCHED_RECV, "receive without a matching send"),
    (
        DIST_LINK_CONSERVATION,
        "per-round link occupancy diverges from routed sends",
    ),
    (
        DIST_MAKESPAN,
        "contended round times or makespan diverge from the α-β-γ formula",
    ),
    (SERVE_BAD_REQUEST, "malformed or invalid request line"),
    (
        SERVE_SNAPSHOT_UNPARSEABLE,
        "cache snapshot unreadable or truncated",
    ),
    (SERVE_SNAPSHOT_CHECKSUM, "cache snapshot checksum mismatch"),
    (
        SERVE_SNAPSHOT_VERSION,
        "cache snapshot format version stale or unknown",
    ),
    (SERVE_SNAPSHOT_KEY, "cache snapshot key mismatch"),
    (
        SERVE_CACHE_DEGRADED,
        "cache I/O retries exhausted; degraded to recompute",
    ),
    (SERVE_JOB_PANIC, "job panicked; isolated as typed response"),
    (SERVE_DEADLINE, "request deadline exceeded"),
    (SERVE_OVERLOADED, "job queue full; request shed"),
    (SERVE_WORKER_REPLACED, "wedged worker replaced"),
    (
        SERVE_PAYLOAD_REVERIFY,
        "cached payload failed re-verification",
    ),
    (SERVE_ORPHAN_TEMP, "orphaned temp file swept on recovery"),
    (
        AUDIT_UNWRAP_REACHABLE,
        "unwrap/expect reachable from a trust root",
    ),
    (
        AUDIT_PANIC_REACHABLE,
        "panic-family macro reachable from a trust root",
    ),
    (
        AUDIT_INDEX_REACHABLE,
        "slice indexing reachable from a trust root",
    ),
    (
        AUDIT_ARITH_REACHABLE,
        "unchecked arithmetic reachable from a trust root",
    ),
    (
        AUDIT_JUSTIFICATION_ORPHANED,
        "audit justification with nothing to justify",
    ),
    (
        AUDIT_JUSTIFICATION_STALE,
        "audit justification on an unflagged site",
    ),
    (
        AUDIT_CODE_UNREGISTERED,
        "emitted code registered in no codes::TABLE",
    ),
    (AUDIT_CODE_DEAD, "registered code never emitted"),
    (
        AUDIT_CODE_UNDOCUMENTED,
        "registered code missing from DESIGN.md",
    ),
    (
        AUDIT_CODE_UNTESTED,
        "registered code asserted by no test or corpus",
    ),
    (
        AUDIT_CODE_DUPLICATE_EMITTER,
        "code emitted by two different crates",
    ),
    (
        AUDIT_HASH_ITERATION,
        "HashMap/HashSet iteration feeds rendered output",
    ),
    (
        AUDIT_TIME_IN_PAYLOAD,
        "wall-clock source reachable from payload/key construction",
    ),
    (
        AUDIT_MISSING_FORBID_UNSAFE,
        "crate root missing #![forbid(unsafe_code)]",
    ),
    (
        AUDIT_FEATURE_LEAK,
        "mutate/trace feature item callable from default build",
    ),
    (AUDIT_UNREACHED_FN, "non-test fn reached from no root"),
];

/// The merged cross-crate code registry: every `(registering crate,
/// table)` pair in the workspace. The auditor's lifecycle pass, the CLI
/// `codes` listing, and the `DESIGN.md` tables all read this one source,
/// so a code added to either table is automatically lifecycle-checked.
pub fn all_tables() -> Vec<(&'static str, &'static [(&'static str, &'static str)])> {
    vec![
        ("mmio-analyze", TABLE),
        ("mmio-cert", mmio_cert::codes::TABLE),
    ]
}

#[cfg(test)]
mod tests {
    use super::{all_tables, TABLE};

    #[test]
    fn codes_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for (code, desc) in TABLE {
            assert!(seen.insert(code), "duplicate code {code}");
            assert!(
                code.starts_with("MMIO-") && code.len() == 9,
                "malformed {code}"
            );
            assert!(!desc.is_empty());
        }
    }

    #[test]
    fn merged_registry_has_no_duplicate_codes_or_split_families() {
        let tables = all_tables();
        assert!(tables.len() >= 2, "expected analyze + cert tables");
        let mut codes = std::collections::HashSet::new();
        // A family letter (the `X` in `MMIO-Xnnn`) must be registered by
        // exactly one crate: two crates sharing a letter would make code
        // provenance ambiguous.
        let mut family_owner: std::collections::HashMap<char, &str> =
            std::collections::HashMap::new();
        for (crate_name, table) in &tables {
            assert!(!table.is_empty(), "{crate_name}: empty table");
            for (code, desc) in *table {
                assert!(
                    code.starts_with("MMIO-") && code.len() == 9,
                    "malformed {code}"
                );
                assert!(codes.insert(*code), "duplicate code {code}");
                assert!(!desc.is_empty(), "{code}: empty description");
                let family = code.as_bytes()[5] as char;
                let owner = family_owner.entry(family).or_insert(crate_name);
                assert_eq!(
                    owner, crate_name,
                    "family {family} split across {owner} and {crate_name}"
                );
            }
        }
        // Spot-check the families the workspace relies on today.
        for family in ['A', 'C', 'D', 'F', 'L', 'V'] {
            assert!(
                family_owner.contains_key(&family),
                "family {family} missing from the merged registry"
            );
        }
        // Retired families stay retired: their ids are never reused.
        for family in ['S', 'R'] {
            assert!(
                !family_owner.contains_key(&family),
                "retired family {family} is registered again"
            );
        }
    }
}
