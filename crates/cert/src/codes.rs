//! The `MMIO-Vxxx` reject-code registry of the certificate verifier.
//!
//! Codes are stable identifiers: the golden corrupted-certificate corpus,
//! the mutation harness, and downstream tooling match on them, so a code is
//! never reused for a different meaning. The family sits alongside the
//! analyzer's `Axxx`/`Cxxx`/`Dxxx` families (see `mmio-analyze::codes`);
//! `Vxxx` is reserved for the *standalone* verifier, which re-derives
//! structure instead of linking against the engines. It is the one checker
//! of schedule legality and of the routing bound: `mmio analyze` reports
//! these rejections under their own codes.

/// Unsupported certificate format version.
pub const V_VERSION: &str = "MMIO-V001";
/// Malformed certificate: JSON parse failure, missing or mistyped fields,
/// inconsistent array lengths, or vertex ids out of range.
pub const V_MALFORMED: &str = "MMIO-V002";
/// The embedded base graph is not a matrix-multiplication algorithm
/// (inconsistent coefficient shapes or tensor-identity violations).
pub const V_BASE_INVALID: &str = "MMIO-V003";
/// Certificate parameters out of range (`k` or `r` outside the supported
/// window, or the implied graph exceeds the dense `u32` id space).
pub const V_PARAMS: &str = "MMIO-V004";

/// A routing path is empty or traverses a hop that is not an edge of `G_k`
/// under the closed-form predecessor rules.
pub const V_ROUTE_NON_EDGE: &str = "MMIO-V010";
/// Endpoint/pair-coverage violation: a path does not connect an input to an
/// output, or some (input, output) pair is missing or duplicated.
pub const V_ROUTE_PAIRS: &str = "MMIO-V011";
/// A vertex lies on more paths than the claimed bound.
pub const V_ROUTE_VERTEX_OVERLOAD: &str = "MMIO-V012";
/// A copy-group (meta-vertex) is hit by more paths than the claimed bound.
pub const V_ROUTE_META_OVERLOAD: &str = "MMIO-V013";
/// The claimed hit counts disagree with the verifier's recount.
pub const V_ROUTE_CLAIM_MISMATCH: &str = "MMIO-V014";
/// Wrong number of paths (an in-out routing has `2a^{2k}`).
pub const V_ROUTE_PATH_COUNT: &str = "MMIO-V015";
/// Fact-1 transport invalid: prefix out of range, duplicated, wrong prefix
/// count, or a transported path breaks an edge of `G_r`.
pub const V_ROUTE_TRANSPORT: &str = "MMIO-V016";
/// The claimed bound is not the Routing Theorem's `6a^k`.
pub const V_ROUTE_BOUND: &str = "MMIO-V017";

/// Illegal load: value not residing in slow memory, or already cached.
pub const V_SCHED_BAD_LOAD: &str = "MMIO-V020";
/// Store or drop of a value not resident in cache.
pub const V_SCHED_NOT_RESIDENT: &str = "MMIO-V021";
/// Cache occupancy would exceed `M`.
pub const V_SCHED_CAPACITY: &str = "MMIO-V022";
/// Compute with a predecessor missing from cache.
pub const V_SCHED_MISSING_OPERAND: &str = "MMIO-V023";
/// Illegal compute: input vertex, or recomputation.
pub const V_SCHED_BAD_COMPUTE: &str = "MMIO-V024";
/// Terminal conditions violated: a vertex never computed or an output never
/// stored.
pub const V_SCHED_INCOMPLETE: &str = "MMIO-V025";
/// Claimed I/O counters (loads/stores/computes) disagree with the replay.
pub const V_SCHED_COUNTER_MISMATCH: &str = "MMIO-V026";
/// Claimed residency intervals or peak occupancy disagree with the replay.
pub const V_SCHED_WITNESS_MISMATCH: &str = "MMIO-V027";

/// Sweep witness malformed: column lengths differ or a cache size repeats.
pub const V_SWEEP_MALFORMED: &str = "MMIO-V030";
/// Sweep point violates a structural floor (loads below the used-input
/// count, stores below the output count, or feasibility misdeclared).
pub const V_SWEEP_FLOOR: &str = "MMIO-V031";
/// Sweep point's compute count differs from the non-input vertex count.
pub const V_SWEEP_WORK: &str = "MMIO-V032";

/// `(code, one-line description)` for every registered code, in order —
/// the source of the documentation table in `DESIGN.md`.
pub const TABLE: &[(&str, &str)] = &[
    (V_VERSION, "unsupported certificate format version"),
    (V_MALFORMED, "malformed certificate (parse/shape/id errors)"),
    (
        V_BASE_INVALID,
        "embedded base graph fails the tensor identity",
    ),
    (V_PARAMS, "parameters out of the supported range"),
    (V_ROUTE_NON_EDGE, "path empty or traverses a non-edge"),
    (
        V_ROUTE_PAIRS,
        "in-out pair missing, duplicated, or malformed",
    ),
    (
        V_ROUTE_VERTEX_OVERLOAD,
        "vertex hits exceed the claimed bound",
    ),
    (
        V_ROUTE_META_OVERLOAD,
        "copy-group hits exceed the claimed bound",
    ),
    (
        V_ROUTE_CLAIM_MISMATCH,
        "claimed hit counts disagree with recount",
    ),
    (V_ROUTE_PATH_COUNT, "wrong number of paths (need 2a^{2k})"),
    (
        V_ROUTE_TRANSPORT,
        "Fact-1 transport prefix or edge lift invalid",
    ),
    (V_ROUTE_BOUND, "claimed bound is not 6a^k"),
    (
        V_SCHED_BAD_LOAD,
        "illegal load (unavailable or already cached)",
    ),
    (V_SCHED_NOT_RESIDENT, "store/drop of non-resident value"),
    (V_SCHED_CAPACITY, "cache occupancy exceeds M"),
    (V_SCHED_MISSING_OPERAND, "compute with non-resident operand"),
    (V_SCHED_BAD_COMPUTE, "compute of input or recomputation"),
    (
        V_SCHED_INCOMPLETE,
        "vertex never computed or output never stored",
    ),
    (
        V_SCHED_COUNTER_MISMATCH,
        "claimed I/O counters disagree with replay",
    ),
    (
        V_SCHED_WITNESS_MISMATCH,
        "residency/peak witness disagrees with replay",
    ),
    (
        V_SWEEP_MALFORMED,
        "sweep columns inconsistent or M repeated",
    ),
    (V_SWEEP_FLOOR, "sweep point below a structural I/O floor"),
    (
        V_SWEEP_WORK,
        "sweep compute count is not the non-input count",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn codes_are_unique_and_well_formed() {
        let mut seen = HashSet::new();
        for (code, desc) in TABLE {
            assert!(code.starts_with("MMIO-V"), "{code}");
            assert_eq!(code.len(), "MMIO-V000".len(), "{code}");
            assert!(seen.insert(code), "duplicate code {code}");
            assert!(!desc.is_empty());
        }
    }
}
