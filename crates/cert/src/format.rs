//! The versioned certificate format.
//!
//! A [`Certificate`] is a self-contained proof object: it embeds the base
//! graph's exact coefficients (so the verifier re-checks the tensor identity
//! instead of trusting an algorithm name) plus one [`Payload`] — a routing
//! witness, a schedule-legality witness, or a sweep I/O witness.
//!
//! ## Version/compat policy
//!
//! [`FORMAT_VERSION`] is bumped on any change that alters the meaning of an
//! existing field or the verification semantics. The verifier accepts
//! exactly the current version and rejects everything else with
//! `MMIO-V001` — a certificate is a proof, and a proof under different
//! rules is not a proof. Purely additive evolutions (new payload kinds)
//! keep the version; unknown kinds are rejected as malformed by old
//! verifiers, which is the safe direction.
//!
//! ## Encoding
//!
//! JSON via the workspace shims, with insertion-ordered object fields —
//! serialization is deterministic, so byte-stability across thread counts
//! reduces to value-stability of the emitting engines (which the
//! round-trip tests pin). The verifier reads that canonical text typed
//! (`Certificate`'s `read_json`: fields in wire order, no `Value` tree)
//! and leaves any other text to the tree decode. Schedules are encoded as
//! one action-kind character per step (`L`oad/`S`tore/`C`ompute/`D`rop)
//! plus a parallel vertex array: compact, diffable, and free of nested
//! enums the offline serde shim cannot derive.

use serde::{de, ser, Deserialize, Serialize, Value};

use mmio_matrix::{Matrix, Rational};

/// Current certificate format version (see the module docs for the policy).
pub const FORMAT_VERSION: u32 = 1;

/// The embedded base-graph coefficients: everything the closed-form view
/// needs to re-derive `G_r`. Mirrors `mmio_cdag::BaseGraph` data, but kept
/// as plain matrices so deserialization never runs engine constructors
/// (which panic on inconsistent shapes — the verifier must reject instead).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BaseSpec {
    /// Algorithm name (informational; never trusted for structure).
    pub name: String,
    /// Block side `n₀` of one recursion step.
    pub n0: usize,
    /// `b × a` encoding of `A` (`a = n₀²`).
    pub enc_a: Matrix<Rational>,
    /// `b × a` encoding of `B`.
    pub enc_b: Matrix<Rational>,
    /// `a × b` decoding.
    pub dec: Matrix<Rational>,
}

impl BaseSpec {
    /// Snapshots an engine base graph's coefficients into the certificate
    /// form. This is the emitters' bridge; the verifier never goes the
    /// other way.
    pub fn from_base(g: &mmio_cdag::BaseGraph) -> BaseSpec {
        use mmio_cdag::base::Side;
        BaseSpec {
            name: g.name().to_string(),
            n0: g.n0(),
            enc_a: g.enc(Side::A).clone(),
            enc_b: g.enc(Side::B).clone(),
            dec: g.dec().clone(),
        }
    }
}

/// A `6a^k`-routing witness with its Fact-1 transport into `G_r`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RoutingPayload {
    /// Depth of the routed subgraph `G_k`.
    pub k: u32,
    /// Depth of the enclosing `G_r` the routing is transported into.
    pub r: u32,
    /// Claimed Routing Theorem bound (`6a^k`).
    pub bound: u64,
    /// Claimed maximum per-vertex hits over the paths.
    pub max_vertex_hits: u64,
    /// Claimed maximum per-copy-group hits (once per touching path).
    pub max_meta_hits: u64,
    /// The `2a^{2k}` paths, as dense vertex ids of the *standalone* `G_k`.
    pub paths: Vec<Vec<u32>>,
    /// Fact-1 transport: the multiplication prefixes (one per copy of `G_k`
    /// inside `G_r`) the routing is claimed to hold in. A complete
    /// transport lists all `b^{r-k}` prefixes.
    pub copy_prefixes: Vec<u64>,
}

/// A schedule-legality witness: the full action trace plus the claims the
/// verifier re-derives by replay.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SchedulePayload {
    /// Recursion depth of the scheduled `G_r`.
    pub r: u32,
    /// Cache size `M` the schedule claims to respect.
    pub m: u64,
    /// One character per action: `L`oad, `S`tore, `C`ompute, `D`rop.
    pub ops: String,
    /// The acted-on vertex per action (dense `G_r` ids), parallel to `ops`.
    pub vertices: Vec<u32>,
    /// Claimed number of loads.
    pub loads: u64,
    /// Claimed number of stores.
    pub stores: u64,
    /// Claimed number of computes.
    pub computes: u64,
    /// Claimed peak cache occupancy over the whole trace.
    pub peak_occupancy: u64,
    /// Operand residency intervals: vertex `res_vertex[i]` is resident from
    /// just after action `res_start[i]` until just before action
    /// `res_end[i]` (`== ops.len()` when still resident at termination).
    pub res_vertex: Vec<u32>,
    /// Interval start action indices, parallel to `res_vertex`.
    pub res_start: Vec<u64>,
    /// Interval end action indices, parallel to `res_vertex`.
    pub res_end: Vec<u64>,
}

/// A pebble-sweep I/O witness: claimed exact I/O statistics over a cache-
/// size grid, checked against closed-form structural floors.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SweepPayload {
    /// Recursion depth of the swept `G_r`.
    pub r: u32,
    /// Replacement-policy name (informational).
    pub policy: String,
    /// The cache-size grid.
    pub ms: Vec<u64>,
    /// Whether each grid point was feasible (`M ≥ max_indegree + 1`),
    /// parallel to `ms`.
    pub feasible: Vec<bool>,
    /// Claimed loads per feasible point (0 for infeasible), parallel to `ms`.
    pub loads: Vec<u64>,
    /// Claimed stores per point, parallel to `ms`.
    pub stores: Vec<u64>,
    /// Claimed computes per point, parallel to `ms`.
    pub computes: Vec<u64>,
}

/// The payload variants a certificate can carry.
#[derive(Clone, Debug)]
pub enum Payload {
    /// A routing witness.
    Routing(RoutingPayload),
    /// A schedule-legality witness.
    Schedule(SchedulePayload),
    /// A sweep I/O witness.
    Sweep(SweepPayload),
}

impl Payload {
    /// The payload's kind tag as serialized.
    pub fn kind(&self) -> &'static str {
        match self {
            Payload::Routing(_) => "routing",
            Payload::Schedule(_) => "schedule",
            Payload::Sweep(_) => "sweep",
        }
    }
}

/// A complete, self-contained certificate.
#[derive(Clone, Debug)]
pub struct Certificate {
    /// Format version ([`FORMAT_VERSION`] when emitted by this build).
    pub version: u32,
    /// The embedded base-graph coefficients.
    pub base: BaseSpec,
    /// The witness itself.
    pub payload: Payload,
}

impl Certificate {
    /// Wraps a payload in a current-version envelope.
    pub fn new(base: BaseSpec, payload: Payload) -> Certificate {
        Certificate {
            version: FORMAT_VERSION,
            base,
            payload,
        }
    }

    /// Serializes to compact, deterministic JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("certificates always serialize")
    }
}

impl Payload {
    fn as_serialize(&self) -> &dyn Serialize {
        match self {
            Payload::Routing(p) => p,
            Payload::Schedule(p) => p,
            Payload::Sweep(p) => p,
        }
    }
}

impl Certificate {
    /// Calls `f` on the certificate object's fields in wire order: the one
    /// list both [`Serialize`] methods write.
    fn with_fields<R>(&self, f: impl FnOnce(&[(&str, &dyn Serialize)]) -> R) -> R {
        let kind = self.payload.kind();
        f(&[
            ("version", &self.version),
            ("kind", &kind),
            ("base", &self.base),
            ("payload", self.payload.as_serialize()),
        ])
    }
}

impl Serialize for Certificate {
    fn to_value(&self) -> Value {
        self.with_fields(ser::object)
    }

    fn write_json(&self, w: &mut dyn ser::JsonWriter) {
        self.with_fields(|fields| ser::write_fields(w, fields));
    }
}

impl Deserialize for Certificate {
    fn from_value(v: &Value) -> Result<Certificate, de::Error> {
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| de::Error::custom(format!("missing field `{name}`")))
        };
        let version = u32::from_value(field("version")?)?;
        let kind = String::from_value(field("kind")?)?;
        let base = BaseSpec::from_value(field("base")?)?;
        let payload = field("payload")?;
        let payload = match kind.as_str() {
            "routing" => Payload::Routing(RoutingPayload::from_value(payload)?),
            "schedule" => Payload::Schedule(SchedulePayload::from_value(payload)?),
            "sweep" => Payload::Sweep(SweepPayload::from_value(payload)?),
            other => {
                return Err(de::Error::custom(format!(
                    "unknown certificate kind `{other}`"
                )))
            }
        };
        Ok(Certificate {
            version,
            base,
            payload,
        })
    }

    /// Reads the certificate object with its fields in wire order, as
    /// [`Certificate::to_json`] writes them, each payload read by kind with
    /// no tree. Stricter than [`Certificate::from_value`]: a version other
    /// than [`FORMAT_VERSION`], a field out of order (a payload before its
    /// kind), or an extra field is an error, which the verifier answers
    /// through the tree path.
    fn read_json(r: &mut dyn de::JsonReader) -> Result<Certificate, de::Error> {
        r.begin_object()?;
        expect_key(r, "version")?;
        let version = u32::read_json(r)?;
        if version != FORMAT_VERSION {
            return Err(de::Error::custom(format!(
                "format version {version} is not {FORMAT_VERSION}"
            )));
        }
        expect_key(r, "kind")?;
        let kind = String::read_json(r)?;
        expect_key(r, "base")?;
        let base = BaseSpec::read_json(r)?;
        expect_key(r, "payload")?;
        let payload = match kind.as_str() {
            "routing" => Payload::Routing(RoutingPayload::read_json(r)?),
            "schedule" => Payload::Schedule(SchedulePayload::read_json(r)?),
            "sweep" => Payload::Sweep(SweepPayload::read_json(r)?),
            other => {
                return Err(de::Error::custom(format!(
                    "unknown certificate kind `{other}`"
                )))
            }
        };
        if let Some(key) = r.next_key()? {
            return Err(de::unknown_field(&key));
        }
        Ok(Certificate {
            version,
            base,
            payload,
        })
    }
}

/// Reads the key of the next object field and checks that it is `key`.
fn expect_key(r: &mut dyn de::JsonReader, key: &str) -> Result<(), de::Error> {
    match r.next_key()? {
        Some(k) if k == key => Ok(()),
        Some(k) => Err(de::Error::custom(format!(
            "expected field `{key}`, got `{k}`"
        ))),
        None => Err(de::Error::custom(format!("missing field `{key}`"))),
    }
}

/// Reads just the `version` field of a certificate [`Value`], so the
/// verifier can distinguish "stale format" from "malformed" before
/// attempting a full decode.
pub fn peek_version(v: &Value) -> Option<u64> {
    match v.get("version") {
        Some(&Value::Int(i)) if i >= 0 => Some(i as u64),
        Some(&Value::UInt(u)) => Some(u),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_base() -> BaseSpec {
        let one = Matrix::from_vec(1, 1, vec![Rational::ONE]);
        BaseSpec {
            name: "unit".into(),
            n0: 1,
            enc_a: one.clone(),
            enc_b: one.clone(),
            dec: one,
        }
    }

    #[test]
    fn routing_roundtrip_is_identity_and_byte_stable() {
        let cert = Certificate::new(
            tiny_base(),
            Payload::Routing(RoutingPayload {
                k: 1,
                r: 2,
                bound: 6,
                max_vertex_hits: 2,
                max_meta_hits: 2,
                paths: vec![vec![0, 1, 2], vec![2, 1, 0]],
                copy_prefixes: vec![0],
            }),
        );
        let json = cert.to_json();
        let back: Certificate = serde_json::from_str(&json).unwrap();
        assert_eq!(back.to_json(), json, "serialization must be a fixpoint");
        // Written field by field, the bytes are the tree's.
        assert_eq!(serde_json::to_string(&cert.to_value()).unwrap(), json);
        assert_eq!(back.version, FORMAT_VERSION);
        match back.payload {
            Payload::Routing(p) => assert_eq!(p.paths.len(), 2),
            other => panic!("wrong kind {:?}", other.kind()),
        }
    }

    #[test]
    fn schedule_and_sweep_roundtrip() {
        let sched = Certificate::new(
            tiny_base(),
            Payload::Schedule(SchedulePayload {
                r: 1,
                m: 3,
                ops: "LCS".into(),
                vertices: vec![0, 1, 1],
                loads: 1,
                stores: 1,
                computes: 1,
                peak_occupancy: 2,
                res_vertex: vec![0, 1],
                res_start: vec![0, 1],
                res_end: vec![3, 3],
            }),
        );
        let back: Certificate = serde_json::from_str(&sched.to_json()).unwrap();
        assert_eq!(back.payload.kind(), "schedule");
        let tree = serde_json::to_string(&sched.to_value()).unwrap();
        assert_eq!(sched.to_json(), tree);

        let sweep = Certificate::new(
            tiny_base(),
            Payload::Sweep(SweepPayload {
                r: 1,
                policy: "lru".into(),
                ms: vec![2, 4],
                feasible: vec![false, true],
                loads: vec![0, 2],
                stores: vec![0, 1],
                computes: vec![0, 3],
            }),
        );
        let back: Certificate = serde_json::from_str(&sweep.to_json()).unwrap();
        assert_eq!(back.payload.kind(), "sweep");
        let tree = serde_json::to_string(&sweep.to_value()).unwrap();
        assert_eq!(sweep.to_json(), tree);
    }

    #[test]
    fn unknown_kind_rejected() {
        let mut cert_json = Certificate::new(
            tiny_base(),
            Payload::Sweep(SweepPayload {
                r: 1,
                policy: "lru".into(),
                ms: vec![],
                feasible: vec![],
                loads: vec![],
                stores: vec![],
                computes: vec![],
            }),
        )
        .to_json();
        cert_json = cert_json.replace("\"sweep\"", "\"oracle\"");
        assert!(serde_json::from_str::<Certificate>(&cert_json).is_err());
    }

    #[test]
    fn peek_version_reads_envelope_only() {
        let v: Value = serde_json::from_str(r#"{"version": 7, "junk": []}"#).unwrap();
        assert_eq!(peek_version(&v), Some(7));
        let v: Value = serde_json::from_str(r#"{"nope": 1}"#).unwrap();
        assert_eq!(peek_version(&v), None);
    }
}
