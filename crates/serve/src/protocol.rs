//! The NDJSON wire protocol: one request object per line in, one response
//! object per line out.
//!
//! Requests name a registry algorithm (never a filesystem path — the
//! server does not open client-controlled files) and an operation:
//!
//! ```text
//! {"id":1,"op":"certify","algo":"strassen","r":3,"m":64}
//! {"id":2,"op":"analyze","algo":"strassen","r":2,"deadline_ms":2000}
//! {"id":3,"op":"sweep","algo":"strassen","r":2,"ms":[8,16,32]}
//! {"id":4,"op":"routing_cert","algo":"strassen","k":1,"r":3}
//! {"id":5,"op":"stats"}
//! {"id":6,"op":"shutdown"}
//! ```
//!
//! Responses carry a status, the payload on success, and a stable
//! `MMIO-Fxxx` diagnostic code on every typed failure:
//!
//! ```text
//! {"id":1,"status":"ok","cached":false,"payload":"..."}
//! {"id":1,"status":"overloaded","code":"MMIO-F008","error":"..."}
//! ```
//!
//! The `payload` of a successful `certify`/`analyze`/`routing_cert`
//! response is **byte-identical** to the corresponding batch CLI output
//! (`mmio certify`, `mmio analyze <algo> <r> --json`, the `cert emit`
//! routing certificate) — both sides render through [`crate::ops`], and
//! the fault harness enforces the equality under concurrent fault
//! campaigns. Parsing never panics on malformed input: every defect is
//! a [`ParseError`] that the server turns into a `bad_request` response.

use serde::Value;

/// A parsed request line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Per-request deadline override in milliseconds.
    pub deadline_ms: Option<u64>,
    /// The operation.
    pub op: Op,
}

/// The operations the service executes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Theorem 1 certification — payload is the batch `mmio certify` text.
    Certify {
        /// Registry algorithm name.
        algo: String,
        /// Recursion depth.
        r: u32,
        /// Cache size.
        m: u64,
    },
    /// Static analysis — payload is the batch `mmio analyze <algo> <r>
    /// --json` text.
    Analyze {
        /// Registry algorithm name.
        algo: String,
        /// Recursion depth.
        r: u32,
    },
    /// Pebble-scheduler sweep over an `M` grid — payload is the sweep's
    /// JSON table.
    Sweep {
        /// Registry algorithm name.
        algo: String,
        /// Recursion depth.
        r: u32,
        /// Cache sizes to sweep.
        ms: Vec<usize>,
    },
    /// Proof-carrying routing certificate (Theorem 2 + Fact-1 transport)
    /// — payload is the certificate JSON `mmio cert emit` writes.
    RoutingCert {
        /// Registry algorithm name.
        algo: String,
        /// Class depth.
        k: u32,
        /// Transport depth (`k ≤ r`).
        r: u32,
    },
    /// Server counters (never cached).
    Stats,
    /// Graceful shutdown.
    Shutdown,
}

impl Op {
    /// Short operation name (cache entry `kind`, wedge-hook tag).
    pub fn kind(&self) -> &'static str {
        match self {
            Op::Certify { .. } => "certify",
            Op::Analyze { .. } => "analyze",
            Op::Sweep { .. } => "sweep",
            Op::RoutingCert { .. } => "routing_cert",
            Op::Stats => "stats",
            Op::Shutdown => "shutdown",
        }
    }
}

/// A response line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// The request's correlation id (0 when the line was too malformed to
    /// carry one).
    pub id: u64,
    /// Outcome.
    pub status: Status,
    /// Whether the payload came from the memo tier.
    pub cached: bool,
    /// Operation output (present iff `status == Ok`).
    pub payload: Option<String>,
    /// Stable diagnostic code for typed failures.
    pub code: Option<&'static str>,
    /// Human-readable failure detail.
    pub error: Option<String>,
}

/// Response status.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// Success; `payload` holds the result.
    Ok,
    /// The request line failed to parse or validate.
    BadRequest,
    /// The bounded queue was full; the request was shed, not executed.
    Overloaded,
    /// The per-request deadline expired before a result was produced.
    DeadlineExceeded,
    /// The job panicked; the panic was isolated to the job.
    Panicked,
    /// Any other typed failure.
    Error,
}

impl Status {
    /// Wire name.
    pub fn as_str(&self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::BadRequest => "bad_request",
            Status::Overloaded => "overloaded",
            Status::DeadlineExceeded => "deadline_exceeded",
            Status::Panicked => "panicked",
            Status::Error => "error",
        }
    }
}

impl Response {
    /// A success response.
    pub fn ok(id: u64, cached: bool, payload: String) -> Response {
        Response {
            id,
            status: Status::Ok,
            cached,
            payload: Some(payload),
            code: None,
            error: None,
        }
    }

    /// A typed failure response.
    pub fn fail(id: u64, status: Status, code: &'static str, error: String) -> Response {
        Response {
            id,
            status,
            cached: false,
            payload: None,
            code: Some(code),
            error: Some(error),
        }
    }

    /// Renders the response as one NDJSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut fields = vec![
            ("id".to_string(), Value::UInt(self.id)),
            (
                "status".to_string(),
                Value::Str(self.status.as_str().to_string()),
            ),
            ("cached".to_string(), Value::Bool(self.cached)),
        ];
        if let Some(p) = &self.payload {
            fields.push(("payload".to_string(), Value::Str(p.clone())));
        }
        if let Some(c) = self.code {
            fields.push(("code".to_string(), Value::Str(c.to_string())));
        }
        if let Some(e) = &self.error {
            fields.push(("error".to_string(), Value::Str(e.clone())));
        }
        serde_json::to_string(&Value::Object(fields)).unwrap_or_else(|e| {
            // A response that cannot render must still answer: degrade
            // to a minimal hand-built error line instead of panicking
            // the protocol layer.
            format!(
                "{{\"id\":{},\"status\":\"error\",\"error\":\"response render failed: {}\"}}",
                self.id,
                e.to_string().replace(['"', '\\'], "?")
            )
        })
    }

    /// Parses a response line (used by clients and the harness).
    pub fn from_line(line: &str) -> Result<Response, ParseError> {
        let v: Value = serde_json::from_str(line).map_err(|e| ParseError(e.to_string()))?;
        let id = get_u64(&v, "id")?;
        let status = match get_str(&v, "status")?.as_str() {
            "ok" => Status::Ok,
            "bad_request" => Status::BadRequest,
            "overloaded" => Status::Overloaded,
            "deadline_exceeded" => Status::DeadlineExceeded,
            "panicked" => Status::Panicked,
            "error" => Status::Error,
            other => return Err(ParseError(format!("unknown status {other:?}"))),
        };
        let cached = matches!(v.get("cached"), Some(&Value::Bool(true)));
        let payload = opt_str(&v, "payload")?;
        let code = match opt_str(&v, "code")? {
            None => None,
            Some(c) => Some(
                crate::codes::ALL
                    .iter()
                    .copied()
                    .find(|k| *k == c)
                    .ok_or_else(|| ParseError(format!("unknown code {c:?}")))?,
            ),
        };
        let error = opt_str(&v, "error")?;
        Ok(Response {
            id,
            status,
            cached,
            payload,
            code,
            error,
        })
    }
}

/// Why a request line was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParseError {}

fn get_u64(v: &Value, key: &str) -> Result<u64, ParseError> {
    match v.get(key) {
        Some(&Value::UInt(u)) => Ok(u),
        Some(&Value::Int(i)) if i >= 0 => Ok(i as u64),
        Some(other) => Err(ParseError(format!(
            "field {key:?}: expected non-negative integer, got {}",
            other.kind()
        ))),
        None => Err(ParseError(format!("missing field {key:?}"))),
    }
}

fn get_u32(v: &Value, key: &str) -> Result<u32, ParseError> {
    let u = get_u64(v, key)?;
    u32::try_from(u).map_err(|_| ParseError(format!("field {key:?}: {u} exceeds u32")))
}

fn get_str(v: &Value, key: &str) -> Result<String, ParseError> {
    match v.get(key) {
        Some(Value::Str(s)) => Ok(s.clone()),
        Some(other) => Err(ParseError(format!(
            "field {key:?}: expected string, got {}",
            other.kind()
        ))),
        None => Err(ParseError(format!("missing field {key:?}"))),
    }
}

fn opt_str(v: &Value, key: &str) -> Result<Option<String>, ParseError> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s.clone())),
        Some(other) => Err(ParseError(format!(
            "field {key:?}: expected string, got {}",
            other.kind()
        ))),
    }
}

fn opt_u64(v: &Value, key: &str) -> Result<Option<u64>, ParseError> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(_) => get_u64(v, key).map(Some),
    }
}

impl Request {
    /// Parses one request line. Never panics: every malformed shape —
    /// non-JSON, wrong field types, unknown ops, oversized numbers —
    /// is a [`ParseError`].
    pub fn from_line(line: &str) -> Result<Request, ParseError> {
        Request::parse(line).map_err(|(_, e)| e)
    }

    /// [`Request::from_line`], with a failure paired with the request's
    /// own `id`: the id of an object that carries a valid one, else 0. A
    /// client that pipelines requests can then tell which one failed.
    pub fn parse(line: &str) -> Result<Request, (u64, ParseError)> {
        let v: Value = serde_json::from_str(line).map_err(|e| (0, ParseError(e.to_string())))?;
        if !matches!(v, Value::Object(_)) {
            return Err((
                0,
                ParseError(format!("request must be an object, got {}", v.kind())),
            ));
        }
        let id = get_u64(&v, "id").map_err(|e| (0, e))?;
        Request::with_id(&v, id).map_err(|e| (id, e))
    }

    /// The fields of a request object after its `id`.
    fn with_id(v: &Value, id: u64) -> Result<Request, ParseError> {
        let deadline_ms = opt_u64(v, "deadline_ms")?;
        let op = match get_str(v, "op")?.as_str() {
            "certify" => Op::Certify {
                algo: get_str(v, "algo")?,
                r: get_u32(v, "r")?,
                m: get_u64(v, "m")?,
            },
            "analyze" => Op::Analyze {
                algo: get_str(v, "algo")?,
                r: get_u32(v, "r")?,
            },
            "sweep" => {
                let ms = match v.get("ms") {
                    Some(Value::Array(items)) => {
                        let mut out = Vec::with_capacity(items.len());
                        for item in items {
                            match item {
                                &Value::UInt(u) => out.push(u as usize),
                                &Value::Int(i) if i >= 0 => out.push(i as usize),
                                other => {
                                    return Err(ParseError(format!(
                                        "field \"ms\": expected non-negative integers, got {}",
                                        other.kind()
                                    )))
                                }
                            }
                        }
                        out
                    }
                    Some(other) => {
                        return Err(ParseError(format!(
                            "field \"ms\": expected array, got {}",
                            other.kind()
                        )))
                    }
                    None => return Err(ParseError("missing field \"ms\"".to_string())),
                };
                if ms.is_empty() || ms.len() > MAX_SWEEP_POINTS {
                    return Err(ParseError(format!(
                        "field \"ms\": between 1 and {MAX_SWEEP_POINTS} grid points required"
                    )));
                }
                Op::Sweep {
                    algo: get_str(v, "algo")?,
                    r: get_u32(v, "r")?,
                    ms,
                }
            }
            "routing_cert" => {
                let k = get_u32(v, "k")?;
                let r = get_u32(v, "r")?;
                if k == 0 {
                    return Err(ParseError("routing_cert requires k ≥ 1".to_string()));
                }
                if k > r {
                    return Err(ParseError(format!(
                        "routing_cert requires k ≤ r ({k} > {r})"
                    )));
                }
                Op::RoutingCert {
                    algo: get_str(v, "algo")?,
                    k,
                    r,
                }
            }
            "stats" => Op::Stats,
            "shutdown" => Op::Shutdown,
            other => return Err(ParseError(format!("unknown op {other:?}"))),
        };
        Ok(Request {
            id,
            deadline_ms,
            op,
        })
    }

    /// Renders the request as one NDJSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut fields = vec![("id".to_string(), Value::UInt(self.id))];
        if let Some(d) = self.deadline_ms {
            fields.push(("deadline_ms".to_string(), Value::UInt(d)));
        }
        fields.push(("op".to_string(), Value::Str(self.op.kind().to_string())));
        match &self.op {
            Op::Certify { algo, r, m } => {
                fields.push(("algo".to_string(), Value::Str(algo.clone())));
                fields.push(("r".to_string(), Value::UInt(u64::from(*r))));
                fields.push(("m".to_string(), Value::UInt(*m)));
            }
            Op::Analyze { algo, r } => {
                fields.push(("algo".to_string(), Value::Str(algo.clone())));
                fields.push(("r".to_string(), Value::UInt(u64::from(*r))));
            }
            Op::Sweep { algo, r, ms } => {
                fields.push(("algo".to_string(), Value::Str(algo.clone())));
                fields.push(("r".to_string(), Value::UInt(u64::from(*r))));
                fields.push((
                    "ms".to_string(),
                    Value::Array(ms.iter().map(|&m| Value::UInt(m as u64)).collect()),
                ));
            }
            Op::RoutingCert { algo, k, r } => {
                fields.push(("algo".to_string(), Value::Str(algo.clone())));
                fields.push(("k".to_string(), Value::UInt(u64::from(*k))));
                fields.push(("r".to_string(), Value::UInt(u64::from(*r))));
            }
            Op::Stats | Op::Shutdown => {}
        }
        serde_json::to_string(&Value::Object(fields)).expect("request serializes")
    }
}

/// DoS ceiling on sweep grids accepted over the wire.
pub const MAX_SWEEP_POINTS: usize = 64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let cases = [
            Request {
                id: 1,
                deadline_ms: Some(250),
                op: Op::Certify {
                    algo: "strassen".into(),
                    r: 3,
                    m: 64,
                },
            },
            Request {
                id: 2,
                deadline_ms: None,
                op: Op::Analyze {
                    algo: "winograd".into(),
                    r: 2,
                },
            },
            Request {
                id: 3,
                deadline_ms: None,
                op: Op::Sweep {
                    algo: "strassen".into(),
                    r: 2,
                    ms: vec![8, 16],
                },
            },
            Request {
                id: 4,
                deadline_ms: None,
                op: Op::RoutingCert {
                    algo: "laderman".into(),
                    k: 1,
                    r: 2,
                },
            },
            Request {
                id: 5,
                deadline_ms: None,
                op: Op::Stats,
            },
        ];
        for req in cases {
            let line = req.to_line();
            assert_eq!(Request::from_line(&line).unwrap(), req, "{line}");
        }
    }

    #[test]
    fn malformed_requests_are_typed_errors_not_panics() {
        for bad in [
            "",
            "not json",
            "[]",
            "{}",
            r#"{"id":"x","op":"stats"}"#,
            r#"{"id":1}"#,
            r#"{"id":1,"op":"frobnicate"}"#,
            r#"{"id":1,"op":"certify","algo":"strassen","r":-1,"m":4}"#,
            r#"{"id":1,"op":"certify","algo":"strassen","r":99999999999,"m":4}"#,
            r#"{"id":1,"op":"sweep","algo":"strassen","r":1,"ms":[]}"#,
            r#"{"id":1,"op":"sweep","algo":"strassen","r":1,"ms":"all"}"#,
            r#"{"id":1,"op":"routing_cert","algo":"strassen","k":3,"r":1}"#,
            r#"{"id":1,"op":"routing_cert","algo":"strassen","k":0,"r":1}"#,
        ] {
            assert!(Request::from_line(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn response_roundtrip() {
        let ok = Response::ok(7, true, "payload\nline2\n".to_string());
        assert_eq!(Response::from_line(&ok.to_line()).unwrap(), ok);
        let fail = Response::fail(
            8,
            Status::Overloaded,
            crate::codes::SERVE_OVERLOADED,
            "queue full (cap 4)".to_string(),
        );
        assert_eq!(Response::from_line(&fail.to_line()).unwrap(), fail);
    }

    #[test]
    fn response_lines_are_single_line() {
        let ok = Response::ok(1, false, "a\nb\nc\n".to_string());
        assert!(
            !ok.to_line().contains('\n'),
            "payload newlines must be escaped"
        );
    }

    #[test]
    fn hostile_strings_still_render_one_parseable_line() {
        // The wire-encode trust path must answer for any content the
        // ops layer hands it — quotes, backslashes, control bytes, and
        // invalid-UTF-16 escapes included.
        for hostile in [
            "quote \" backslash \\ done",
            "control \u{0000}\u{0001}\u{001f} bytes",
            "unicode \u{2014} and emoji \u{1F980}",
            "{\"looks\":\"like json\"}",
        ] {
            let resp = Response::fail(
                9,
                Status::Error,
                crate::codes::SERVE_JOB_PANIC,
                hostile.to_string(),
            );
            let line = resp.to_line();
            assert!(!line.contains('\n'), "{hostile:?} leaked a newline");
            let back = Response::from_line(&line)
                .unwrap_or_else(|e| panic!("{hostile:?}: line unparseable: {e}"));
            assert_eq!(back.error.as_deref(), Some(hostile));
        }
    }
}
