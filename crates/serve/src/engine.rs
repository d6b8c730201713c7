//! The certification engine: a bounded job queue in front of panic-isolated
//! workers, with the sharded disk memo tier in the hot path.
//!
//! One request flows: [`Engine::submit`] → admission (typed
//! [`crate::codes::SERVE_OVERLOADED`] shed when the queue is full) → a
//! worker pops it, checks the memo tier, recomputes on a miss, persists,
//! replies → the submitter, which has been waiting with a deadline,
//! returns the response. Every failure mode along that path — malformed
//! request, panicking job, expired deadline, wedged worker, corrupt or
//! unwritable cache — comes back as a *typed response with a stable
//! `MMIO-Fxxx` code*; the engine itself never panics and never hangs.
//!
//! Cached `routing_cert` payloads get one extra layer beyond the checksum:
//! they are re-verified through the standalone `mmio-cert` verifier before
//! being served ([`crate::codes::SERVE_PAYLOAD_REVERIFY`] quarantine on
//! failure). A snapshot that is well-formed but *wrong* — the checksum
//! matches bytes that never came from this engine — is still never served.

use crate::cache::{CacheKey, DiskCache, RecoveryReport};
use crate::codes;
use crate::faults::FaultHook;
use crate::ops;
use crate::protocol::{Op, Request, Response, Status};
use crate::queue::{JobQueue, JobToken, PushError, WorkerSet};
use mmio_parallel::Pool;
use serde::Value;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Engine tuning knobs.
pub struct EngineConfig {
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Bounded queue capacity; pushes beyond it shed with
    /// [`codes::SERVE_OVERLOADED`].
    pub queue_cap: usize,
    /// Hard ceiling on worker spawns (initial + wedge replacements).
    pub max_spawns: usize,
    /// Deadline applied when a request carries none.
    pub default_deadline: Duration,
    /// Memo tier root; `None` runs memo-less (every request recomputes).
    pub cache_dir: Option<PathBuf>,
    /// Threads for the compute pool each job runs on.
    pub pool_threads: usize,
}

impl EngineConfig {
    /// Conservative defaults: 2 workers, queue of 32, serial compute pool,
    /// 30 s deadline, memo-less.
    pub fn small() -> EngineConfig {
        EngineConfig {
            workers: 2,
            queue_cap: 32,
            max_spawns: 8,
            default_deadline: Duration::from_secs(30),
            cache_dir: None,
            pool_threads: 1,
        }
    }
}

/// One queued job: the parsed request plus the submitter's reply channel
/// and the shared lifecycle token.
struct Job {
    req: Request,
    token: Arc<JobToken>,
    reply: mpsc::Sender<Response>,
}

/// Monotonic engine counters, surfaced by `stats` requests.
#[derive(Debug, Default)]
pub struct EngineCounters {
    /// Requests admitted and completed with any status.
    pub completed: AtomicU64,
    /// Requests shed because the queue was full.
    pub shed: AtomicU64,
    /// Jobs that panicked (isolated, typed response).
    pub panics: AtomicU64,
    /// Requests whose deadline expired.
    pub deadlines: AtomicU64,
    /// Cached payloads that failed semantic re-verification.
    pub reverify_failures: AtomicU64,
}

/// The engine. All methods are `&self`; one instance serves every
/// connection.
pub struct Engine {
    queue: Arc<JobQueue<Job>>,
    workers: WorkerSet<Job>,
    shared: Arc<Shared>,
    default_deadline: Duration,
}

/// State shared between the submitter side and the worker side.
struct Shared {
    cache: Option<DiskCache>,
    pool: Pool,
    hook: Arc<dyn FaultHook>,
    counters: EngineCounters,
}

impl Engine {
    /// Starts the engine: opens (and recovery-scans) the memo tier if
    /// configured, then spawns the workers. The [`RecoveryReport`] is
    /// empty when running memo-less.
    pub fn start(
        cfg: EngineConfig,
        hook: Arc<dyn FaultHook>,
    ) -> std::io::Result<(Engine, RecoveryReport)> {
        let (cache, report) = match &cfg.cache_dir {
            Some(dir) => {
                let (c, r) = DiskCache::open(dir.clone(), Arc::clone(&hook))?;
                (Some(c), r)
            }
            None => (
                None,
                RecoveryReport {
                    valid: 0,
                    quarantined: Vec::new(),
                    orphans_swept: 0,
                },
            ),
        };
        let shared = Arc::new(Shared {
            cache,
            pool: Pool::new(cfg.pool_threads),
            hook,
            counters: EngineCounters::default(),
        });
        let queue = Arc::new(JobQueue::new(cfg.queue_cap));
        let worker_shared = Arc::clone(&shared);
        let workers = WorkerSet::start(
            Arc::clone(&queue),
            cfg.workers,
            cfg.max_spawns,
            move |job: Job| run_job(&worker_shared, job),
        );
        Ok((
            Engine {
                queue,
                workers,
                shared,
                default_deadline: cfg.default_deadline,
            },
            report,
        ))
    }

    /// Handles one raw request line end-to-end: parse, admit, wait.
    /// Always returns exactly one response — the NDJSON contract — and
    /// whether the line was a well-formed `shutdown` request, so the
    /// connection loop never parses a line twice.
    pub fn handle_line(&self, line: &str) -> (Response, bool) {
        match Request::parse(line) {
            Ok(req) => {
                let shutdown = req.op == Op::Shutdown;
                (self.submit(req), shutdown)
            }
            Err((id, e)) => (
                Response::fail(
                    id,
                    Status::BadRequest,
                    codes::SERVE_BAD_REQUEST,
                    e.to_string(),
                ),
                false,
            ),
        }
    }

    /// Submits a parsed request and waits (bounded by its deadline) for
    /// the response.
    pub fn submit(&self, req: Request) -> Response {
        let id = req.id;
        // Stats is answered inline: it must work even when the queue is
        // saturated — that is precisely when an operator needs it.
        if req.op == Op::Stats {
            return Response::ok(id, false, self.stats_payload());
        }
        let deadline = req
            .deadline_ms
            .map(Duration::from_millis)
            .unwrap_or(self.default_deadline);
        let token = Arc::new(JobToken::default());
        let (tx, rx) = mpsc::channel();
        let job = Job {
            req,
            token: Arc::clone(&token),
            reply: tx,
        };
        if let Err(err) = self.queue.try_push(job) {
            self.shared.counters.shed.fetch_add(1, Ordering::Relaxed);
            let detail = match err {
                PushError::Full(_) => format!("queue full (cap {})", self.queue.cap()),
                PushError::Closed(_) => "server is shutting down".to_string(),
            };
            return Response::fail(id, Status::Overloaded, codes::SERVE_OVERLOADED, detail);
        }
        match rx.recv_timeout(deadline) {
            Ok(resp) => {
                self.shared
                    .counters
                    .completed
                    .fetch_add(1, Ordering::Relaxed);
                resp
            }
            Err(_) => {
                // Deadline expired (or the worker died mid-job, which
                // disconnects the channel — same contract: typed reply).
                token.abandoned.store(true, Ordering::SeqCst);
                self.shared
                    .counters
                    .deadlines
                    .fetch_add(1, Ordering::Relaxed);
                let started = token.started.load(Ordering::SeqCst);
                let done = token.done.load(Ordering::SeqCst);
                let mut detail = format!(
                    "no result within {} ms (job {})",
                    deadline.as_millis(),
                    if !started {
                        "still queued"
                    } else if done {
                        "finished just too late"
                    } else {
                        "wedged"
                    }
                );
                if started && !done && self.workers.replace_wedged() {
                    // Name the replacement's own diagnostic code so log
                    // scrapers can count replacements separately from
                    // plain deadline misses.
                    detail.push_str("; wedged worker replaced (");
                    detail.push_str(codes::SERVE_WORKER_REPLACED);
                    detail.push(')');
                }
                Response::fail(id, Status::DeadlineExceeded, codes::SERVE_DEADLINE, detail)
            }
        }
    }

    /// The `stats` payload: engine + cache counters and drained cache
    /// diagnostics, as pretty JSON.
    fn stats_payload(&self) -> String {
        let c = &self.shared.counters;
        let mut fields = vec![
            (
                "completed".to_string(),
                Value::UInt(c.completed.load(Ordering::Relaxed)),
            ),
            (
                "shed".to_string(),
                Value::UInt(c.shed.load(Ordering::Relaxed)),
            ),
            (
                "panics".to_string(),
                Value::UInt(c.panics.load(Ordering::Relaxed)),
            ),
            (
                "deadlines".to_string(),
                Value::UInt(c.deadlines.load(Ordering::Relaxed)),
            ),
            (
                "reverify_failures".to_string(),
                Value::UInt(c.reverify_failures.load(Ordering::Relaxed)),
            ),
            (
                "workers_live".to_string(),
                Value::UInt(self.workers.live() as u64),
            ),
            (
                "workers_spawned".to_string(),
                Value::UInt(self.workers.total_spawned() as u64),
            ),
            (
                "worker_replacements".to_string(),
                Value::UInt(self.workers.replacements.load(Ordering::Relaxed)),
            ),
            (
                "queue_depth".to_string(),
                Value::UInt(self.queue.len() as u64),
            ),
        ];
        if let Some(cache) = &self.shared.cache {
            let cc = &cache.counters;
            for (name, v) in [
                ("cache_hits", cc.hits.load(Ordering::Relaxed)),
                ("cache_misses", cc.misses.load(Ordering::Relaxed)),
                ("cache_quarantined", cc.quarantined.load(Ordering::Relaxed)),
                ("cache_retries", cc.retries.load(Ordering::Relaxed)),
                ("cache_degraded", cc.degraded.load(Ordering::Relaxed)),
            ] {
                fields.push((name.to_string(), Value::UInt(v)));
            }
            let diags: Vec<Value> = cache
                .take_diags()
                .into_iter()
                .map(|d| {
                    Value::Object(vec![
                        ("code".to_string(), Value::Str(d.code.to_string())),
                        ("detail".to_string(), Value::Str(d.detail)),
                    ])
                })
                .collect();
            fields.push(("cache_diags".to_string(), Value::Array(diags)));
        }
        let body = serde_json::to_string_pretty(&Value::Object(fields)).unwrap_or_else(|e| {
            // Stats are advisory; a render failure degrades to a typed
            // error object rather than panicking the request path.
            format!(
                "{{\"error\":\"stats render failed: {}\"}}",
                e.to_string().replace(['"', '\\'], "?")
            )
        });
        format!("{body}\n")
    }

    /// Engine counters (tests and the harness read these directly).
    pub fn counters(&self) -> &EngineCounters {
        &self.shared.counters
    }

    /// The memo tier, if one is configured.
    pub fn cache(&self) -> Option<&DiskCache> {
        self.shared.cache.as_ref()
    }

    /// Wedge replacements performed so far.
    pub fn worker_replacements(&self) -> u64 {
        self.workers.replacements.load(Ordering::Relaxed)
    }

    /// Graceful shutdown: close the queue (pending jobs still drain) and
    /// wait up to `grace` for workers to exit. Returns whether the set
    /// fully drained — `false` means a wedged worker is still out there
    /// (it holds no locks anyone waits on, so exiting anyway is safe).
    pub fn shutdown(&self, grace: Duration) -> bool {
        self.queue.close();
        let deadline = Instant::now() + grace;
        while self.workers.live() != 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        self.workers.live() == 0
    }
}

/// The cache identity of a cacheable op. `Stats`/`Shutdown` are `None`.
fn cache_key(op: &Op) -> Option<CacheKey> {
    match op {
        Op::Certify { algo, r, m } => Some(CacheKey {
            kind: "certify",
            algo: algo.clone(),
            k: *r,
            extra: format!("m={m}"),
        }),
        Op::Analyze { algo, r } => Some(CacheKey {
            kind: "analyze",
            algo: algo.clone(),
            k: *r,
            extra: String::new(),
        }),
        Op::Sweep { algo, r, ms } => Some(CacheKey {
            kind: "sweep",
            algo: algo.clone(),
            k: *r,
            extra: format!(
                "ms={}",
                ms.iter()
                    .map(|m| m.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        }),
        Op::RoutingCert { algo, k, r } => Some(CacheKey {
            kind: "routing_cert",
            algo: algo.clone(),
            k: *k,
            extra: format!("r={r}"),
        }),
        Op::Stats | Op::Shutdown => None,
    }
}

/// Executes one job on a worker thread. Panic isolation, wedge simulation,
/// memo lookup, recompute, persist, reply — all here.
fn run_job(shared: &Shared, job: Job) {
    // The submitter already gave up: executing would be wasted work and
    // the reply would go nowhere.
    if job.token.abandoned.load(Ordering::SeqCst) {
        return;
    }
    job.token.started.store(true, Ordering::SeqCst);
    // Injected wedge: the fault harness uses this to exercise the
    // deadline + worker-replacement path deterministically.
    if let Some(dur) = shared.hook.wedge(job.req.op.kind()) {
        std::thread::sleep(dur);
    }
    let id = job.req.id;
    let op = job.req.op.clone();
    let inject_panic = shared.hook.panic_job(op.kind());
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if inject_panic {
            panic!("injected job panic ({})", op.kind());
        }
        execute(shared, id, &op)
    }));
    job.token.done.store(true, Ordering::SeqCst);
    let resp = outcome.unwrap_or_else(|payload| {
        shared.counters.panics.fetch_add(1, Ordering::Relaxed);
        let msg = panic_message(payload.as_ref());
        Response::fail(
            id,
            Status::Panicked,
            codes::SERVE_JOB_PANIC,
            format!("job panicked: {msg}"),
        )
    });
    // A disconnected receiver just means the submitter timed out; the
    // typed deadline response already went out.
    let _ = job.reply.send(resp);
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// Computes one op, consulting and feeding the memo tier.
fn execute(shared: &Shared, id: u64, op: &Op) -> Response {
    if *op == Op::Shutdown {
        return Response::ok(id, false, "shutting down\n".to_string());
    }
    let key = cache_key(op).expect("stats handled inline, shutdown above");
    if let Some(cache) = &shared.cache {
        if let Some(payload) = cache.get(&key) {
            // Defense in depth for proof-carrying payloads: the checksum
            // says "these bytes are what was written"; the verifier says
            // "these bytes are a valid certificate". Both must hold.
            if key.kind == "routing_cert" && !mmio_cert::verify_json(&payload).accepted {
                shared
                    .counters
                    .reverify_failures
                    .fetch_add(1, Ordering::Relaxed);
                cache.quarantine_key(
                    &key,
                    codes::SERVE_PAYLOAD_REVERIFY,
                    format!(
                        "cached routing certificate for ({}, k={}) failed re-verification",
                        key.algo, key.k
                    ),
                );
            } else {
                return Response::ok(id, true, payload);
            }
        }
    }
    let payload = match compute(shared, op) {
        Ok(p) => p,
        Err(resp) => return respond_err(id, resp),
    };
    if let Some(cache) = &shared.cache {
        cache.put(&key, &payload);
    }
    Response::ok(id, false, payload)
}

/// A typed compute failure: status, code, detail.
struct ComputeError {
    status: Status,
    code: &'static str,
    detail: String,
}

fn respond_err(id: u64, e: ComputeError) -> Response {
    Response::fail(id, e.status, e.code, e.detail)
}

/// Runs the actual operation through [`crate::ops`] — the same functions
/// the batch CLI prints, so payloads are byte-identical by construction.
fn compute(shared: &Shared, op: &Op) -> Result<String, ComputeError> {
    let bad = |detail: String| ComputeError {
        status: Status::BadRequest,
        code: codes::SERVE_BAD_REQUEST,
        detail,
    };
    // Resolves the registry algorithm and rejects a depth whose `G_r`
    // exceeds u32 vertex ids, as the CLI does.
    let resolve = |algo: &str, r: u32| {
        let base = ops::resolve_registry(algo)
            .ok_or_else(|| bad(format!("unknown algorithm {algo:?} (registry names only)")))?;
        ops::check_depth(&base, r).map_err(bad)?;
        Ok(base)
    };
    match op {
        Op::Certify { algo, r, m } => {
            let base = resolve(algo, *r)?;
            Ok(ops::certify_text(
                &base,
                *r,
                *m,
                ops::ViewMode::Auto,
                &shared.pool,
            ))
        }
        Op::Analyze { algo, r } => {
            let base = resolve(algo, *r)?;
            Ok(ops::analyze_json(&base, *r).0)
        }
        Op::Sweep { algo, r, ms } => {
            let base = resolve(algo, *r)?;
            Ok(ops::sweep_json(&base, *r, ms, &shared.pool))
        }
        Op::RoutingCert { algo, k, r } => {
            // `k ≤ r` (checked at parse time), so `G_k` fits when `G_r` does.
            let base = resolve(algo, *r)?;
            ops::routing_cert_json(&base, *k, *r, &shared.pool).ok_or_else(|| ComputeError {
                status: Status::Error,
                code: codes::SERVE_BAD_REQUEST,
                detail: format!(
                    "{algo} admits no n₀-capacity Hall matching (Routing Theorem hypotheses fail)"
                ),
            })
        }
        Op::Stats | Op::Shutdown => unreachable!("handled before compute"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::NoFaults;

    fn engine(cache_dir: Option<PathBuf>) -> Engine {
        let cfg = EngineConfig {
            cache_dir,
            ..EngineConfig::small()
        };
        Engine::start(cfg, Arc::new(NoFaults)).unwrap().0
    }

    fn certify_req(id: u64) -> Request {
        Request {
            id,
            deadline_ms: None,
            op: Op::Certify {
                algo: "strassen".into(),
                r: 2,
                m: 49,
            },
        }
    }

    #[test]
    fn memoless_engine_serves_batch_identical_payloads() {
        let e = engine(None);
        let resp = e.submit(certify_req(1));
        assert_eq!(resp.status, Status::Ok, "{resp:?}");
        assert!(!resp.cached);
        let expect = ops::certify_text(
            &ops::resolve_registry("strassen").unwrap(),
            2,
            49,
            ops::ViewMode::Auto,
            &Pool::serial(),
        );
        assert_eq!(resp.payload.as_deref(), Some(expect.as_str()));
        assert!(e.shutdown(Duration::from_secs(5)));
    }

    #[test]
    fn warm_hits_are_byte_identical_and_marked_cached() {
        let dir = std::env::temp_dir().join(format!("mmio_engine_warm_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let e = engine(Some(dir.clone()));
        let cold = e.submit(certify_req(1));
        let warm = e.submit(certify_req(2));
        assert_eq!(cold.status, Status::Ok);
        assert_eq!(warm.status, Status::Ok);
        assert!(!cold.cached && warm.cached, "{cold:?} / {warm:?}");
        assert_eq!(cold.payload, warm.payload);
        assert!(e.shutdown(Duration::from_secs(5)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_algorithm_is_bad_request_not_panic() {
        let e = engine(None);
        let resp = e.submit(Request {
            id: 9,
            deadline_ms: None,
            op: Op::Analyze {
                algo: "no-such".into(),
                r: 1,
            },
        });
        assert_eq!(resp.status, Status::BadRequest);
        assert_eq!(resp.code, Some(codes::SERVE_BAD_REQUEST));
        assert!(e.shutdown(Duration::from_secs(5)));
    }

    #[test]
    fn too_deep_r_is_bad_request_not_panic() {
        let e = engine(None);
        let algo = || "strassen".to_string();
        let ops = [
            Op::Certify {
                algo: algo(),
                r: 40,
                m: 64,
            },
            Op::Analyze {
                algo: algo(),
                r: 40,
            },
            Op::Sweep {
                algo: algo(),
                r: 40,
                ms: vec![64],
            },
            Op::RoutingCert {
                algo: algo(),
                k: 1,
                r: 40,
            },
        ];
        for (id, op) in ops.into_iter().enumerate() {
            let kind = op.kind();
            let resp = e.submit(Request {
                id: id as u64,
                deadline_ms: None,
                op,
            });
            assert_eq!(resp.status, Status::BadRequest, "{kind}: {resp:?}");
            assert_eq!(resp.code, Some(codes::SERVE_BAD_REQUEST), "{kind}");
            assert_eq!(
                resp.error.as_deref(),
                Some("strassen: r = 40 is too deep (G_r exceeds u32 vertex ids)"),
                "{kind}"
            );
        }
        assert_eq!(e.counters().panics.load(Ordering::Relaxed), 0);
        assert!(e.shutdown(Duration::from_secs(5)));
    }

    #[test]
    fn routing_cert_with_k_zero_is_bad_request() {
        let e = engine(None);
        let (resp, shutdown) =
            e.handle_line(r#"{"id":3,"op":"routing_cert","algo":"strassen","k":0,"r":2}"#);
        assert!(!shutdown);
        assert_eq!(resp.status, Status::BadRequest, "{resp:?}");
        assert_eq!(resp.code, Some(codes::SERVE_BAD_REQUEST));
        assert!(e.shutdown(Duration::from_secs(5)));
    }

    #[test]
    fn malformed_line_is_typed_bad_request() {
        let e = engine(None);
        let (resp, shutdown) = e.handle_line("{\"id\":,}");
        assert!(!shutdown);
        assert_eq!(resp.status, Status::BadRequest);
        assert_eq!(resp.code, Some(codes::SERVE_BAD_REQUEST));
        assert!(e.shutdown(Duration::from_secs(5)));
    }

    #[test]
    fn validation_errors_echo_the_request_id() {
        let e = engine(None);
        for id in [5, 6, 7] {
            let line =
                format!(r#"{{"id":{id},"op":"routing_cert","algo":"strassen","k":0,"r":2}}"#);
            let (resp, _) = e.handle_line(&line);
            assert_eq!(resp.id, id, "{resp:?}");
            assert_eq!(resp.status, Status::BadRequest);
            assert_eq!(resp.code, Some(codes::SERVE_BAD_REQUEST));
        }
        // A bad field type and an empty grid keep the id; a line whose id
        // cannot be read is answered with id 0.
        for (line, id) in [
            (
                r#"{"id":8,"op":"certify","algo":"strassen","r":"2","m":4}"#,
                8,
            ),
            (
                r#"{"id":9,"op":"sweep","algo":"strassen","r":2,"ms":[]}"#,
                9,
            ),
            (r#"{"id":-1,"op":"stats"}"#, 0),
            (r#"[10]"#, 0),
        ] {
            let (resp, _) = e.handle_line(line);
            assert_eq!((resp.id, resp.status), (id, Status::BadRequest), "{line}");
        }
        assert!(e.shutdown(Duration::from_secs(5)));
    }

    #[test]
    fn stats_always_answers_inline() {
        let e = engine(None);
        let resp = e.submit(Request {
            id: 1,
            deadline_ms: Some(1),
            op: Op::Stats,
        });
        assert_eq!(resp.status, Status::Ok);
        assert!(resp.payload.unwrap().contains("\"completed\""));
        assert!(e.shutdown(Duration::from_secs(5)));
    }
}
