//! `serve_mix`: `mmio serve` in a child process of this binary, with the
//! CLI's defaults, driven over its Unix socket by two connections.
//!
//! Set-up warms 64 hot keys, shuts the server down and restarts it; the
//! restart, including the memo recovery scan, is `setup_s`. The measured
//! phase is a closed loop: each connection sends its next request when the
//! previous reply arrives. 90 % of requests are Zipf(1.0) over the hot keys,
//! whose hits come from the memo (routing certificates re-verified on every
//! hit); 10 % are keys never seen before, which compute and persist with
//! fsync.
//!
//! The closed loop keeps both cores busy and lets no queue grow, so its
//! latencies are the server's own work. Under an open loop the queue turns
//! a shared host's drift in speed into latency swings about twice as large
//! (p50 and p99 spreads of 0.13–0.22 across runs, against 0.07–0.10 closed).

use crate::certify::certify_traced;
use crate::stats::{median, Rng};
use crate::trace::Tracer;
use crate::{vmhwm_kb, E2e, Outcome, Run, SETUP_REPS};
use mmio_cdag::build::build_cdag;
use mmio_cdag::BaseGraph;
use mmio_core::transport::{emit_certificate, RoutingClass};
use mmio_parallel::Pool;
use mmio_pebble::orders::recursive_order;
use mmio_pebble::sweep::{sweep, PolicySpec};
use mmio_serve::cache::fnv64;
use mmio_serve::ops::{self, ViewMode};
use mmio_serve::{CacheKey, DiskCache, NoFaults, Op, Request, Response, Status};
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `tail_ms` is p99, taken over each 1000 consecutive requests of the
/// closed loop (ten samples beyond it) and reported as the median window:
/// the tail a client sees in a typical second, which one stall of the
/// shared disk's fsync does not decide alone.
const TAIL_P: f64 = 0.99;
const TAIL_WINDOW: usize = 1000;
/// Requests planned for the closed loop, which stops when its time is up.
const CLOSED_MAX: usize = 200_000;
/// Request ids of the closed loop start here.
const FIRST_ID: u64 = 1_000_000;
const HOT_KEYS: usize = 64;
const MISS_FRAC: f64 = 0.10;
/// The hot keys' popularity order is drawn anew every this many requests.
const EPOCH: usize = 250;
const ALGOS: [&str; 3] = ["strassen", "winograd", "strassen-nocopy"];

/// The cache identity the engine files a response under.
fn cache_key(op: &Op) -> CacheKey {
    let (kind, algo, k, extra) = match op {
        Op::Certify { algo, r, m } => ("certify", algo, *r, format!("m={m}")),
        Op::Analyze { algo, r } => ("analyze", algo, *r, String::new()),
        Op::Sweep { algo, r, ms } => {
            let ms: Vec<String> = ms.iter().map(|m| m.to_string()).collect();
            ("sweep", algo, *r, format!("ms={}", ms.join(",")))
        }
        Op::RoutingCert { algo, k, r } => ("routing_cert", algo, *k, format!("r={r}")),
        Op::Stats | Op::Shutdown => unreachable!("not cacheable"),
    };
    CacheKey {
        kind,
        algo: algo.clone(),
        k,
        extra,
    }
}

fn line(id: u64, op: &Op) -> String {
    Request {
        id,
        deadline_ms: None,
        op: op.clone(),
    }
    .to_line()
}

/// A certify at a seeded depth `r ≤ 4` and cache size below `max_m`.
fn certify_key(rng: &mut Rng, algo: String, max_m: u64) -> Op {
    Op::Certify {
        algo,
        r: rng.range(1, 5) as u32,
        m: rng.range(8, max_m),
    }
}

/// A sweep at a seeded depth `r ≤ 3` over three grid points below `max_m`.
fn sweep_key(rng: &mut Rng, algo: String, max_m: u64) -> Op {
    let mut ms: Vec<usize> = (0..3).map(|_| rng.range(2, max_m) as usize).collect();
    ms.sort_unstable();
    Op::Sweep {
        algo,
        r: rng.range(1, 4) as u32,
        ms,
    }
}

/// The hot keys: every analyze key (`r ≤ 2`) and every routing_cert key
/// (`k ≤ 2`, `k ≤ r ≤ 3`) over the three algorithms — all 6 and all 15 there
/// are — and certify (`r ≤ 4`) and sweep (`r ≤ 3`) keys in turn, at seeded
/// algorithms and sizes, to make 64. Every key is added to `used`.
pub fn hot_keys(seed: u64, used: &mut HashSet<String>) -> Vec<Op> {
    let mut keys = Vec::new();
    for algo in ALGOS.map(String::from) {
        keys.extend((1..=2).map(|r| Op::Analyze {
            algo: algo.clone(),
            r,
        }));
        for k in 1..=2 {
            keys.extend((k..=3).map(|r| Op::RoutingCert {
                algo: algo.clone(),
                k,
                r,
            }));
        }
    }
    used.extend(keys.iter().map(|op| line(0, op)));
    let mut rng = Rng::new(seed, 1);
    while keys.len() < HOT_KEYS {
        let algo = ALGOS[rng.range(0, ALGOS.len() as u64) as usize].to_string();
        let op = if keys.len() % 2 == 0 {
            certify_key(&mut rng, algo, 200)
        } else {
            sweep_key(&mut rng, algo, 200)
        };
        if used.insert(line(0, &op)) {
            keys.push(op);
        }
    }
    keys
}

/// A key not in `used` (and then added to it): half the time a certify at
/// a fresh M, half the time a sweep over a fresh grid.
fn fresh_key(rng: &mut Rng, used: &mut HashSet<String>) -> Op {
    loop {
        let algo = ALGOS[rng.range(0, ALGOS.len() as u64) as usize].to_string();
        let op = if rng.range(0, 2) == 0 {
            certify_key(rng, algo, 4096)
        } else {
            sweep_key(rng, algo, 4096)
        };
        if used.insert(line(0, &op)) {
            return op;
        }
    }
}

/// The closed loop's `n` requests: each one with probability `MISS_FRAC` a
/// never-seen key, otherwise a hot key drawn Zipf(1.0) — rank `j` with
/// weight `1/(j+1)` — over a popularity order that is a fresh shuffle of
/// the hot keys every `EPOCH` requests.
///
/// The memo keeps nothing in memory (every hit reads and checks its file),
/// so which key holds which rank changes the cost of a request but not of
/// the keys around it. One fixed order would make a run's cost rest on
/// which few keys drew the top ranks — a routing certificate at rank 0 is
/// a fifth of all hits; a run draws over a hundred orders instead.
pub fn plan(seed: u64, n: usize, hot: &[Op], used: &mut HashSet<String>) -> Vec<Op> {
    let mut rng = Rng::new(seed, 2);
    let cum: Vec<f64> = (0..hot.len())
        .scan(0.0, |acc, j| {
            *acc += 1.0 / (j + 1) as f64;
            Some(*acc)
        })
        .collect();
    let total = cum.last().copied().unwrap_or(1.0);
    let mut rank: Vec<usize> = (0..hot.len()).collect();
    (0..n)
        .map(|i| {
            if i % EPOCH == 0 {
                rng.shuffle(&mut rank);
            }
            if rng.unit() < MISS_FRAC {
                fresh_key(&mut rng, used)
            } else {
                let u = rng.unit() * total;
                hot[rank[cum.partition_point(|&c| c < u).min(hot.len() - 1)]].clone()
            }
        })
        .collect()
}

/// The bytes the batch CLI prints for `op`: what every `ok` payload must
/// equal.
fn render(op: &Op, bases: &HashMap<String, BaseGraph>, pool: &Pool) -> String {
    let base = |algo: &String| &bases[algo.as_str()];
    match op {
        Op::Certify { algo, r, m } => ops::certify_text(base(algo), *r, *m, ViewMode::Auto, pool),
        Op::Analyze { algo, r } => ops::analyze_json(base(algo), *r).0,
        Op::Sweep { algo, r, ms } => ops::sweep_json(base(algo), *r, ms, pool),
        Op::RoutingCert { algo, k, r } => {
            ops::routing_cert_json(base(algo), *k, *r, pool).expect("Hall matching exists")
        }
        Op::Stats | Op::Shutdown => unreachable!("not rendered"),
    }
}

/// A server child; killed and reaped if dropped while still running.
struct ServerProc {
    child: Child,
}

impl ServerProc {
    fn spawn(sock: &Path, memo: &Path) -> std::io::Result<ServerProc> {
        let child = Command::new(std::env::current_exe()?)
            .arg("serve-child")
            .arg(sock)
            .arg(memo)
            .spawn()?;
        Ok(ServerProc { child })
    }

    /// The server's peak RSS so far, in kB.
    fn rss_kb(&self) -> u64 {
        vmhwm_kb(&self.child.id().to_string())
    }

    /// Asks the server to shut down and waits until it has drained and
    /// exited.
    fn shutdown(mut self, sock: &Path) -> Result<(), String> {
        let mut c = mmio_serve::Client::connect(sock).map_err(|e| e.to_string())?;
        let bye = c
            .call(&Request {
                id: 0,
                deadline_ms: None,
                op: Op::Shutdown,
            })
            .map_err(|e| e.to_string())?;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if bye.status != Status::Ok || !status.success() {
            return Err(format!("server shutdown: {bye:?}, exit {status}"));
        }
        Ok(())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The `serve-child` entry point: the `mmio serve` code path with the CLI
/// defaults (2 workers, queue 64, 30 s deadline, pool = available cores).
pub fn child_main(sock: &str, memo: &str) -> Result<(), String> {
    let cfg = mmio_serve::EngineConfig {
        workers: 2,
        queue_cap: 64,
        max_spawns: 8,
        default_deadline: Duration::from_millis(30_000),
        cache_dir: Some(PathBuf::from(memo)),
        pool_threads: Pool::from_env(None).threads(),
    };
    let (engine, _) =
        mmio_serve::Engine::start(cfg, Arc::new(NoFaults)).map_err(|e| e.to_string())?;
    let server = mmio_serve::Server::bind(sock, Arc::new(engine)).map_err(|e| e.to_string())?;
    server.run().map_err(|e| e.to_string())
}

/// What the clients saw of one phase.
#[derive(Default)]
struct Phase {
    /// `(plan index, latency ns, reply digest)` of every answered request,
    /// in plan order. The digest covers the reply without its id, so
    /// repeated answers to one key share it.
    seen: Vec<(usize, u64, u64)>,
    /// The first reply line seen with each digest.
    first: HashMap<u64, String>,
    /// When each answered request completed, in seconds from the phase's
    /// start, in no particular order.
    done_s: Vec<f64>,
}

/// A digest of a reply line without its id, which `Response::to_line`
/// writes first.
fn reply_digest(line: &str) -> u64 {
    fnv64(
        line.split_once(',')
            .map_or(line, |(_, rest)| rest)
            .as_bytes(),
    )
}

impl Phase {
    fn record(&mut self, i: usize, lat_ns: u64, done_s: f64, line: &str) {
        let d = reply_digest(line);
        self.first.entry(d).or_insert_with(|| line.to_string());
        self.seen.push((i, lat_ns, d));
        self.done_s.push(done_s);
    }

    fn merge(lanes: Vec<Phase>) -> Phase {
        let mut out = Phase::default();
        for lane in lanes {
            out.seen.extend(lane.seen);
            out.first.extend(lane.first);
            out.done_s.extend(lane.done_s);
        }
        out.seen.sort_unstable_by_key(|s| s.0);
        out
    }

    /// Replies per second: the median, over the phase's whole seconds, of
    /// the replies completed in each — the throughput of a typical second,
    /// which a slow stretch of the shared host or disk shorter than half
    /// the phase does not decide.
    fn ops_per_s(&self) -> f64 {
        let end = self.done_s.iter().fold(0.0f64, |a, &t| a.max(t));
        let mut per_s = vec![0.0; end.floor() as usize];
        for &t in &self.done_s {
            if let Some(n) = per_s.get_mut(t as usize) {
                *n += 1.0;
            }
        }
        if per_s.is_empty() {
            self.done_s.len() as f64 / end
        } else {
            median(&per_s)
        }
    }

    fn lat_ms(&self) -> Vec<f64> {
        self.seen.iter().map(|s| s.1 as f64 / 1e6).collect()
    }
}

fn read_reply(reader: &mut BufReader<UnixStream>, buf: &mut String) -> std::io::Result<()> {
    buf.clear();
    if reader.read_line(buf)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        ));
    }
    Ok(())
}

/// Plays `planned` as a closed loop over two connections — connection `c`
/// sends requests `c, c + 2, …`, each when the previous reply has arrived —
/// until all are answered or `budget` is spent.
fn closed_loop(
    sock: &Path,
    planned: &[Op],
    first_id: u64,
    budget: Duration,
) -> Result<Phase, String> {
    let t0 = Instant::now();
    let lanes: Vec<std::io::Result<Phase>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|c| {
                s.spawn(move || {
                    let stream = UnixStream::connect(sock)?;
                    let mut writer = stream.try_clone()?;
                    let mut reader = BufReader::new(stream);
                    let (mut lane, mut buf) = (Phase::default(), String::new());
                    for i in (c..planned.len()).step_by(2) {
                        if t0.elapsed() >= budget {
                            break;
                        }
                        let text = format!("{}\n", line(first_id + i as u64, &planned[i]));
                        let sent = Instant::now();
                        writer.write_all(text.as_bytes())?;
                        read_reply(&mut reader, &mut buf)?;
                        let lat = sent.elapsed().as_nanos() as u64;
                        let done = t0.elapsed().as_secs_f64();
                        lane.record(i, lat, done, buf.trim_end_matches('\n'));
                    }
                    Ok(lane)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let lanes = lanes.into_iter().collect::<std::io::Result<Vec<_>>>();
    Ok(Phase::merge(lanes.map_err(|e| format!("client: {e}"))?))
}

/// The batch renderings every `ok` payload is checked against, by key.
struct Oracle {
    bases: HashMap<String, BaseGraph>,
    digests: HashMap<String, u64>,
}

impl Oracle {
    /// Checks every answered request of a phase; returns how many replies
    /// were not `ok` or differ from the batch rendering, each also an
    /// error.
    fn judge(
        &mut self,
        planned: &[Op],
        phase: &Phase,
        pool: &Pool,
        errors: &mut Vec<String>,
    ) -> u64 {
        let mut failed = 0;
        let mut parsed: HashMap<u64, Result<(Status, Option<u64>), String>> = HashMap::new();
        for &(i, _, d) in &phase.seen {
            let key = line(0, &planned[i]);
            let bases = &self.bases;
            let want = *self
                .digests
                .entry(key.clone())
                .or_insert_with(|| fnv64(render(&planned[i], bases, pool).as_bytes()));
            let reply = parsed.entry(d).or_insert_with(|| {
                Response::from_line(&phase.first[&d])
                    .map(|r| (r.status, r.payload.map(|p| fnv64(p.as_bytes()))))
                    .map_err(|e| e.to_string())
            });
            let error = match reply {
                Ok((Status::Ok, got)) if *got == Some(want) => continue,
                Ok((Status::Ok, _)) => format!("{key}: payload differs from the batch CLI"),
                Ok((status, _)) => format!("{key}: {status:?} reply"),
                Err(e) => format!("{key}: unreadable reply: {e}"),
            };
            failed += 1;
            errors.push(error);
        }
        failed
    }
}

/// Waits until the server accepts connections — after its memo recovery
/// scan and bind. Polls finely: this wait is what `setup_s` measures.
fn wait_ready(sock: &Path) -> Result<(), String> {
    let t = Instant::now();
    loop {
        match UnixStream::connect(sock) {
            Ok(_) => return Ok(()),
            Err(e) if t.elapsed() > Duration::from_secs(60) => {
                return Err(format!("server never came up: {e}"))
            }
            Err(_) => std::thread::sleep(Duration::from_micros(200)),
        }
    }
}

/// `op` as the engine computes it on a miss, with a span per public call.
fn compute_traced(op: &Op, pool: &Pool, tr: &mut Tracer) -> String {
    let (Op::Certify { algo, .. }
    | Op::Analyze { algo, .. }
    | Op::Sweep { algo, .. }
    | Op::RoutingCert { algo, .. }) = op
    else {
        unreachable!("not cacheable")
    };
    let base = ops::resolve_registry(algo).expect("registry base");
    match op {
        Op::Certify { r, m, .. } => certify_traced(&base, *r, *m, ViewMode::Auto, pool, tr),
        Op::Analyze { r, .. } => tr.span("analyze.target", |_| ops::analyze_json(&base, *r).0),
        Op::Sweep { r, ms, .. } => {
            let g = tr.span("cdag.build", |_| build_cdag(&base, *r));
            let order = tr.span("pebble.order", |_| recursive_order(&g));
            let points = tr.span("pebble.sweep", |_| {
                sweep(&g, &[&order], &[PolicySpec::Lru], ms, pool)
            });
            format!(
                "{}\n",
                serde_json::to_string_pretty(&serde::Serialize::to_value(&points))
                    .expect("serializable")
            )
        }
        Op::RoutingCert { k, r, .. } => {
            let class = tr.span("core.routing_class", |_| {
                RoutingClass::build(&base, *k, pool)
            });
            let class = class.expect("Hall matching exists");
            let cert = tr.span("core.emit", |_| emit_certificate(&class, *r));
            tr.span("cert.encode", |_| cert.to_json())
        }
        Op::Stats | Op::Shutdown => unreachable!("not cacheable"),
    }
}

/// Replays requests in-process, in order, through the layer functions the
/// engine calls, numbering operations from `first_op`, until they are done
/// or `budget` is spent. Returns, per request, the digest of its reply
/// without the id (as [`Phase`] keeps it), its service time in ms, and
/// whether it was a memo hit.
fn replay(
    requests: &[String],
    cache: &DiskCache,
    first_op: u64,
    budget: Duration,
    pool: &Pool,
    tr: &mut Tracer,
) -> Result<Vec<(u64, f64, bool)>, String> {
    let t0 = Instant::now();
    let mut out = Vec::with_capacity(requests.len());
    for (k, text) in requests.iter().enumerate() {
        if t0.elapsed() >= budget {
            break;
        }
        tr.set_op(first_op + k as u64);
        let t = Instant::now();
        let (reply, cached) = tr.span("bench.op", |tr| {
            let req = tr
                .span("serve.protocol", |_| Request::from_line(text))
                .map_err(|e| e.to_string())?;
            let key = cache_key(&req.op);
            let mut payload = tr.span("serve.cache_get", |_| cache.get(&key));
            if key.kind == "routing_cert" {
                if let Some(p) = &payload {
                    if !tr.span("serve.reverify", |_| mmio_cert::verify_json(p).accepted) {
                        payload = None;
                    }
                }
            }
            let cached = payload.is_some();
            let payload = match payload {
                Some(p) => p,
                None => {
                    let p = tr.span("serve.compute", |tr| compute_traced(&req.op, pool, tr));
                    tr.span("serve.cache_put", |_| cache.put(&key, &p));
                    p
                }
            };
            let reply = tr.span("serve.protocol", |_| {
                Response::ok(req.id, cached, payload).to_line()
            });
            Ok::<_, String>((reply, cached))
        })?;
        out.push((
            reply_digest(&reply),
            t.elapsed().as_secs_f64() * 1e3,
            cached,
        ));
    }
    Ok(out)
}

fn stats_field(payload: &str, name: &str) -> Option<f64> {
    match serde_json::from_str::<serde::Value>(payload)
        .ok()?
        .get(name)?
    {
        serde::Value::Int(i) => Some(*i as f64),
        serde::Value::UInt(u) => Some(*u as f64),
        _ => None,
    }
}

pub fn run(seed: u64, seconds: f64, traced: bool, pool: &Pool) -> Run {
    let dir = PathBuf::from(".bench_run").join(format!("serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let result = std::fs::create_dir_all(&dir)
        .map_err(|e| format!("{}: {e}", dir.display()))
        .and_then(|()| run_in(&dir, seed, seconds, traced, pool));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".bench_run");
    result.unwrap_or_else(|e| Run {
        outcome: Outcome::new(1, vec![e]),
        e2e: None,
        tracer: None,
    })
}

fn run_in(dir: &Path, seed: u64, seconds: f64, traced: bool, pool: &Pool) -> Result<Run, String> {
    let sock = dir.join("s.sock");
    let memo = dir.join("memo");
    let io = |e: std::io::Error| e.to_string();
    let mut oracle = Oracle {
        bases: ALGOS
            .iter()
            .map(|a| {
                (
                    a.to_string(),
                    ops::resolve_registry(a).expect("registry base"),
                )
            })
            .collect(),
        digests: HashMap::new(),
    };
    let mut used = HashSet::new();
    let hot = hot_keys(seed, &mut used);
    // The warm-up after the restart: the first hot key of each kind, and a
    // never-seen key from a stream the measured requests do not draw from.
    let mut kinds = HashSet::new();
    let mut warmup: Vec<Op> = hot
        .iter()
        .filter(|op| kinds.insert(std::mem::discriminant(*op)))
        .cloned()
        .collect();
    warmup.push(fresh_key(&mut Rng::new(seed, 3), &mut used));
    let planned = plan(seed, CLOSED_MAX, &hot, &mut used);
    let all = Duration::MAX;
    let mut errors = Vec::new();

    // Warm the memo, then restart over it.
    let server = ServerProc::spawn(&sock, &memo).map_err(io)?;
    wait_ready(&sock)?;
    let warm_phase = closed_loop(&sock, &hot, 1, all)?;
    let mut failed = oracle.judge(&hot, &warm_phase, pool, &mut errors);
    server.shutdown(&sock)?;

    // Every restart scans the same warm memo: the closed loop's misses
    // grow it by a number that depends on the host's speed. The last
    // restart keeps serving.
    let mut setup_s = Vec::new();
    let server = loop {
        let t = Instant::now();
        let s = ServerProc::spawn(&sock, &memo).map_err(io)?;
        wait_ready(&sock)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if setup_s.len() == SETUP_REPS {
            break s;
        }
        s.shutdown(&sock)?;
    };

    let warmup_phase = closed_loop(&sock, &warmup, 1, all)?;
    failed += oracle.judge(&warmup, &warmup_phase, pool, &mut errors);
    let share = if traced { 0.5 } else { 1.0 };
    let main = closed_loop(
        &sock,
        &planned,
        FIRST_ID,
        Duration::from_secs_f64(seconds * share),
    )?;
    let rss_kb = server.rss_kb();
    failed += oracle.judge(&planned, &main, pool, &mut errors);
    let mut attempted = (hot.len() + warmup.len() + main.seen.len()) as u64;

    let mut c = mmio_serve::Client::connect(&sock).map_err(io)?;
    let stats = c
        .call(&Request {
            id: 0,
            deadline_ms: None,
            op: Op::Stats,
        })
        .map_err(io)?
        .payload
        .unwrap_or_default();
    drop(c);
    server.shutdown(&sock)?;

    if !traced {
        return Ok(Run {
            outcome: Outcome::counted(attempted, failed, errors),
            e2e: Some(E2e {
                setup_s,
                ops_per_s: main.ops_per_s(),
                tail_p: TAIL_P,
                tail_window: TAIL_WINDOW,
                lat_ms: main.lat_ms(),
                rss_kb,
            }),
            tracer: None,
        });
    }

    // The server's request stream again, in-process, with spans: the
    // warm-up into an empty memo, the restart's recovery scan, then the
    // closed loop's requests in order for the rest of the run's time. Every
    // reply must match the socket's byte for byte.
    let mut tr = Tracer::new(true);
    let replay_memo = dir.join("replay-memo");
    let (cache, _) = DiskCache::open(&replay_memo, Arc::new(NoFaults)).map_err(io)?;
    let warm_requests: Vec<String> = (0..hot.len())
        .map(|i| line(1 + i as u64, &hot[i]))
        .collect();
    let warm_replayed = replay(&warm_requests, &cache, 1, all, pool, &mut tr)?;
    drop(cache);
    tr.set_op(0);
    let (cache, _) = tr
        .span("serve.recovery", |_| {
            DiskCache::open(&replay_memo, Arc::new(NoFaults))
        })
        .map_err(io)?;
    let requests: Vec<String> = main
        .seen
        .iter()
        .map(|s| line(FIRST_ID + s.0 as u64, &planned[s.0]))
        .collect();
    let budget = Duration::from_secs_f64(seconds * (1.0 - share));
    let first_op = hot.len() as u64 + 1;
    let replayed = replay(&requests, &cache, first_op, budget, pool, &mut tr)?;
    let socket = warm_phase.seen.iter().chain(&main.seen);
    for ((reply, _, _), seen) in warm_replayed.iter().chain(&replayed).zip(socket) {
        if *reply != seen.2 {
            failed += 1;
            errors.push(format!(
                "request {}: in-process replay differs from the socket reply",
                seen.0
            ));
        }
    }
    let hits = replayed.iter().filter(|r| r.2).count();
    let service: Vec<f64> = replayed.iter().map(|r| r.1).collect();
    let socket_ms: Vec<f64> = main.lat_ms()[..replayed.len()].to_vec();
    let wait: Vec<f64> = socket_ms.iter().zip(&service).map(|(l, s)| l - s).collect();
    tr.set_op(0);
    tr.count(
        "serve.hit_ratio",
        hits as f64 / replayed.len().max(1) as f64,
    );
    tr.count("serve.wait_ms", median(&wait));
    for (field, metric) in [("shed", "serve.shed"), ("deadlines", "serve.deadlines")] {
        match stats_field(&stats, field) {
            Some(v) => tr.count(metric, v),
            None => errors.push(format!("stats reply has no {field:?}: {stats:?}")),
        }
    }
    tr.count("trace.overhead_ms", median(&service) - median(&socket_ms));
    attempted += (warm_replayed.len() + replayed.len()) as u64;
    Ok(Run {
        outcome: Outcome::counted(attempted, failed, errors),
        e2e: None,
        tracer: Some(tr),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kind(op: &Op) -> usize {
        match op {
            Op::Certify { .. } => 0,
            Op::Analyze { .. } => 1,
            Op::Sweep { .. } => 2,
            Op::RoutingCert { .. } => 3,
            Op::Stats | Op::Shutdown => unreachable!(),
        }
    }

    #[test]
    fn keys_and_streams_are_seeded() {
        let keys = |seed| hot_keys(seed, &mut HashSet::new());
        assert_eq!(keys(1), keys(1));
        assert_ne!(keys(1), keys(2));
        for seed in [1, 2, 5] {
            let mut used = HashSet::new();
            let hot = hot_keys(seed, &mut used);
            assert_eq!(used.len(), HOT_KEYS, "hot keys are distinct");
            let mut per_kind = [0; 4];
            hot.iter().for_each(|op| per_kind[kind(op)] += 1);
            assert_eq!(per_kind, [21, 6, 22, 15]);
            for op in &hot {
                match *op {
                    Op::Certify { r, .. } => assert!((1..=4).contains(&r)),
                    Op::Analyze { r, .. } => assert!((1..=2).contains(&r)),
                    Op::Sweep { r, .. } => assert!((1..=3).contains(&r)),
                    Op::RoutingCert { k, r, .. } => {
                        assert!((1..=2).contains(&k) && k <= r && r <= 3)
                    }
                    Op::Stats | Op::Shutdown => unreachable!(),
                }
            }
        }
        let stream = |seed| {
            let mut used = HashSet::new();
            let hot = hot_keys(seed, &mut used);
            plan(seed, 400, &hot, &mut used)
        };
        assert_eq!(stream(1), stream(1));
        assert_ne!(stream(1), stream(2));
    }

    #[test]
    fn throughput_is_the_median_second() {
        // 100 replies in each of seconds 0–3, 10 in second 4 (a stall), and
        // 5 in the partial second 5, which is left out.
        let mut p = Phase::default();
        for (sec, n) in [(0, 100), (1, 100), (2, 100), (3, 100), (4, 10)] {
            p.done_s
                .extend((0..n).map(|j| sec as f64 + j as f64 / n as f64));
        }
        p.done_s.extend([5.1; 5]);
        assert_eq!(p.ops_per_s(), 100.0);
        p.done_s = vec![0.5; 4];
        assert_eq!(p.ops_per_s(), 8.0);
    }

    #[test]
    fn stream_mix() {
        let mut used = HashSet::new();
        let hot = hot_keys(3, &mut used);
        let p = plan(3, 40 * EPOCH, &hot, &mut used);
        let misses: Vec<&Op> = p.iter().filter(|op| !hot.contains(op)).collect();
        let frac = misses.len() as f64 / p.len() as f64;
        assert!((frac - MISS_FRAC).abs() < 0.015, "{frac}");
        let distinct: HashSet<String> = misses.iter().map(|op| line(0, op)).collect();
        assert_eq!(distinct.len(), misses.len(), "misses are never-seen keys");
        // Within an epoch the most requested key has Zipf(1.0)'s top share,
        // 1/H_64 of the hits; over the run every hot key is requested.
        let top: f64 = p
            .chunks(EPOCH)
            .map(|e| {
                let mut n: HashMap<String, usize> = HashMap::new();
                for op in e.iter().filter(|op| hot.contains(op)) {
                    *n.entry(line(0, op)).or_default() += 1;
                }
                *n.values().max().unwrap() as f64 / e.len() as f64
            })
            .sum::<f64>()
            / 40.0;
        assert!((top - 0.9 / 4.7439).abs() < 0.03, "{top}");
        assert!(hot.iter().all(|k| p.contains(k)));
    }
}
