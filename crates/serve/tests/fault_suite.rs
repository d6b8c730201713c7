//! The fault-injection harness: every failure mode the serve tier claims
//! to survive is injected deterministically and the recovery asserted —
//! zero hangs, zero corrupt responses, typed codes everywhere, and
//! successful payloads byte-identical to the batch renderers at any
//! concurrency.
//!
//! (The kill-mid-persist crash/restart half lives in
//! `tests/crash_restart.rs`; it needs process re-exec.)

use mmio_parallel::Pool;
use mmio_serve::engine::{Engine, EngineConfig};
use mmio_serve::faults::{NoFaults, PersistFault, ReadFault, ScriptedFaults};
use mmio_serve::protocol::{Op, Request, Response, Status};
use mmio_serve::{codes, ops, FaultPlan};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mmio_faults_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cfg(cache: Option<PathBuf>) -> EngineConfig {
    EngineConfig {
        workers: 2,
        queue_cap: 8,
        max_spawns: 8,
        default_deadline: Duration::from_secs(60),
        cache_dir: cache,
        pool_threads: 1,
    }
}

fn certify(id: u64, deadline_ms: Option<u64>) -> Request {
    Request {
        id,
        deadline_ms,
        op: Op::Certify {
            algo: "strassen".into(),
            r: 2,
            m: 49,
        },
    }
}

fn batch_certify_payload() -> String {
    ops::certify_text(
        &ops::resolve_registry("strassen").unwrap(),
        2,
        49,
        ops::ViewMode::Auto,
        &Pool::serial(),
    )
}

/// Every fault path must end in a typed response — never a hang. Wrap
/// submissions in a generous watchdog so a regression fails instead of
/// wedging CI.
fn submit_bounded(engine: &Arc<Engine>, req: Request) -> Response {
    let (tx, rx) = std::sync::mpsc::channel();
    let e = Arc::clone(engine);
    std::thread::spawn(move || {
        let _ = tx.send(e.submit(req));
    });
    rx.recv_timeout(Duration::from_secs(120))
        .expect("engine.submit must return (typed), not hang")
}

#[test]
fn panicking_job_is_isolated_typed_and_server_survives() {
    let hook = Arc::new(ScriptedFaults::new().script_panics([true]));
    let (engine, _) = Engine::start(cfg(None), hook).unwrap();
    let engine = Arc::new(engine);

    let poisoned = submit_bounded(&engine, certify(1, None));
    assert_eq!(poisoned.status, Status::Panicked, "{poisoned:?}");
    assert_eq!(poisoned.code, Some(codes::SERVE_JOB_PANIC));
    assert!(
        poisoned.payload.is_none(),
        "a panic must not leak a payload"
    );

    // The worker survived: the very next request succeeds with the batch
    // bytes.
    let next = submit_bounded(&engine, certify(2, None));
    assert_eq!(next.status, Status::Ok, "{next:?}");
    assert_eq!(
        next.payload.as_deref(),
        Some(batch_certify_payload().as_str())
    );
    assert_eq!(
        engine
            .counters()
            .panics
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
    assert!(engine.shutdown(Duration::from_secs(10)));
}

#[test]
fn wedged_job_times_out_typed_and_worker_is_replaced() {
    // One job wedges for 30 s; its submitter has a 100 ms deadline. The
    // response must be a typed deadline error, a replacement worker must
    // keep the server serving, and the eventual un-wedge must not confuse
    // anything (the wedged worker retires on over-strength).
    let hook = Arc::new(ScriptedFaults::new().script_wedges([Some(Duration::from_secs(30))]));
    let (engine, _) = Engine::start(
        EngineConfig {
            workers: 1,
            max_spawns: 4,
            ..cfg(None)
        },
        hook,
    )
    .unwrap();
    let engine = Arc::new(engine);

    let wedged = submit_bounded(&engine, certify(1, Some(100)));
    assert_eq!(wedged.status, Status::DeadlineExceeded, "{wedged:?}");
    assert_eq!(wedged.code, Some(codes::SERVE_DEADLINE));
    assert_eq!(
        engine.worker_replacements(),
        1,
        "wedge must trigger replacement"
    );
    // The detail names the replacement's own code (MMIO-F009) so the
    // replacement is visible in the reply, not just in engine counters.
    let error = wedged.error.as_deref().unwrap_or_default();
    assert!(
        error.contains(codes::SERVE_WORKER_REPLACED),
        "deadline detail should name the replacement code: {error:?}"
    );

    // The replacement serves immediately — no waiting out the wedge.
    let next = submit_bounded(&engine, certify(2, Some(30_000)));
    assert_eq!(next.status, Status::Ok, "{next:?}");
    assert_eq!(
        next.payload.as_deref(),
        Some(batch_certify_payload().as_str())
    );
    // Don't assert full drain: the wedged worker may still be sleeping.
    engine.shutdown(Duration::from_millis(50));
}

#[test]
fn saturated_queue_sheds_with_typed_overloaded() {
    // One worker wedged 2 s, queue cap 1: the first request occupies the
    // worker, the second fills the queue, the third must shed *immediately*
    // (not block) with the typed overload code.
    let hook = Arc::new(ScriptedFaults::new().script_wedges([Some(Duration::from_secs(2))]));
    let (engine, _) = Engine::start(
        EngineConfig {
            workers: 1,
            queue_cap: 1,
            max_spawns: 2,
            ..cfg(None)
        },
        hook,
    )
    .unwrap();
    let engine = Arc::new(engine);

    // Occupy the worker (async submit; response comes after the wedge).
    let e1 = Arc::clone(&engine);
    let h1 = std::thread::spawn(move || e1.submit(certify(1, None)));
    // Give the worker a beat to pop the job so the queue is truly empty.
    std::thread::sleep(Duration::from_millis(200));
    // Fill the queue.
    let e2 = Arc::clone(&engine);
    let h2 = std::thread::spawn(move || e2.submit(certify(2, None)));
    std::thread::sleep(Duration::from_millis(200));

    // Shed: this must return typed-overloaded well before the wedge clears.
    let t0 = std::time::Instant::now();
    let shed = engine.submit(certify(3, None));
    assert!(
        t0.elapsed() < Duration::from_millis(500),
        "shedding must be immediate, took {:?}",
        t0.elapsed()
    );
    assert_eq!(shed.status, Status::Overloaded, "{shed:?}");
    assert_eq!(shed.code, Some(codes::SERVE_OVERLOADED));

    // The queued requests still complete correctly.
    let expect = batch_certify_payload();
    for h in [h1, h2] {
        let resp = h.join().unwrap();
        assert_eq!(resp.status, Status::Ok, "{resp:?}");
        assert_eq!(resp.payload.as_deref(), Some(expect.as_str()));
    }
    assert!(engine.shutdown(Duration::from_secs(10)));
}

#[test]
fn cache_corruption_mid_flight_recomputes_not_serves() {
    // Warm the cache, corrupt the snapshot on disk, request again: the
    // response must be the *recomputed* batch bytes (cached=false), with
    // the corruption quarantined under its exact code.
    let dir = tmpdir("midflight");
    let (engine, _) = Engine::start(cfg(Some(dir.clone())), Arc::new(NoFaults)).unwrap();
    let engine = Arc::new(engine);
    let expect = batch_certify_payload();

    let cold = submit_bounded(&engine, certify(1, None));
    assert_eq!(cold.payload.as_deref(), Some(expect.as_str()));

    // Corrupt the single snapshot in place.
    let mut snapshot = None;
    for shard in 0..8 {
        let dirp = dir.join(format!("shard{shard:02}"));
        for e in std::fs::read_dir(&dirp).unwrap().flatten() {
            snapshot = Some(e.path());
        }
    }
    let snapshot = snapshot.expect("cold request persisted a snapshot");
    let mut bytes = std::fs::read(&snapshot).unwrap();
    let text = String::from_utf8(bytes.clone()).unwrap();
    let i = text.find("complete").expect("payload text in snapshot");
    bytes[i] ^= 0x20;
    std::fs::write(&snapshot, &bytes).unwrap();

    let after = submit_bounded(&engine, certify(2, None));
    assert_eq!(after.status, Status::Ok, "{after:?}");
    assert!(!after.cached, "corrupt snapshot must not count as a hit");
    assert_eq!(after.payload.as_deref(), Some(expect.as_str()));
    let diags = engine.cache().unwrap().take_diags();
    assert!(
        diags
            .iter()
            .any(|d| d.code == codes::SERVE_SNAPSHOT_CHECKSUM),
        "{diags:?}"
    );
    assert!(
        dir.join("quarantine").read_dir().unwrap().next().is_some(),
        "corrupt snapshot preserved in quarantine/"
    );
    assert!(engine.shutdown(Duration::from_secs(10)));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dead_disk_degrades_to_recompute_never_fails_requests() {
    // Every cache I/O fails (reads and writes, including all retries):
    // requests must still succeed with batch-identical payloads, and the
    // degradation must be visible as typed diagnostics and counters.
    let dir = tmpdir("deaddisk");
    let hook = Arc::new(
        ScriptedFaults::new()
            .script_persists(vec![PersistFault::TransientError; 64])
            .script_reads(vec![ReadFault::TransientError; 64]),
    );
    let (engine, _) = Engine::start(cfg(Some(dir.clone())), hook).unwrap();
    let engine = Arc::new(engine);
    let expect = batch_certify_payload();

    for id in 0..3 {
        let resp = submit_bounded(&engine, certify(id, None));
        assert_eq!(resp.status, Status::Ok, "{resp:?}");
        assert!(!resp.cached, "a dead disk can never produce a hit");
        assert_eq!(resp.payload.as_deref(), Some(expect.as_str()));
    }
    let cache = engine.cache().unwrap();
    assert!(
        cache
            .counters
            .degraded
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 2,
        "degradations must be counted"
    );
    let diags = cache.take_diags();
    assert!(
        diags.iter().any(|d| d.code == codes::SERVE_CACHE_DEGRADED),
        "{diags:?}"
    );
    assert!(engine.shutdown(Duration::from_secs(10)));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn huge_sweep_cache_answers_and_server_keeps_serving() {
    // `ms` takes any integer off the wire. Nothing the scheduler allocates
    // may be sized by M itself: a 10^12-slot cache is one that holds the
    // whole graph, answered Ok with the batch bytes, not an allocation
    // abort that no worker isolation could catch.
    let (engine, _) = Engine::start(cfg(None), Arc::new(NoFaults)).unwrap();
    let engine = Arc::new(engine);
    let (resp, _) =
        engine.handle_line(r#"{"id":1,"op":"sweep","algo":"strassen","r":1,"ms":[1000000000000]}"#);
    assert_eq!(resp.status, Status::Ok, "{resp:?}");
    let batch = ops::sweep_json(
        &ops::resolve_registry("strassen").unwrap(),
        1,
        &[1_000_000_000_000],
        &Pool::serial(),
    );
    assert_eq!(resp.payload.as_deref(), Some(batch.as_str()));
    assert!(batch.contains("\"loads\""), "{batch}");

    let next = submit_bounded(&engine, certify(2, None));
    assert_eq!(next.status, Status::Ok, "{next:?}");
    assert_eq!(
        next.payload.as_deref(),
        Some(batch_certify_payload().as_str())
    );
    assert!(engine.shutdown(Duration::from_secs(10)));
}

#[test]
fn seeded_campaign_responses_always_batch_identical() {
    // A randomized-but-reproducible storm of recoverable cache faults at
    // real concurrency: whatever the fault schedule does to the disk tier,
    // every successful response must carry the batch bytes, and nothing
    // may hang. Four seeds × 16 concurrent requests.
    let expect = batch_certify_payload();
    for seed in [7, 1312, 0xC0FFEE, 0xDEAD] {
        let dir = tmpdir(&format!("seed{seed}"));
        let hook = Arc::new(FaultPlan::seeded(seed, 48));
        let (engine, _) = Engine::start(
            EngineConfig {
                workers: 4,
                queue_cap: 32,
                max_spawns: 8,
                ..cfg(Some(dir.clone()))
            },
            hook,
        )
        .unwrap();
        let engine = Arc::new(engine);
        let handles: Vec<_> = (0..16)
            .map(|id| {
                let e = Arc::clone(&engine);
                std::thread::spawn(move || e.submit(certify(id, Some(60_000))))
            })
            .collect();
        for h in handles {
            let resp = h.join().unwrap();
            assert_eq!(resp.status, Status::Ok, "seed {seed}: {resp:?}");
            assert_eq!(
                resp.payload.as_deref(),
                Some(expect.as_str()),
                "seed {seed}: corrupt bytes reached a response"
            );
        }
        assert!(engine.shutdown(Duration::from_secs(10)), "seed {seed}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn restart_after_faulty_run_serves_identical_bytes() {
    // Fault-storm a cache, then reopen it cleanly: the recovery scan must
    // leave only snapshots that replay the exact batch bytes.
    let dir = tmpdir("restart");
    let expect = batch_certify_payload();
    {
        let hook = Arc::new(FaultPlan::seeded(99, 32));
        let (engine, _) = Engine::start(cfg(Some(dir.clone())), hook).unwrap();
        let engine = Arc::new(engine);
        for id in 0..6 {
            let resp = submit_bounded(&engine, certify(id, None));
            assert_eq!(resp.status, Status::Ok);
            assert_eq!(resp.payload.as_deref(), Some(expect.as_str()));
        }
        assert!(engine.shutdown(Duration::from_secs(10)));
    }
    // Clean restart over the same directory.
    let (engine, report) = Engine::start(cfg(Some(dir.clone())), Arc::new(NoFaults)).unwrap();
    let engine = Arc::new(engine);
    // Whatever the storm left behind, recovery classified it; nothing
    // invalid may survive into the serving set.
    let resp = submit_bounded(&engine, certify(100, None));
    assert_eq!(resp.status, Status::Ok, "{resp:?}");
    assert_eq!(resp.payload.as_deref(), Some(expect.as_str()));
    if resp.cached {
        assert!(report.valid >= 1, "a hit requires a recovered snapshot");
    }
    assert!(engine.shutdown(Duration::from_secs(10)));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reverify_failure_quarantines_forged_routing_cert() {
    // Forge a snapshot whose checksum is *valid* but whose payload is not
    // a real certificate: the semantic re-verification layer must refuse
    // to serve it (F010), quarantine it, and recompute a verifying one.
    let dir = tmpdir("reverify");
    let (engine, _) = Engine::start(cfg(Some(dir.clone())), Arc::new(NoFaults)).unwrap();
    let engine = Arc::new(engine);
    let key = mmio_serve::CacheKey {
        kind: "routing_cert",
        algo: "strassen".to_string(),
        k: 1,
        extra: "r=2".to_string(),
    };
    // A well-formed write of garbage: put() checksums whatever it is given.
    engine
        .cache()
        .unwrap()
        .put(&key, "{\"this is\": \"not a certificate\"}");

    let resp = submit_bounded(
        &engine,
        Request {
            id: 1,
            deadline_ms: None,
            op: Op::RoutingCert {
                algo: "strassen".into(),
                k: 1,
                r: 2,
            },
        },
    );
    assert_eq!(resp.status, Status::Ok, "{resp:?}");
    assert!(!resp.cached, "forged payload must not be served");
    let payload = resp.payload.unwrap();
    assert!(
        mmio_cert::verify_json(&payload).accepted,
        "recomputed certificate must verify"
    );
    assert_eq!(
        engine
            .counters()
            .reverify_failures
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
    let diags = engine.cache().unwrap().take_diags();
    assert!(
        diags
            .iter()
            .any(|d| d.code == codes::SERVE_PAYLOAD_REVERIFY),
        "{diags:?}"
    );
    assert!(engine.shutdown(Duration::from_secs(10)));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_socket_clients_get_batch_identical_bytes() {
    // End-to-end over the wire at concurrency 8, mixed cold/warm: every
    // ok-response is byte-identical to the batch CLI rendering.
    let sock = std::env::temp_dir().join(format!("mmio_faults_sock_{}.sock", std::process::id()));
    let (engine, _) = Engine::start(
        EngineConfig {
            workers: 4,
            queue_cap: 64,
            ..cfg(None)
        },
        Arc::new(NoFaults),
    )
    .unwrap();
    let server = mmio_serve::Server::bind(&sock, Arc::new(engine)).unwrap();
    let h = std::thread::spawn(move || server.run().unwrap());

    let expect = batch_certify_payload();
    let clients: Vec<_> = (0..8)
        .map(|c| {
            let sock = sock.clone();
            let expect = expect.clone();
            std::thread::spawn(move || {
                let mut client =
                    mmio_serve::Client::connect_retry(&sock, Duration::from_secs(5)).unwrap();
                for i in 0..4u64 {
                    let resp = client.call(&certify(c * 100 + i, None)).unwrap();
                    assert_eq!(resp.status, Status::Ok, "{resp:?}");
                    assert_eq!(resp.payload.as_deref(), Some(expect.as_str()));
                }
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }
    let mut closer = mmio_serve::Client::connect_retry(&sock, Duration::from_secs(5)).unwrap();
    let bye = closer
        .call(&Request {
            id: 0,
            deadline_ms: None,
            op: Op::Shutdown,
        })
        .unwrap();
    assert_eq!(bye.status, Status::Ok);
    h.join().unwrap();
}
