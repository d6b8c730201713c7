//! Mutation-testing harness for the certificate verifier.
//!
//! Two mutant populations, one contract: the standalone verifier must kill
//! **every** mutant and reject **zero** clean certificates.
//!
//! 1. *Certificate-level* mutants (`mmio_cert::mutate::mutants_for`):
//!    post-hoc corruptions of serialized certificates — hand-built unit
//!    fixtures and real engine emissions alike.
//! 2. *Engine-level* mutants: runtime-armed corruption switches inside the
//!    routing and pebble engines (`mmio-core/mutate`, `mmio-pebble/mutate`)
//!    that make the *emitter itself* lie. These lies are self-consistent
//!    (counters recomputed from the mutated trace), so the verifier has to
//!    catch them structurally, not by cross-checking two copies of one
//!    variable.
//!
//! Exits nonzero on any surviving mutant or false reject; always prints a
//! machine-readable JSON report to stdout. CI runs this as a blocking step
//! (`cargo run -p mmio-check --features engine-mutate --bin cert_mutate`).

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

use mmio_cdag::build::build_cdag;
use mmio_cert::mutate::mutants_for;
use mmio_cert::{fixtures, verify_json, Certificate};
use mmio_core::transport::{emit_certificate, RoutingClass};
use mmio_parallel::Pool;
use mmio_pebble::cert::{emit_schedule_certificate, emit_sweep_certificate};
use mmio_pebble::sweep::{sweep, PolicySpec};
use mmio_pebble::{orders, AutoScheduler};
use serde::Serialize;

#[derive(Serialize)]
struct MutantOutcome {
    name: String,
    kind: String,
    expected: Vec<String>,
    got: Vec<String>,
    killed: bool,
}

#[derive(Serialize)]
struct Report {
    clean_certs: u64,
    false_rejects: u64,
    mutants: u64,
    killed: u64,
    kill_rate: f64,
    outcomes: Vec<MutantOutcome>,
}

fn observed_codes(cert: &Certificate) -> (bool, Vec<String>) {
    let v = verify_json(&cert.to_json());
    let mut codes: Vec<String> = v.rejections.iter().map(|r| r.code.clone()).collect();
    codes.sort();
    codes.dedup();
    (v.accepted, codes)
}

/// Clean engine emissions over the fast registry: a routing certificate
/// with non-trivial transport, a schedule witness, and a sweep witness per
/// base, at the analyzer's depth caps.
fn clean_engine_certs(pool: &Pool) -> Vec<(String, Certificate)> {
    let mut certs = Vec::new();
    for base in mmio_algos::registry::fast_base_graphs() {
        let name = base.name().to_string();
        let k = if base.a() >= 16 { 1 } else { 2 };
        if let Some(class) = RoutingClass::build(&base, k, pool) {
            certs.push((format!("{name}/routing"), emit_certificate(&class, k + 1)));
        }
        let g = build_cdag(&base, 2);
        let need = g.vertices().map(|v| g.preds(v).len()).max().unwrap() + 1;
        let m = need + 4;
        let sched = AutoScheduler::try_new(&g, m).expect("m above indegree floor");
        let order = orders::rank_order(&g);
        let (_, schedule) = sched.run_recorded(&order, &PolicySpec::Lru);
        certs.push((
            format!("{name}/schedule"),
            emit_schedule_certificate(&g, m, &schedule),
        ));
        let points = sweep(&g, &[&order], &[PolicySpec::Lru], &[2, m], pool);
        certs.push((
            format!("{name}/sweep"),
            emit_sweep_certificate(&g, &PolicySpec::Lru, &points),
        ));
    }
    certs
}

/// One engine-level mutant: arming `switch` must make `emit` produce a
/// certificate the verifier rejects with one of `expected`.
struct EngineMutant {
    name: &'static str,
    switch: &'static AtomicBool,
    expected: &'static [&'static str],
    emit: Box<dyn Fn(&Pool) -> Certificate>,
}

fn engine_mutants() -> Vec<EngineMutant> {
    // r > k so the transport prefix set is non-trivial and PREFIX_LIE has
    // something to corrupt.
    let routing = |pool: &Pool| {
        let class = RoutingClass::build(&mmio_algos::strassen::strassen(), 1, pool)
            .expect("strassen has a Hall matching");
        emit_certificate(&class, 2)
    };
    let schedule = |_: &Pool| {
        let g = build_cdag(&mmio_algos::strassen::strassen(), 2);
        let need = g.vertices().map(|v| g.preds(v).len()).max().unwrap() + 1;
        let m = need + 4;
        let sched = AutoScheduler::try_new(&g, m).expect("m above indegree floor");
        let order = orders::rank_order(&g);
        let (_, schedule) = sched.run_recorded(&order, &PolicySpec::Lru);
        emit_schedule_certificate(&g, m, &schedule)
    };
    vec![
        EngineMutant {
            name: "engine-drop-last-path",
            switch: &mmio_core::mutate::DROP_LAST_PATH,
            expected: &["MMIO-V015", "MMIO-V011"],
            emit: Box::new(routing),
        },
        EngineMutant {
            name: "engine-undercount-vertex-hits",
            switch: &mmio_core::mutate::UNDERCOUNT_VERTEX_HITS,
            expected: &["MMIO-V014"],
            emit: Box::new(routing),
        },
        EngineMutant {
            name: "engine-transport-prefix-lie",
            switch: &mmio_core::mutate::PREFIX_LIE,
            expected: &["MMIO-V016"],
            emit: Box::new(routing),
        },
        EngineMutant {
            name: "engine-elide-first-store",
            switch: &mmio_pebble::mutate::ELIDE_FIRST_STORE,
            expected: &["MMIO-V025", "MMIO-V020", "MMIO-V021"],
            emit: Box::new(schedule),
        },
        EngineMutant {
            name: "engine-understate-peak",
            switch: &mmio_pebble::mutate::UNDERSTATE_PEAK,
            expected: &["MMIO-V027"],
            emit: Box::new(schedule),
        },
    ]
}

fn main() -> ExitCode {
    let pool = Pool::new(2);
    let mut outcomes = Vec::new();
    let mut false_rejects = 0u64;
    let mut mutants = 0u64;
    let mut killed = 0u64;

    // Population 0: clean certificates (fixtures + engine emissions) must
    // all be accepted — the zero-false-reject half of the contract.
    mmio_core::mutate::disarm_all();
    mmio_pebble::mutate::disarm_all();
    let mut clean: Vec<(String, Certificate)> = fixtures::all()
        .into_iter()
        .map(|c| (format!("fixture/{}", c.payload.kind()), c))
        .collect();
    clean.extend(clean_engine_certs(&pool));
    let clean_certs = clean.len() as u64;
    for (name, cert) in &clean {
        let (accepted, codes) = observed_codes(cert);
        if !accepted {
            false_rejects += 1;
            eprintln!("FALSE REJECT {name}: {codes:?}");
        }
    }

    // Population 1: certificate-level mutants of every clean certificate.
    for (name, cert) in &clean {
        for m in mutants_for(cert) {
            mutants += 1;
            let (accepted, codes) = observed_codes(&m.cert);
            let hit = !accepted && m.expected.iter().any(|e| codes.iter().any(|c| c == e));
            if hit {
                killed += 1;
            } else {
                eprintln!(
                    "SURVIVOR {name}/{}: expected one of {:?}, got accepted={accepted} {codes:?}",
                    m.name, m.expected
                );
            }
            outcomes.push(MutantOutcome {
                name: format!("{name}/{}", m.name),
                kind: "certificate".into(),
                expected: m.expected.iter().map(|s| s.to_string()).collect(),
                got: codes,
                killed: hit,
            });
        }
    }

    // Population 2: engine-level mutants — arm, emit, verify, disarm.
    for em in engine_mutants() {
        mutants += 1;
        em.switch.store(true, Ordering::SeqCst);
        let cert = (em.emit)(&pool);
        mmio_core::mutate::disarm_all();
        mmio_pebble::mutate::disarm_all();
        let (accepted, codes) = observed_codes(&cert);
        let hit = !accepted && em.expected.iter().any(|e| codes.iter().any(|c| c == e));
        if hit {
            killed += 1;
        } else {
            eprintln!(
                "SURVIVOR {}: expected one of {:?}, got accepted={accepted} {codes:?}",
                em.name, em.expected
            );
        }
        outcomes.push(MutantOutcome {
            name: em.name.into(),
            kind: "engine".into(),
            expected: em.expected.iter().map(|s| s.to_string()).collect(),
            got: codes,
            killed: hit,
        });
    }

    let report = Report {
        clean_certs,
        false_rejects,
        mutants,
        killed,
        kill_rate: if mutants == 0 {
            1.0
        } else {
            killed as f64 / mutants as f64
        },
        outcomes,
    };
    println!(
        "{}",
        serde_json::to_string_pretty(&serde::Serialize::to_value(&report)).expect("serializable")
    );
    if false_rejects > 0 || killed < mutants {
        eprintln!("cert_mutate: FAIL ({killed}/{mutants} killed, {false_rejects} false reject(s))");
        ExitCode::FAILURE
    } else {
        eprintln!("cert_mutate: PASS ({killed}/{mutants} killed, 0 false rejects)");
        ExitCode::SUCCESS
    }
}
