//! The closed-loop driver shared by the `certify`, `cert_roundtrip` and
//! `simulate` workloads: one client issues the next operation when the
//! previous one returns.

use crate::stats::{median, min_samples};
use crate::trace::Tracer;
use crate::{vmhwm_kb, E2e, Outcome, Run, SETUP_REPS};
use mmio_parallel::Pool;
use std::time::Instant;

/// Batch workloads report their tail as p75: at least 40 operations per run
/// keep ten samples beyond it.
pub const TAIL_P: f64 = 0.75;

pub trait Workload: Sized {
    type Op;
    type Out;

    /// Operations come in cycles of this many, each of which visits every
    /// input slot of the workload once. A run stops only at the end of a
    /// cycle, so every run times whole cycles.
    const CYCLE: usize;

    /// Everything a fresh process does before its first operation. Timed
    /// as `setup_s`; the benchmark sets up several times over a run, each
    /// time in place of the previous set-up, and reports the median time.
    fn setup(seed: u64, pool: &Pool, tr: &mut Tracer) -> Self;

    /// The `i`-th input of the run, a function of the seed and `i` only.
    fn op(&self, i: usize) -> Self::Op;

    /// How many leading operations cover every kind once (the warm-up).
    fn kinds(&self) -> usize;

    /// One operation. With tracing on it is split into spans around each
    /// public call it makes; its output must not change.
    fn execute(&self, op: &Self::Op, pool: &Pool, tr: &mut Tracer) -> Self::Out;

    /// Checks one output outside the timed region and returns a digest of
    /// its bytes, or what is wrong with it.
    fn check(&self, op: &Self::Op, out: &Self::Out) -> Result<u64, String>;

    /// Checks that span operations (`digests[i]` belongs to `op(i)`), also
    /// outside the timed region; returns the problems found.
    fn finish(&self, digests: &[u64], pool: &Pool, tr: &mut Tracer) -> Vec<String>;
}

struct Pass {
    lat_ms: Vec<f64>,
    digests: Vec<u64>,
    errors: Vec<String>,
}

/// Runs whole cycles of operations `0..` until their summed latency reaches
/// `budget_s` and at least `min_ops` ran, or — when `replay` is given —
/// re-runs all of that pass's operations in order and compares each output
/// with it. After operation `i`, outside its latency, it calls `between(i, w)`,
/// which may replace the set-up in `w`.
fn pass<W: Workload>(
    w: &mut Option<W>,
    pool: &Pool,
    tr: &mut Tracer,
    budget_s: f64,
    min_ops: usize,
    replay: Option<&Pass>,
    mut between: impl FnMut(usize, &mut Option<W>),
) -> Pass {
    let mut p = Pass {
        lat_ms: Vec::new(),
        digests: Vec::new(),
        errors: Vec::new(),
    };
    let mut spent = 0.0;
    for i in 0.. {
        let done = spent >= budget_s && i >= min_ops && i % W::CYCLE == 0;
        if done || replay.is_some_and(|r| i >= r.digests.len()) {
            break;
        }
        let wl = w.as_ref().expect("set up");
        let op = wl.op(i);
        tr.set_op(i as u64 + 1);
        let t = Instant::now();
        let out = tr.span("bench.op", |tr| wl.execute(&op, pool, tr));
        let dt = t.elapsed().as_secs_f64();
        spent += dt;
        p.lat_ms.push(dt * 1e3);
        match wl.check(&op, &out) {
            Ok(d) => {
                if let Some(r) = replay {
                    if r.digests[i] != d {
                        p.errors
                            .push(format!("op {i}: traced output differs from untraced"));
                    }
                }
                p.digests.push(d);
            }
            Err(e) => {
                p.errors.push(format!("op {i}: {e}"));
                p.digests.push(0);
            }
        }
        drop(out);
        between(i, w);
    }
    p
}

/// Sets up again in place of the set-up in `w`, which is dropped first, so
/// that two set-ups are never alive at once (peak RSS counts one). Inputs
/// depend only on the seed and their index, so the new set-up carries on
/// where the old one stopped. Returns the time the set-up took.
fn timed_setup<W: Workload>(
    w: &mut Option<W>,
    seed: u64,
    pool: &Pool,
    tr: &mut Tracer,
    rep: usize,
) -> f64 {
    *w = None;
    tr.set_op(u64::MAX - rep as u64);
    let t = Instant::now();
    *w = Some(tr.span("bench.setup", |tr| W::setup(seed, pool, tr)));
    t.elapsed().as_secs_f64()
}

pub fn run<W: Workload>(seed: u64, seconds: f64, traced: bool, pool: &Pool) -> Run {
    let mut tr = Tracer::new(traced);
    let mut w = None;
    let mut setup_s = vec![timed_setup::<W>(&mut w, seed, pool, &mut tr, 0)];

    let mut off = Tracer::new(false);
    if let Some(wl) = &w {
        for i in 0..wl.kinds() {
            wl.execute(&wl.op(i), pool, &mut off);
        }
    }

    if !traced {
        // The other set-ups are spread over the operations every run times,
        // so that their median does not rest on one stretch of a shared
        // host's speed. They fall after fixed operations, not at fixed
        // times, so the allocation history, and with it the peak RSS, does
        // not depend on the host's speed.
        let min_ops = min_samples(TAIL_P);
        let every = min_ops / SETUP_REPS;
        let p = pass(&mut w, pool, &mut off, seconds, min_ops, None, |i, w| {
            if (i + 1) % every == 0 && setup_s.len() < SETUP_REPS {
                let rep = setup_s.len();
                setup_s.push(timed_setup(w, seed, pool, &mut Tracer::new(false), rep));
            }
        });
        let wl = w.as_ref().expect("set up");
        let mut errors = p.errors;
        errors.extend(wl.finish(&p.digests, pool, &mut off));
        let n = p.lat_ms.len();
        return Run {
            outcome: Outcome::new(n as u64, errors),
            e2e: Some(E2e {
                setup_s,
                ops_per_s: n as f64 / (p.lat_ms.iter().sum::<f64>() / 1e3),
                tail_p: TAIL_P,
                tail_window: n.max(1),
                lat_ms: p.lat_ms,
                rss_kb: vmhwm_kb("self"),
            }),
            tracer: None,
        };
    }

    // Traced run: the set-ups' spans, an untraced pass, then the same
    // operations again with spans, each output compared with its untraced
    // twin.
    for rep in 1..SETUP_REPS {
        timed_setup(&mut w, seed, pool, &mut tr, rep);
    }
    let plain = pass(&mut w, pool, &mut off, seconds / 2.0, 1, None, |_, _| {});
    let spanned = pass(
        &mut w,
        pool,
        &mut tr,
        f64::INFINITY,
        1,
        Some(&plain),
        |_, _| {},
    );
    let wl = w.as_ref().expect("set up");
    let n = spanned.lat_ms.len();
    let mut errors = plain.errors;
    errors.extend(spanned.errors);
    errors.extend(wl.finish(&spanned.digests, pool, &mut tr));
    tr.set_op(0);
    tr.count(
        "trace.overhead_ms",
        median(&spanned.lat_ms) - median(&plain.lat_ms),
    );
    Run {
        outcome: Outcome::new((plain.lat_ms.len() + n) as u64, errors),
        e2e: None,
        tracer: Some(tr),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static LIVE: AtomicUsize = AtomicUsize::new(0);
    static MAX_LIVE: AtomicUsize = AtomicUsize::new(0);
    static SETUPS: AtomicUsize = AtomicUsize::new(0);

    /// A workload that counts how many of its set-ups are alive at once.
    struct Counted {
        seed: u64,
    }

    impl Drop for Counted {
        fn drop(&mut self) {
            LIVE.fetch_sub(1, Ordering::SeqCst);
        }
    }

    impl Workload for Counted {
        type Op = u64;
        type Out = u64;
        const CYCLE: usize = 3;

        fn setup(seed: u64, _pool: &Pool, _tr: &mut Tracer) -> Counted {
            SETUPS.fetch_add(1, Ordering::SeqCst);
            let live = LIVE.fetch_add(1, Ordering::SeqCst) + 1;
            MAX_LIVE.fetch_max(live, Ordering::SeqCst);
            Counted { seed }
        }

        fn op(&self, i: usize) -> u64 {
            self.seed + i as u64
        }

        fn kinds(&self) -> usize {
            1
        }

        fn execute(&self, op: &u64, _pool: &Pool, _tr: &mut Tracer) -> u64 {
            op * 2
        }

        fn check(&self, op: &u64, out: &u64) -> Result<u64, String> {
            (*out == op * 2).then_some(*out).ok_or("wrong".into())
        }

        fn finish(&self, digests: &[u64], _pool: &Pool, _tr: &mut Tracer) -> Vec<String> {
            let want: Vec<u64> = (0..digests.len()).map(|i| self.op(i) * 2).collect();
            if digests == want {
                Vec::new()
            } else {
                vec!["digests out of order".into()]
            }
        }
    }

    /// Every run sets up `SETUP_REPS` times, never holding two set-ups at
    /// once, so peak RSS is one set-up's however many times it repeats;
    /// runs end on a whole cycle with at least the tail's sample count.
    #[test]
    fn one_setup_alive_at_a_time_and_whole_cycles() {
        let pool = Pool::serial();
        for traced in [false, true] {
            let run = run::<Counted>(5, 1e-9, traced, &pool);
            assert!(run.outcome.correct(), "{:?}", run.outcome.errors);
            if let Some(e) = &run.e2e {
                assert_eq!(e.setup_s.len(), SETUP_REPS);
                assert!(e.lat_ms.len() >= min_samples(TAIL_P));
                assert_eq!(e.lat_ms.len() % Counted::CYCLE, 0);
            }
        }
        assert_eq!(SETUPS.load(Ordering::SeqCst), 2 * SETUP_REPS);
        assert_eq!(MAX_LIVE.load(Ordering::SeqCst), 1);
        assert_eq!(LIVE.load(Ordering::SeqCst), 0);
    }
}
