//! `mmio_benchmark`: the repository's one benchmark. It drives the public
//! functions of every layer from outside, on seeded workloads, and prints
//! the end-to-end metrics, or with `--trace 1` the per-layer ones. See
//! README.md for what each workload and metric is for.
//!
//! ```text
//! mmio_benchmark [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
//!                [--out FILE] [--trace-out FILE]
//! mmio_benchmark compare PARENT.jsonl CHANGE.jsonl [--bench BENCHMARK.json]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
//! Any wrong answer makes the exit code nonzero.

#![forbid(unsafe_code)]

mod batch;
mod certify;
mod compare;
mod roundtrip;
mod serve;
mod simulate;
mod stats;
mod trace;

use mmio_parallel::Pool;
use serde::Value;
use stats::{median, quartiles, windowed_percentile};
use std::io::Write;
use std::process::ExitCode;
use trace::Tracer;

pub const WORKLOADS: [&str; 4] = ["certify", "cert_roundtrip", "simulate", "serve_mix"];

/// Set-up runs this many times per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 9;

/// End-to-end metrics: `(name, unit, better)`.
pub const END_TO_END: [(&str, &str, &str); 5] = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "ops/s", "higher"),
    ("p50_ms", "ms", "lower"),
    ("tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// How a per-layer metric is read off the traced run.
#[derive(Clone, Copy)]
pub enum How {
    /// Per-op median of the summed time of the named spans, in ms.
    Ms(&'static str),
    /// As `Ms`, in µs.
    Us(&'static str),
    /// Per-op median of the summed count of the same name.
    Count,
    /// Run total of the count of the same name.
    Total,
    /// Run total of a count over the total time of some spans, per second,
    /// divided by the last field.
    Rate(&'static str, &'static [&'static str], f64),
    /// Median share of an operation's time its child spans cover.
    Coverage,
    /// Compute threads.
    Threads,
}

/// Per-layer metrics: `(name, unit, better, how)`. A layer a workload never
/// calls reads 0.
pub const PER_LAYER: [(&str, &str, &str, How); 41] = [
    ("cdag.build_ms", "ms", "lower", How::Ms("cdag.build")),
    ("cdag.view_ms", "ms", "lower", How::Ms("cdag.view")),
    ("cdag.meta_ms", "ms", "lower", How::Ms("cdag.meta")),
    ("cdag.vertices", "count", "lower", How::Count),
    ("pebble.order_ms", "ms", "lower", How::Ms("pebble.order")),
    ("pebble.sweep_ms", "ms", "lower", How::Ms("pebble.sweep")),
    ("pebble.record_ms", "ms", "lower", How::Ms("pebble.record")),
    (
        "pebble.steps_per_s",
        "1/s",
        "higher",
        How::Rate("pebble.steps", &["pebble.sweep"], 1.0),
    ),
    ("pebble.io", "count", "lower", How::Count),
    ("core.choose_k_ms", "ms", "lower", How::Ms("core.choose_k")),
    ("core.lemma1_ms", "ms", "lower", How::Ms("core.lemma1")),
    (
        "core.counted_mask_ms",
        "ms",
        "lower",
        How::Ms("core.counted_mask"),
    ),
    ("core.segments_ms", "ms", "lower", How::Ms("core.segments")),
    ("core.complete_segments", "count", "higher", How::Count),
    (
        "core.routing_class_ms",
        "ms",
        "lower",
        How::Ms("core.routing_class"),
    ),
    ("core.emit_ms", "ms", "lower", How::Ms("core.emit")),
    (
        "parallel.assign_ms",
        "ms",
        "lower",
        How::Ms("parallel.assign"),
    ),
    (
        "parallel.distsim_ms",
        "ms",
        "lower",
        How::Ms("parallel.distsim"),
    ),
    ("parallel.words", "count", "lower", How::Count),
    (
        "parallel.words_per_s",
        "1/s",
        "higher",
        How::Rate("parallel.words", &["parallel.distsim"], 1.0),
    ),
    ("pool.threads", "count", "higher", How::Threads),
    (
        "analyze.target_ms",
        "ms",
        "lower",
        How::Ms("analyze.target"),
    ),
    ("cert.encode_ms", "ms", "lower", How::Ms("cert.encode")),
    ("cert.parse_ms", "ms", "lower", How::Ms("cert.parse")),
    ("cert.decode_ms", "ms", "lower", How::Ms("cert.decode")),
    ("cert.verify_ms", "ms", "lower", How::Ms("cert.verify")),
    ("cert.bytes", "count", "lower", How::Count),
    (
        "cert.verify_mb_per_s",
        "MB/s",
        "higher",
        How::Rate(
            "cert.bytes",
            &["cert.parse", "cert.decode", "cert.verify"],
            1e6,
        ),
    ),
    ("cert.mutants_killed", "count", "higher", How::Total),
    (
        "serve.recovery_ms",
        "ms",
        "lower",
        How::Ms("serve.recovery"),
    ),
    (
        "serve.protocol_us",
        "us",
        "lower",
        How::Us("serve.protocol"),
    ),
    (
        "serve.cache_get_us",
        "us",
        "lower",
        How::Us("serve.cache_get"),
    ),
    (
        "serve.reverify_ms",
        "ms",
        "lower",
        How::Ms("serve.reverify"),
    ),
    ("serve.compute_ms", "ms", "lower", How::Ms("serve.compute")),
    (
        "serve.cache_put_ms",
        "ms",
        "lower",
        How::Ms("serve.cache_put"),
    ),
    ("serve.hit_ratio", "ratio", "higher", How::Count),
    ("serve.shed", "count", "lower", How::Count),
    ("serve.deadlines", "count", "lower", How::Count),
    ("serve.wait_ms", "ms", "lower", How::Count),
    ("trace.overhead_ms", "ms", "lower", How::Count),
    ("trace.coverage", "ratio", "higher", How::Coverage),
];

/// What a run measured for the end-to-end metrics.
pub struct E2e {
    pub setup_s: Vec<f64>,
    pub ops_per_s: f64,
    /// The tail percentile this workload reports as `tail_ms`, taken over
    /// each window of this many consecutive operations (see
    /// [`stats::windowed_percentile`]).
    pub tail_p: f64,
    pub tail_window: usize,
    pub lat_ms: Vec<f64>,
    pub rss_kb: u64,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Outcome {
    /// Every error is one wrong answer.
    pub fn new(attempted: u64, errors: Vec<String>) -> Outcome {
        Outcome::counted(attempted, errors.len() as u64, errors)
    }

    pub fn counted(attempted: u64, failed: u64, errors: Vec<String>) -> Outcome {
        Outcome {
            attempted: attempted.max(1),
            failed,
            errors,
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }
}

pub struct Run {
    pub outcome: Outcome,
    pub e2e: Option<E2e>,
    pub tracer: Option<Tracer>,
}

/// The peak resident set (`VmHWM`), in kB, of process `pid` (or `"self"`).
pub fn vmhwm_kb(pid: &str) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

fn layer_value(tr: &Tracer, name: &str, how: How, threads: usize) -> f64 {
    match how {
        How::Ms(span) => tr.median_ms(span),
        How::Us(span) => tr.median_ms(span) * 1e3,
        How::Count => tr.median_count(name),
        How::Total => tr.total_count(name),
        How::Rate(count, spans, scale) => {
            let ms: f64 = spans.iter().map(|s| tr.total_ms(s)).sum();
            if ms > 0.0 {
                tr.total_count(count) / (ms / 1e3) / scale
            } else {
                0.0
            }
        }
        How::Coverage => tr.coverage("bench.op"),
        How::Threads => threads as f64,
    }
}

fn metric(value: f64, unit: &str) -> Value {
    Value::Object(vec![
        ("value".into(), Value::Float(value)),
        ("unit".into(), Value::Str(unit.into())),
    ])
}

/// The end-to-end metrics, and one human line per metric.
fn e2e_metrics(workload: &str, e: &E2e) -> (Vec<(String, Value)>, Vec<String>) {
    let (lq1, _, lq3) = quartiles(&e.lat_ms);
    let (sq1, _, sq3) = quartiles(&e.setup_s);
    let n = e.lat_ms.len();
    let (tail, windows) = windowed_percentile(&e.lat_ms, e.tail_p, e.tail_window);
    let rows = [
        (median(&e.setup_s), e.setup_s.len(), Some((sq1, sq3))),
        (e.ops_per_s, n, None),
        (median(&e.lat_ms), n, Some((lq1, lq3))),
        (tail, n, None),
        (e.rss_kb as f64 * 1024.0 / 1e6, 1, None),
    ];
    let mut metrics = Vec::new();
    let mut lines = Vec::new();
    for ((name, unit, _), (value, n, q)) in END_TO_END.iter().zip(rows) {
        metrics.push((name.to_string(), metric(value, unit)));
        let spread = match q {
            Some((q1, q3)) => format!("q1={q1:.4}, q3={q3:.4}"),
            None if *name == "tail_ms" && windows > 1 => format!(
                "p{} of each {} in order, median of {windows}",
                e.tail_p * 100.0,
                e.tail_window
            ),
            None if *name == "tail_ms" => format!("p{}", e.tail_p * 100.0),
            None => "-".into(),
        };
        lines.push(format!(
            "{workload} {name} {value:.4} {unit} (n={n}, {spread})"
        ));
    }
    (metrics, lines)
}

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    trace_out: Option<String>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        out: None,
        trace_out: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?} ({})", WORKLOADS.join("|")));
                }
                a.workloads.push(w);
            }
            "--seed" => a.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "bad --seconds")?;
                if a.seconds.is_nan() || a.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => a.out = Some(value()?),
            "--trace-out" => a.trace_out = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.trace_out.is_some() && a.workloads.len() != 1 {
        // Each workload would overwrite the one file.
        return Err("--trace-out needs exactly one --workload".into());
    }
    Ok(a)
}

fn run_workload(a: &Args, workload: &str) -> Result<bool, String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = Pool::new(threads);
    let run = match workload {
        "certify" => batch::run::<certify::Certify>(a.seed, a.seconds, a.trace, &pool),
        "cert_roundtrip" => batch::run::<roundtrip::Roundtrip>(a.seed, a.seconds, a.trace, &pool),
        "simulate" => batch::run::<simulate::Simulate>(a.seed, a.seconds, a.trace, &pool),
        "serve_mix" => serve::run(a.seed, a.seconds, a.trace, &pool),
        other => unreachable!("validated workload {other}"),
    };
    for e in run.outcome.errors.iter().take(20) {
        eprintln!("{workload}: WRONG: {e}");
    }

    let mut metrics = Vec::new();
    if let Some(e2e) = &run.e2e {
        let (m, lines) = e2e_metrics(workload, e2e);
        metrics = m;
        for l in lines {
            println!("{l}");
        }
    }
    if let Some(tr) = &run.tracer {
        for l in tr.layer_table() {
            println!("{workload} | {l}");
        }
        for (name, unit, _, how) in PER_LAYER {
            metrics.push((
                name.to_string(),
                metric(layer_value(tr, name, how, threads), unit),
            ));
        }
        if let Some(path) = &a.trace_out {
            std::fs::write(path, tr.chrome_json()).map_err(|e| format!("{path}: {e}"))?;
        }
    }
    println!(
        "{workload}: host_cores={threads} pool_threads={} seed={} correct={}",
        pool.threads(),
        a.seed,
        run.outcome.correct()
    );

    let result = vec![
        ("correct".to_string(), Value::Bool(run.outcome.correct())),
        ("attempted".to_string(), Value::UInt(run.outcome.attempted)),
        ("failed".to_string(), Value::UInt(run.outcome.failed)),
        ("metrics".to_string(), Value::Object(metrics)),
    ];
    if let Some(path) = &a.out {
        let mut record = vec![
            ("workload".to_string(), Value::Str(workload.into())),
            ("seed".to_string(), Value::UInt(a.seed)),
            ("seconds".to_string(), Value::Float(a.seconds)),
            ("trace".to_string(), Value::Bool(a.trace)),
            ("host_cores".to_string(), Value::UInt(threads as u64)),
        ];
        record.extend(result.iter().cloned());
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{path}: {e}"))?;
        writeln!(
            f,
            "{}",
            serde_json::to_string(&Value::Object(record)).expect("renders")
        )
        .map_err(|e| format!("{path}: {e}"))?;
    }
    println!(
        "{}",
        serde_json::to_string(&Value::Object(result)).expect("renders")
    );
    Ok(run.outcome.correct())
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    let result = match args.peek().map(String::as_str) {
        Some("compare") => compare::main(args.skip(1).collect()),
        Some("serve-child") => match (args.nth(1), args.next()) {
            (Some(sock), Some(memo)) => serve::child_main(&sock, &memo).map(|()| true),
            _ => Err("serve-child SOCKET MEMO_DIR".into()),
        },
        _ => parse_args(args).and_then(|a| match a.workloads.as_slice() {
            [one] => run_workload(&a, one),
            // Several workloads: each in a child of this binary, so peak
            // RSS, allocator and caches are its own.
            many => {
                let many: Vec<&str> = if many.is_empty() {
                    WORKLOADS.to_vec()
                } else {
                    many.iter().map(String::as_str).collect()
                };
                let exe = std::env::current_exe().map_err(|e| e.to_string())?;
                let passthrough: Vec<String> = std::env::args()
                    .skip(1)
                    .collect::<Vec<_>>()
                    .chunks(2)
                    .filter(|kv| kv[0] != "--workload")
                    .flatten()
                    .cloned()
                    .collect();
                let mut ok = true;
                for w in many {
                    let status = std::process::Command::new(&exe)
                        .args(["--workload", w])
                        .args(&passthrough)
                        .status()
                        .map_err(|e| e.to_string())?;
                    ok &= status.success();
                }
                Ok(ok)
            }
        }),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("mmio_benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names, units and directions here are the ones
    /// BENCHMARK.json at the repository root declares, in the same order.
    #[test]
    fn benchmark_json_declares_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let v: Value = serde_json::from_str(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String, String)> {
            match v.get(key) {
                Some(Value::Array(items)) => items
                    .iter()
                    .map(|m| {
                        let s = |k| match m.get(k) {
                            Some(Value::Str(s)) => s.clone(),
                            _ => String::new(),
                        };
                        (s("name"), s("unit"), s("better"))
                    })
                    .collect(),
                _ => Vec::new(),
            }
        };
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<_> = PER_LAYER
            .iter()
            .map(|(n, u, b, _)| (n.to_string(), u.to_string(), b.to_string()))
            .collect();
        assert_eq!(names("per_layer"), layers);
        let workloads: Vec<String> = match v.get("workloads") {
            Some(Value::Array(w)) => w
                .iter()
                .filter_map(|w| match w.get("name") {
                    Some(Value::Str(s)) => Some(s.clone()),
                    _ => None,
                })
                .collect(),
            _ => Vec::new(),
        };
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn arguments_parse_and_reject() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload simulate --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workloads, a.seed, a.seconds, a.trace),
            (vec!["simulate".into()], 7, 3.0, true)
        );
        assert!(parse("--workload nope").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--workload certify --trace 1 --trace-out t.json").is_ok());
        assert!(parse("--trace 1 --trace-out t.json").is_err());
        assert!(parse("--workload certify --workload simulate --trace-out t.json").is_err());
    }
}
