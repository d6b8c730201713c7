//! `mmio` — the command-line front door to the workspace.
//!
//! ```text
//! mmio list                         all built-in algorithms
//! mmio info <algo>                  parameters + structural classification
//! mmio verify <algo|file.json>      exact tensor check
//! mmio export <algo>                base graph as JSON (stdout)
//! mmio simulate <algo> <r> <M>      I/O of the recursive schedule
//! mmio certify <algo> <r> <M>       machine-checked lower-bound certificate
//! mmio routing <algo> <k> [r]       construct + verify the 6a^k-routing
//!                                   (with r: transport into all copies in G_r)
//! mmio report <algo> <r> <M>        full JSON analysis report
//! mmio analyze <algo|all> [r] [--json]   static analysis & certification
//! mmio check [--json]               concurrency soundness suite
//! mmio cert emit <algo|all> [r] [--out DIR] [--json]
//!                                   emit proof-carrying certificates
//! mmio cert verify <files|DIR...> [--json]
//!                                   verify certificates (standalone verifier)
//! mmio audit [--json] [--baseline FILE]
//!                                   whole-workspace static soundness audit
//! mmio distsim <algo> <k> [--procs P] [--mem M] [--assign S] [--topo T] [--json]
//!                                   P-processor distributed simulation
//!                                   (optionally α-β-γ contended on T)
//! mmio codes                        merged diagnostic-code registry
//! ```
//!
//! `<algo>` is a built-in name (`mmio list`) or a path to a JSON base-graph
//! file (see `mmio export`). The flags `--json` and `--out DIR` may stand
//! anywhere: operands are counted after they are removed. A flag that the
//! command does not read, or an operand past its last one, is a usage
//! error (exit 2).
//!
//! The global flag `--threads N` (or the `MMIO_THREADS` environment
//! variable; default: all available cores) sets the worker count for the
//! parallel verification paths. Output is byte-identical at any thread
//! count.
//!
//! The global flag `--view explicit|implicit|auto` (default: `auto`) picks
//! the `G_r` representation for `simulate`, `certify`, `routing`,
//! `distsim` and `cert emit`: `explicit` materializes the graph,
//! `implicit` runs on the closed-form [`mmio_cdag::IndexView`] (memory
//! independent of `b^r`), and `auto` switches to the implicit view once
//! the vertex count exceeds a fixed budget. The output of `simulate`,
//! `certify`, `routing` and `distsim` is byte-identical across views.
//! `cert emit` is not: under the implicit view its schedule and sweep
//! witnesses are capped at depth 4 (see `emit_certs_for`), so at `r ≥ 5`
//! it writes different files than the explicit view.

#![forbid(unsafe_code)]

use mmio_algos::registry::all_base_graphs;
use mmio_cdag::build::build_cdag;
use mmio_cdag::connectivity::classify;
use mmio_cdag::serialize;
use mmio_cdag::{BaseGraph, IndexView};
use mmio_core::theorem1::LowerBound;
use mmio_core::theorem2::InOutRouting;
use mmio_core::transport::{verify_transported, RoutingClass};
use mmio_parallel::Pool;
use mmio_pebble::orders::recursive_order;
use mmio_pebble::policy::Belady;
use mmio_pebble::{AutoScheduler, ViewGraph};
use mmio_serve::ops::{self, use_implicit, ViewMode};
use std::process::ExitCode;

fn print_usage() {
    eprintln!(
        "usage: mmio [--threads N] [--view explicit|implicit|auto] <command> [args]\n\
         commands:\n  \
         list\n  \
         info     <algo>\n  \
         verify   <algo|file.json>\n  \
         export   <algo>\n  \
         simulate <algo> <r> <M>\n  \
         certify  <algo> <r> <M>\n  \
         routing  <algo> <k> [r]\n  \
         report   <algo> <r> <M>\n  \
         analyze  <algo|all> [r] [--json]\n  \
         check    [--json]\n  \
         cert     emit <algo|all> [r] [--out DIR] [--json]\n  \
         cert     verify <files|DIR...> [--json]\n  \
         serve    --socket PATH [--cache DIR] [--workers N] \
         [--queue-cap N] [--deadline-ms N]\n  \
         audit    [--json] [--baseline FILE]\n  \
         distsim  <algo> <k> [--procs P] [--mem M] \
         [--assign cyclic|block|subtree|one] [--topo full|ring|torus] [--json]\n  \
         codes"
    );
}

/// A typed CLI failure carrying its stable process exit code. The codes
/// are part of the interface — scripts and CI match on them:
///
/// | exit | meaning                                                |
/// |------|--------------------------------------------------------|
/// | 1    | verification/analysis rejected the input (work ran)    |
/// | 2    | usage error: bad flags, missing or invalid arguments   |
/// | 3    | I/O error: unreadable input, unwritable output         |
/// | 4    | malformed input: unknown algorithm, bad JSON           |
#[derive(Debug, PartialEq, Eq)]
enum CliError {
    /// The command line itself is wrong (exit 2; usage is printed).
    Usage(String),
    /// A file or directory could not be read, written, or created (exit 3).
    Io {
        /// The path involved.
        path: String,
        /// The underlying error.
        detail: String,
    },
    /// The input was read but is not valid (exit 4).
    BadInput(String),
    /// The tool ran and rejected its input on the merits (exit 1).
    Verification(String),
}

impl CliError {
    /// The stable process exit code for this failure class.
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Verification(_) => 1,
            CliError::Usage(_) => 2,
            CliError::Io { .. } => 3,
            CliError::BadInput(_) => 4,
        }
    }

    /// An I/O failure at `path`.
    fn io(path: impl std::fmt::Display, detail: impl std::fmt::Display) -> CliError {
        CliError::Io {
            path: path.to_string(),
            detail: detail.to_string(),
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) | CliError::BadInput(m) | CliError::Verification(m) => {
                f.write_str(m)
            }
            CliError::Io { path, detail } => write!(f, "{path}: {detail}"),
        }
    }
}

// Bare string errors throughout `run` are argument problems (missing or
// invalid values) — usage errors by default; the I/O and input paths
// construct their variants explicitly.
impl From<&str> for CliError {
    fn from(m: &str) -> CliError {
        CliError::Usage(m.to_string())
    }
}

impl From<String> for CliError {
    fn from(m: String) -> CliError {
        CliError::Usage(m)
    }
}

/// Strips a `FLAG VALUE` pair (anywhere in the argument list) and returns
/// the value, so that positional operands keep their indices whatever the
/// flag order.
fn extract_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if i + 1 == args.len() {
        return Err(format!("missing value for {flag}"));
    }
    let value = args.remove(i + 1);
    args.remove(i);
    Ok(Some(value))
}

/// Fails with a usage error on anything the command `args[0]` does not
/// read: one of the `given` position-free flags (stripped before the
/// command was known) that is not in `reads`, a `--flag` left over after
/// the command stripped its own, or an operand past its first `operands`.
fn reject_unread(
    args: &[String],
    operands: usize,
    given: &[&str],
    reads: &[&str],
) -> Result<(), CliError> {
    let unread = given.iter().copied().filter(|f| !reads.contains(f));
    let leftover = args
        .iter()
        .map(String::as_str)
        .filter(|a| a.starts_with("--"));
    if let Some(flag) = unread.chain(leftover).next() {
        return Err(CliError::Usage(format!("{} does not take {flag}", args[0])));
    }
    match args[1..].get(operands) {
        Some(extra) => Err(CliError::Usage(format!("unexpected argument '{extra}'"))),
        None => Ok(()),
    }
}

/// Strips a `--threads N` flag and returns the explicit worker count, if
/// any. `Pool::from_env` falls back to the `MMIO_THREADS` environment
/// variable, then to `available_parallelism`.
fn extract_threads(args: &mut Vec<String>) -> Result<Option<usize>, String> {
    extract_value(args, "--threads")?
        .map(|n| n.parse().map_err(|_| "invalid --threads value".to_string()))
        .transpose()
}

/// Strips a `--view MODE` flag; defaults to [`ViewMode::Auto`].
fn extract_view(args: &mut Vec<String>) -> Result<ViewMode, String> {
    match extract_value(args, "--view")?.as_deref() {
        None | Some("auto") => Ok(ViewMode::Auto),
        Some("explicit") => Ok(ViewMode::Explicit),
        Some("implicit") => Ok(ViewMode::Implicit),
        Some(other) => Err(format!("invalid --view '{other}'")),
    }
}

fn resolve(name: &str) -> Result<BaseGraph, CliError> {
    if let Some(base) = ops::resolve_registry(name) {
        return Ok(base);
    }
    if name.ends_with(".json") {
        let json = std::fs::read_to_string(name).map_err(|e| CliError::io(name, e))?;
        return serialize::from_json(&json).map_err(|e| CliError::BadInput(format!("{name}: {e}")));
    }
    Err(CliError::BadInput(format!(
        "unknown algorithm '{name}' (try `mmio list` or pass a .json file)"
    )))
}

fn parse<T: std::str::FromStr>(arg: Option<&String>, what: &str) -> Result<T, CliError> {
    arg.ok_or_else(|| CliError::Usage(format!("missing {what}")))?
        .parse()
        .map_err(|_| CliError::Usage(format!("invalid {what}")))
}

/// Emits the certificate suite for one algorithm at depth `r ≥ 1`: a routing
/// certificate (Theorem 2 paths + Fact-1 transport), a schedule-legality
/// witness, and an LRU sweep witness. Depths are capped exactly like
/// `mmio analyze` so path enumeration and graph size stay tractable.
/// Bases without a Hall matching simply skip the routing certificate.
///
/// The routing certificate only ever builds `G_k` (the transport into `G_r`
/// is symbolic), so it is cheap at any `r`. The schedule and sweep witnesses
/// replay explicit schedules, so under the implicit view their depth is
/// additionally capped at 4 — the routing certificate is the scaling story.
fn emit_certs_for(
    base: &BaseGraph,
    r: u32,
    pool: &Pool,
    implicit: bool,
) -> Vec<(String, mmio_cert::Certificate)> {
    use mmio_pebble::cert::{emit_schedule_certificate, emit_sweep_certificate};
    use mmio_pebble::sweep::{sweep, PolicySpec};

    let name = base.name();
    let mut out = Vec::new();

    let routing_k = r.min(if base.a() >= 16 { 1 } else { 2 });
    if let Some(class) = RoutingClass::build(base, routing_k, pool) {
        out.push((
            format!("{name}__routing_k{routing_k}_r{r}.json"),
            mmio_core::transport::emit_certificate(&class, r),
        ));
    }

    let mut sched_r = if base.b() > 30 { r.min(2) } else { r };
    if implicit {
        sched_r = sched_r.min(4);
    }
    let g = build_cdag(base, sched_r);
    let need = g.vertices().map(|v| g.preds(v).len()).max().unwrap_or(1) + 1;
    let m = need + 4;
    let order = recursive_order(&g);
    let (_, sched) = AutoScheduler::new(&g, m).run_recorded(&order, &Belady);
    out.push((
        format!("{name}__schedule_r{sched_r}_m{m}.json"),
        emit_schedule_certificate(&g, m, &sched),
    ));

    let ms = [2, need, 4 * need];
    let points = sweep(&g, &[&order], &[PolicySpec::Lru], &ms, pool);
    out.push((
        format!("{name}__sweep_r{sched_r}.json"),
        emit_sweep_certificate(&g, &PolicySpec::Lru, &points),
    ));
    out
}

/// Builds the named assignment strategy and runs the distributed
/// simulation on `g` — generic over the view so `mmio distsim` scales to
/// implicit instances whose `G_r` never fits in memory. Returns the
/// outcome together with the resolved cache size.
fn run_distsim<V: mmio_cdag::CdagView + Sync>(
    g: &V,
    p: u32,
    mem: Option<usize>,
    assign: &str,
    machine: Option<mmio_parallel::distsim::MachineModel>,
    pool: &Pool,
) -> Result<(mmio_parallel::distsim::DistOutcome, usize), CliError> {
    use mmio_parallel::assign;
    let a = match assign {
        "cyclic" => assign::cyclic_per_rank(g, p),
        "block" => assign::block_per_rank(g, p),
        "subtree" => assign::by_top_subproblem(g, p),
        "one" => assign::all_on_one(g, p),
        other => {
            return Err(CliError::Usage(format!(
                "invalid --assign '{other}' (cyclic|block|subtree|one)"
            )))
        }
    };
    let need = g.max_indegree() + 1;
    let m = mem.unwrap_or_else(|| need.max(16));
    if m < need {
        return Err(CliError::BadInput(
            mmio_pebble::CacheTooSmall { m, need }.to_string(),
        ));
    }
    let order = recursive_order(g);
    let outcome = mmio_parallel::distsim::simulate_on(g, &a, &order, m, machine, pool);
    Ok((outcome, m))
}

/// Expands `mmio cert verify` operands: directories become their sorted
/// `*.json` entries, files pass through.
fn expand_cert_paths(operands: &[String]) -> Result<Vec<std::path::PathBuf>, CliError> {
    let mut files = Vec::new();
    for op in operands {
        let path = std::path::Path::new(op.as_str());
        if path.is_dir() {
            let mut entries: Vec<_> = std::fs::read_dir(path)
                .map_err(|e| CliError::io(op, e))?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "json"))
                .collect();
            entries.sort();
            files.extend(entries);
        } else {
            files.push(path.to_path_buf());
        }
    }
    Ok(files)
}

fn run() -> Result<ExitCode, CliError> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let explicit_threads = extract_threads(&mut args)?;
    let view = extract_view(&mut args)?;
    let out_dir = extract_value(&mut args, "--out")?;
    let json = args.iter().any(|a| a == "--json");
    args.retain(|a| a != "--json");
    let given: Vec<&str> = [("--json", json), ("--out", out_dir.is_some())]
        .into_iter()
        .filter_map(|(flag, set)| set.then_some(flag))
        .collect();
    let pool = Pool::from_env(explicit_threads);
    let Some(cmd) = args.first().cloned() else {
        return Err("no command".into());
    };
    match cmd.as_str() {
        "list" => {
            reject_unread(&args, 0, &given, &[])?;
            println!(
                "{:<22} {:>3} {:>3} {:>4} {:>8} {:>6}",
                "name", "n0", "a", "b", "ω₀", "fast"
            );
            for g in all_base_graphs() {
                println!(
                    "{:<22} {:>3} {:>3} {:>4} {:>8.4} {:>6}",
                    g.name(),
                    g.n0(),
                    g.a(),
                    g.b(),
                    g.omega0(),
                    g.is_fast()
                );
            }
        }
        "info" => {
            reject_unread(&args, 1, &given, &[])?;
            let base = resolve(args.get(1).ok_or("missing algorithm")?)?;
            let props = classify(&base);
            println!(
                "{}",
                serde_json::to_string_pretty(&props).expect("serializable")
            );
        }
        "verify" => {
            reject_unread(&args, 1, &given, &[])?;
            let base = resolve(args.get(1).ok_or("missing algorithm")?)?;
            match base.verify_correctness() {
                Ok(()) => println!(
                    "{}: correct ⟨{},{},{};{}⟩ algorithm (ω₀ = {:.4})",
                    base.name(),
                    base.n0(),
                    base.n0(),
                    base.n0(),
                    base.b(),
                    base.omega0()
                ),
                Err(errs) => {
                    return Err(CliError::Verification(format!(
                        "{}: {} tensor violations (first: {})",
                        base.name(),
                        errs.len(),
                        errs[0]
                    )))
                }
            }
        }
        "export" => {
            reject_unread(&args, 1, &given, &[])?;
            let base = resolve(args.get(1).ok_or("missing algorithm")?)?;
            println!("{}", serialize::to_json(&base));
        }
        "simulate" => {
            reject_unread(&args, 3, &given, &[])?;
            let base = resolve(args.get(1).ok_or("missing algorithm")?)?;
            let r =
                ops::check_depth(&base, parse(args.get(2), "r")?).map_err(CliError::BadInput)?;
            let m: usize = parse(args.get(3), "M")?;
            // Both paths run the identical engine on identical (preds,
            // order) data, so the stats — and this line — are byte-equal.
            let stats = if use_implicit(view, &base, r) {
                let v = IndexView::from_base(&base, r);
                let order = recursive_order(&v);
                let vg = ViewGraph::from_view(&v);
                AutoScheduler::try_new(&vg, m).map(|s| s.run(&order, &Belady))
            } else {
                let g = build_cdag(&base, r);
                let order = recursive_order(&g);
                AutoScheduler::try_new(&g, m).map(|s| s.run(&order, &Belady))
            }
            .map_err(|e| CliError::BadInput(e.to_string()))?;
            let n = mmio_cdag::index::pow(base.n0(), r);
            let bound = LowerBound::new(&base).sequential_io(n, m as u64);
            println!(
                "n = {n}, M = {m}: {} loads + {} stores = {} I/Os (Ω bound {:.0}, ratio {:.2})",
                stats.loads,
                stats.stores,
                stats.io(),
                bound,
                stats.io() as f64 / bound
            );
        }
        "certify" => {
            reject_unread(&args, 3, &given, &[])?;
            let base = resolve(args.get(1).ok_or("missing algorithm")?)?;
            let r =
                ops::check_depth(&base, parse(args.get(2), "r")?).map_err(CliError::BadInput)?;
            let m: u64 = parse(args.get(3), "M")?;
            // Rendered by the same function the serve tier uses, so a serve
            // `certify` response is byte-identical to this output.
            print!("{}", ops::certify_text(&base, r, m, view, &pool));
        }
        "routing" => {
            reject_unread(&args, 3, &given, &[])?;
            let base = resolve(args.get(1).ok_or("missing algorithm")?)?;
            let k =
                ops::check_depth(&base, parse(args.get(2), "k")?).map_err(CliError::BadInput)?;
            // Optional third argument r: transport into G_r, checked here
            // so a bad r fails before any output.
            let transport_r = match args.get(3) {
                Some(rarg) => {
                    let r = ops::check_depth(&base, rarg.parse().map_err(|_| "invalid r")?)
                        .map_err(CliError::BadInput)?;
                    if r < k {
                        return Err(CliError::Usage(format!("r = {r} must be ≥ k = {k}")));
                    }
                    Some(r)
                }
                None => None,
            };
            let g = build_cdag(&base, k);
            let routing = InOutRouting::new(&g).ok_or_else(|| {
                CliError::Verification(
                    "no n₀-capacity Hall matching (paper hypotheses fail)".to_string(),
                )
            })?;
            let stats = routing.verify_with(&pool);
            println!(
                "6a^k = {}: {} paths, max vertex hits {}, max meta hits {} → {}",
                routing.theorem2_bound(),
                stats.paths,
                stats.max_vertex_hits,
                stats.max_meta_hits,
                if stats.is_m_routing(routing.theorem2_bound()) {
                    "VERIFIED"
                } else {
                    "VIOLATED"
                }
            );
            // With r: build the routing *class* once and transport it into
            // every copy of G_k inside G_r (Fact 1), re-verifying each copy
            // against the real G_r edges.
            if let Some(r) = transport_r {
                let class = RoutingClass::build(&base, k, &pool)
                    .expect("Hall matching exists (verified above)");
                let tr = if use_implicit(view, &base, r) {
                    let gr = IndexView::from_base(&base, r);
                    verify_transported(&gr, &class, &pool)
                } else {
                    let gr = build_cdag(&base, r);
                    verify_transported(&gr, &class, &pool)
                };
                println!(
                    "transported into G_{r}: {} copies × {} paths, max hits {}/{} \
                     (bound {}), edge violations {}, uniform {} → {}",
                    tr.copies,
                    tr.paths_per_copy,
                    tr.max_vertex_hits,
                    tr.max_meta_hits,
                    tr.bound,
                    tr.edge_violations,
                    tr.uniform,
                    if tr.verified() {
                        "VERIFIED"
                    } else {
                        "VIOLATED"
                    }
                );
            }
        }
        "report" => {
            reject_unread(&args, 3, &given, &[])?;
            let base = resolve(args.get(1).ok_or("missing algorithm")?)?;
            let r =
                ops::check_depth(&base, parse(args.get(2), "r")?).map_err(CliError::BadInput)?;
            let m: u64 = parse(args.get(3), "M")?;
            let routing_k = if base.a() >= 16 { 1 } else { 2 };
            let report = mmio_core::report::analyze(&base, r, m, routing_k)
                .map_err(|e| CliError::BadInput(e.to_string()))?;
            println!(
                "{}",
                serde_json::to_string_pretty(&report).expect("serializable")
            );
        }
        "analyze" => {
            reject_unread(&args, 2, &given, &["--json"])?;
            let target = args.get(1).ok_or("missing algorithm (or 'all')")?;
            let explicit_r: Option<u32> = match args.get(2) {
                Some(a) => Some(a.parse().map_err(|_| "invalid r")?),
                None => None,
            };
            let bases = if target == "all" {
                all_base_graphs()
            } else {
                vec![resolve(target)?]
            };
            if let Some(r) = explicit_r {
                for base in &bases {
                    ops::check_depth(base, r).map_err(CliError::BadInput)?;
                }
            }
            // Flatten the (algorithm, r) targets, fan the analyses out over
            // the pool, and consume results in target order — so the output
            // is byte-identical to the serial loop at any thread count.
            let mut work: Vec<(usize, u32)> = Vec::new();
            for (bi, base) in bases.iter().enumerate() {
                let ranks: Vec<u32> = match explicit_r {
                    Some(r) => vec![r],
                    // Default sweep; G_3 of the tensor-square bases is too
                    // large to lint interactively.
                    None => (1..=if base.b() > 30 { 2 } else { 3 }).collect(),
                };
                work.extend(ranks.into_iter().map(|r| (bi, r)));
            }
            let results = pool.map(work.len(), |i| {
                let (bi, r) = work[i];
                ops::analyze_target(&bases[bi], r)
            });
            let mut summaries = Vec::new();
            let mut total_errors = 0usize;
            let mut total_warnings = 0usize;
            for (&(bi, r), (report, summary)) in work.iter().zip(results) {
                total_errors += report.error_count();
                total_warnings += report.warning_count();
                if json {
                    summaries.push(summary);
                } else {
                    println!(
                        "{:<22} r={r}: {} error(s), {} warning(s)",
                        bases[bi].name(),
                        report.error_count(),
                        report.warning_count()
                    );
                    for d in &report.diagnostics {
                        println!("  {d}");
                    }
                }
            }
            if json {
                println!(
                    "{}",
                    serde_json::to_string_pretty(&serde::Value::Array(summaries))
                        .expect("serializable")
                );
            } else {
                println!("total: {total_errors} error(s), {total_warnings} warning(s)");
            }
            if total_errors > 0 {
                return Ok(ExitCode::FAILURE);
            }
        }
        "check" => {
            reject_unread(&args, 0, &given, &["--json"])?;
            // Deliberately ignores the pool: the suite fixes its own thread
            // counts, so `mmio check` output is byte-identical at any
            // `--threads` value (golden-tested).
            let outcome = mmio_check::run_suite();
            if json {
                println!(
                    "{}",
                    serde_json::to_string_pretty(&serde::Serialize::to_value(&outcome))
                        .expect("serializable")
                );
            } else {
                println!("recorded traces:");
                for t in &outcome.traces {
                    println!(
                        "  {:<28} races {}, duplicate claims {}",
                        t.name, t.races, t.duplicate_claims
                    );
                }
                println!("bounded exploration:");
                for e in &outcome.explorations {
                    println!(
                        "  {:<32} {} states, {} schedules, {} output(s), {} deadlock(s), {} livelock(s) → {}",
                        e.name,
                        e.states,
                        e.schedules,
                        e.outputs,
                        e.deadlocks,
                        e.livelocks,
                        if e.serial_equal { "serial-equal" } else { "DIVERGES" }
                    );
                }
                println!("detector self-tests:");
                for s in &outcome.selftests {
                    println!(
                        "  {:<28} expects {} → {}",
                        s.name,
                        s.expected,
                        if s.fired { "fired" } else { "MISSED" }
                    );
                }
                println!("distributed-run audits: {}", outcome.distsim_audits);
                for d in &outcome.report.diagnostics {
                    println!("  {d}");
                }
                println!(
                    "check: {} ({} error(s), {} warning(s))",
                    if outcome.ok() { "PASS" } else { "FAIL" },
                    outcome.report.error_count(),
                    outcome.report.warning_count()
                );
            }
            if !outcome.ok() {
                return Ok(ExitCode::FAILURE);
            }
        }
        "cert" => {
            let sub = args
                .get(1)
                .map(String::as_str)
                .ok_or("missing cert subcommand (emit|verify)")?;
            match sub {
                "emit" => {
                    reject_unread(&args, 3, &given, &["--json", "--out"])?;
                    let target = args.get(2).ok_or("missing algorithm (or 'all')")?;
                    let r: u32 = match args.get(3) {
                        Some(a) => a.parse().map_err(|_| "invalid r")?,
                        None => 2,
                    };
                    // The verifier rejects every certificate of the
                    // degenerate G_0 (MMIO-V004), so none is written.
                    if r == 0 {
                        return Err(CliError::BadInput(
                            "cert emit: r = 0 has no certificates (the verifier requires r ≥ 1)"
                                .to_string(),
                        ));
                    }
                    let out_dir = std::path::PathBuf::from(out_dir.as_deref().unwrap_or("certs"));
                    let bases = if target == "all" {
                        all_base_graphs()
                    } else {
                        vec![resolve(target)?]
                    };
                    for base in &bases {
                        ops::check_depth(base, r).map_err(CliError::BadInput)?;
                    }
                    std::fs::create_dir_all(&out_dir)
                        .map_err(|e| CliError::io(out_dir.display(), e))?;
                    let mut written = Vec::new();
                    for base in &bases {
                        let implicit = use_implicit(view, base, r);
                        for (file, cert) in emit_certs_for(base, r, &pool, implicit) {
                            let path = out_dir.join(file);
                            std::fs::write(&path, cert.to_json())
                                .map_err(|e| CliError::io(path.display(), e))?;
                            written.push(path);
                        }
                    }
                    if json {
                        let v = serde::Value::Array(
                            written
                                .iter()
                                .map(|p| serde::Value::Str(p.display().to_string()))
                                .collect(),
                        );
                        println!(
                            "{}",
                            serde_json::to_string_pretty(&v).expect("serializable")
                        );
                    } else {
                        for p in &written {
                            println!("wrote {}", p.display());
                        }
                        println!("{} certificate(s) → {}", written.len(), out_dir.display());
                    }
                }
                "verify" => {
                    reject_unread(&args, usize::MAX, &given, &["--json"])?;
                    let files = expand_cert_paths(&args[2..])?;
                    if files.is_empty() {
                        return Err(CliError::BadInput(
                            "no certificate files to verify".to_string(),
                        ));
                    }
                    let mut rejected = 0usize;
                    let mut entries = Vec::new();
                    for path in &files {
                        let text = std::fs::read_to_string(path)
                            .map_err(|e| CliError::io(path.display(), e))?;
                        let verdict = mmio_cert::verify_json(&text);
                        if !verdict.accepted {
                            rejected += 1;
                        }
                        if json {
                            entries.push(serde::Value::Object(vec![
                                (
                                    "file".to_string(),
                                    serde::Value::Str(path.display().to_string()),
                                ),
                                ("verdict".to_string(), serde::Serialize::to_value(&verdict)),
                            ]));
                        } else if verdict.accepted {
                            println!(
                                "{}: ACCEPTED ({} {})",
                                path.display(),
                                verdict.kind,
                                verdict.algo
                            );
                        } else {
                            println!("{}: REJECTED", path.display());
                            for rej in &verdict.rejections {
                                println!("  {}: {}", rej.code, rej.detail);
                            }
                        }
                    }
                    if json {
                        println!(
                            "{}",
                            serde_json::to_string_pretty(&serde::Value::Array(entries))
                                .expect("serializable")
                        );
                    } else {
                        println!(
                            "cert verify: {}/{} accepted",
                            files.len() - rejected,
                            files.len()
                        );
                    }
                    if rejected > 0 {
                        return Ok(ExitCode::FAILURE);
                    }
                }
                other => {
                    return Err(CliError::Usage(format!(
                        "unknown cert subcommand '{other}'"
                    )))
                }
            }
        }
        "serve" => {
            let mut parse_flag = |name: &str, default: u64| -> Result<u64, CliError> {
                match extract_value(&mut args, name)? {
                    None => Ok(default),
                    Some(v) => v
                        .parse()
                        .map_err(|_| CliError::Usage(format!("invalid {name} value '{v}'"))),
                }
            };
            let workers = parse_flag("--workers", 2)? as usize;
            let queue_cap = parse_flag("--queue-cap", 64)? as usize;
            let deadline_ms = parse_flag("--deadline-ms", 30_000)?;
            let socket = extract_value(&mut args, "--socket")?.ok_or("missing --socket PATH")?;
            let cache_dir = extract_value(&mut args, "--cache")?.map(std::path::PathBuf::from);
            reject_unread(&args, 0, &given, &[])?;
            let cfg = mmio_serve::EngineConfig {
                workers,
                queue_cap,
                max_spawns: workers.saturating_mul(4),
                default_deadline: std::time::Duration::from_millis(deadline_ms),
                cache_dir,
                pool_threads: pool.threads(),
            };
            let hook: std::sync::Arc<dyn mmio_serve::FaultHook> =
                std::sync::Arc::new(mmio_serve::NoFaults);
            let (engine, recovery) =
                mmio_serve::Engine::start(cfg, hook).map_err(|e| CliError::io("serve cache", e))?;
            eprintln!(
                "mmio serve: {} snapshot(s) valid, {} quarantined, {} orphan(s) swept",
                recovery.valid,
                recovery.quarantined.len(),
                recovery.orphans_swept
            );
            for d in &recovery.quarantined {
                eprintln!("mmio serve: quarantined {d}");
            }
            let server = mmio_serve::Server::bind(&socket, std::sync::Arc::new(engine))
                .map_err(|e| CliError::io(&socket, e))?;
            eprintln!("mmio serve: listening on {socket}");
            server.run().map_err(|e| CliError::io(&socket, e))?;
        }
        "audit" => {
            let baseline = extract_value(&mut args, "--baseline")?.map(std::path::PathBuf::from);
            reject_unread(&args, 0, &given, &["--json"])?;
            let cwd = std::env::current_dir().map_err(|e| CliError::io(".", e))?;
            let root = mmio_audit::find_workspace_root(&cwd)
                .ok_or_else(|| CliError::io(cwd.display(), "no workspace Cargo.toml above"))?;
            let opts = mmio_audit::AuditOptions { baseline };
            let outcome = mmio_audit::audit_workspace(&root, &opts)
                .map_err(|e| CliError::io(root.display(), e))?;
            if json {
                println!(
                    "{}",
                    serde_json::to_string_pretty(&outcome).expect("serializable")
                );
            } else {
                print!("{}", outcome.to_text());
            }
            if outcome.has_errors() {
                return Ok(ExitCode::FAILURE);
            }
        }
        "distsim" => {
            use mmio_parallel::distsim::{MachineModel, Topology};
            let procs = extract_value(&mut args, "--procs")?;
            let mem = extract_value(&mut args, "--mem")?;
            let assign = extract_value(&mut args, "--assign")?;
            let topo = extract_value(&mut args, "--topo")?;
            reject_unread(&args, 2, &given, &["--json"])?;
            let base = resolve(args.get(1).ok_or("missing algorithm")?)?;
            let k =
                ops::check_depth(&base, parse(args.get(2), "k")?).map_err(CliError::BadInput)?;
            let p: u32 = match procs {
                Some(v) => v
                    .parse()
                    .map_err(|_| format!("invalid --procs value '{v}'"))?,
                None => 4,
            };
            if p == 0 {
                return Err("--procs must be ≥ 1".into());
            }
            let mem: Option<usize> = mem
                .map(|v| v.parse().map_err(|_| format!("invalid --mem value '{v}'")))
                .transpose()?;
            let assign_name = assign.as_deref().unwrap_or("cyclic");
            let machine = match topo {
                None => None,
                Some(t) => Some(MachineModel::new(
                    Topology::parse(&t, p).map_err(CliError::Usage)?,
                    1,
                    1,
                    1,
                )),
            };
            // Both views run the identical SoA engine on identical
            // (preds, order) data, so the output is byte-equal.
            let (outcome, m) = if use_implicit(view, &base, k) {
                let v = IndexView::from_base(&base, k);
                run_distsim(&v, p, mem, assign_name, machine, &pool)?
            } else {
                let g = build_cdag(&base, k);
                run_distsim(&g, p, mem, assign_name, machine, &pool)?
            };
            if json {
                let v = serde::Value::Object(vec![
                    (
                        "algo".to_string(),
                        serde::Value::Str(base.name().to_string()),
                    ),
                    ("r".to_string(), serde::Value::UInt(k as u64)),
                    ("procs".to_string(), serde::Value::UInt(p as u64)),
                    ("mem".to_string(), serde::Value::UInt(m as u64)),
                    (
                        "assign".to_string(),
                        serde::Value::Str(assign_name.to_string()),
                    ),
                    ("outcome".to_string(), serde::Serialize::to_value(&outcome)),
                ]);
                println!(
                    "{}",
                    serde_json::to_string_pretty(&v).expect("serializable")
                );
            } else {
                println!(
                    "{} r={k} P={p} M={m} assign={assign_name}: {} words moved, \
                     critical path {}, local I/O max {} / total {}",
                    base.name(),
                    outcome.run.total_words,
                    outcome.run.critical_path_words,
                    outcome.run.max_local_io,
                    outcome.run.total_local_io
                );
                if let Some(c) = &outcome.contention {
                    println!(
                        "contended on {:?} (α={} β={} γ={}): makespan {} over {} round(s)",
                        c.machine.topo,
                        c.machine.alpha,
                        c.machine.beta,
                        c.machine.gamma,
                        c.makespan,
                        c.rounds.len()
                    );
                }
            }
        }
        "codes" => {
            reject_unread(&args, 0, &given, &[])?;
            for (crate_name, table) in mmio_analyze::codes::all_tables() {
                for (code, desc) in table {
                    println!("{code:<12} {crate_name:<14} {desc}");
                }
            }
        }
        _ => return Err(CliError::Usage(format!("unknown command '{cmd}'"))),
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            if matches!(e, CliError::Usage(_)) {
                print_usage();
            }
            ExitCode::from(e.exit_code())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_stable_per_failure_class() {
        assert_eq!(CliError::Verification("v".into()).exit_code(), 1);
        assert_eq!(CliError::Usage("u".into()).exit_code(), 2);
        assert_eq!(CliError::io("p", "d").exit_code(), 3);
        assert_eq!(CliError::BadInput("b".into()).exit_code(), 4);
    }

    #[test]
    fn bare_string_errors_default_to_usage() {
        assert_eq!(CliError::from("missing r").exit_code(), 2);
        assert_eq!(CliError::from(String::from("invalid M")).exit_code(), 2);
    }

    #[test]
    fn resolve_classifies_each_failure() {
        // Registry hit.
        assert!(resolve("strassen").is_ok());
        // Unknown name: bad input, not I/O.
        assert_eq!(resolve("nonesuch").unwrap_err().exit_code(), 4);
        // Missing .json path: I/O.
        assert_eq!(
            resolve("/nonexistent/algo.json").unwrap_err().exit_code(),
            3
        );
        // Present but malformed .json: bad input.
        let p = std::env::temp_dir().join(format!("mmio_cli_badalgo_{}.json", std::process::id()));
        std::fs::write(&p, "{ not json").unwrap();
        let err = resolve(p.to_str().unwrap()).unwrap_err();
        assert_eq!(err.exit_code(), 4, "{err}");
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn expand_cert_paths_unreadable_dir_is_io_error() {
        let missing = "/nonexistent-cert-dir".to_string();
        // A path that does not exist is not a dir, so it passes through as
        // a file operand (read fails later, also as an I/O error)…
        let ok = expand_cert_paths(&[missing]).unwrap();
        assert_eq!(ok.len(), 1);
        // …whereas a dir that exists but cannot be enumerated would be the
        // read_dir error path; simulate with a file posing as a dir.
        let p = std::env::temp_dir().join(format!("mmio_cli_asdir_{}", std::process::id()));
        std::fs::write(&p, "x").unwrap();
        let as_file = p.display().to_string();
        let through = expand_cert_paths(&[as_file]).unwrap();
        assert_eq!(through, vec![p.clone()]);
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn io_errors_render_path_and_detail() {
        let e = CliError::io("certs/out.json", "permission denied");
        assert_eq!(e.to_string(), "certs/out.json: permission denied");
    }
}
