//! `verify_json` reads a certificate typed, straight from its text, and
//! hands every input the typed read does not take to `verify_json_tree`,
//! the tree path. The tree path is the oracle: on every input below the two
//! must write the same verdict bytes — the corpus, every certificate
//! `mmio cert emit all 3` writes with each of its mutants, and text
//! perturbations the typed read must either decode exactly as the tree
//! does or leave to the tree (fields out of order, repeated and unknown
//! keys, whitespace, escapes, number spellings, out-of-range integers,
//! truncation).

use std::fs;
use std::path::Path;

use mmio_algos::registry::all_base_graphs;
use mmio_cdag::build::build_cdag;
use mmio_cdag::CdagView;
use mmio_cert::mutate::mutants_for;
use mmio_cert::verify::verify_json_tree;
use mmio_cert::{fixtures, verify_json, Certificate};
use mmio_core::transport::{emit_certificate, RoutingClass};
use mmio_parallel::Pool;
use mmio_pebble::cert::{emit_schedule_certificate, emit_sweep_certificate};
use mmio_pebble::orders::recursive_order;
use mmio_pebble::policy::Belady;
use mmio_pebble::sweep::{sweep, PolicySpec};
use mmio_pebble::AutoScheduler;
use serde::Value;

/// Asserts that both paths write the same verdict for `json`.
fn same_verdict(name: &str, json: &str) {
    assert_eq!(
        verify_json(json).to_json(),
        verify_json_tree(json).to_json(),
        "{name}: typed and tree verdicts differ"
    );
}

/// The certificates `mmio cert emit all 3` writes, named as it names its
/// files: the same depth caps, cache size, order, policies and grid.
fn emit_all_3() -> Vec<(String, Certificate)> {
    let (r, pool) = (3, Pool::serial());
    let mut out = Vec::new();
    for base in all_base_graphs() {
        let name = base.name();
        let routing_k = r.min(if base.a() >= 16 { 1 } else { 2 });
        if let Some(class) = RoutingClass::build(&base, routing_k, &pool) {
            out.push((
                format!("{name}__routing_k{routing_k}_r{r}.json"),
                emit_certificate(&class, r),
            ));
        }
        let sched_r = if base.b() > 30 { r.min(2) } else { r };
        let g = build_cdag(&base, sched_r);
        let need = g.max_indegree() + 1;
        let m = need + 4;
        let order = recursive_order(&g);
        let (_, sched) = AutoScheduler::new(&g, m).run_recorded(&order, &Belady);
        out.push((
            format!("{name}__schedule_r{sched_r}_m{m}.json"),
            emit_schedule_certificate(&g, m, &sched),
        ));
        let points = sweep(
            &g,
            &[&order],
            &[PolicySpec::Lru],
            &[2, need, 4 * need],
            &pool,
        );
        out.push((
            format!("{name}__sweep_r{sched_r}.json"),
            emit_sweep_certificate(&g, &PolicySpec::Lru, &points),
        ));
    }
    out
}

/// `json` with the first number token after `anchor` replaced by `token`,
/// or `None` if `anchor` does not occur.
fn with_number_after(json: &str, anchor: &str, token: &str) -> Option<String> {
    let start = json.find(anchor)? + anchor.len();
    let rest = &json[start..];
    let from = rest.find(|c: char| c == '-' || c.is_ascii_digit())?;
    let len = rest[from..]
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')))
        .unwrap_or(rest.len() - from);
    Some(format!(
        "{}{token}{}",
        &json[..start + from],
        &rest[from + len..]
    ))
}

/// The object at `path` (object keys from the root) of `v`.
fn object_at<'a>(v: &'a mut Value, path: &[&str]) -> &'a mut Vec<(String, Value)> {
    let Value::Object(fields) = v else {
        panic!("not an object")
    };
    match path.split_first() {
        None => fields,
        Some((key, rest)) => {
            let (_, inner) = fields.iter_mut().find(|(k, _)| k == key).expect("key");
            object_at(inner, rest)
        }
    }
}

/// Structural perturbations of one certificate's text, named.
fn structural(json: &str) -> Vec<(String, String)> {
    let tree: Value = serde_json::from_str(json).expect("certificate parses");
    let mut out = Vec::new();
    let mut edit = |name: &str, f: &dyn Fn(&mut Value)| {
        let mut v = tree.clone();
        f(&mut v);
        out.push((name.to_string(), serde_json::to_string(&v).expect("writes")));
    };
    for path in [&[][..], &["base"][..], &["payload"][..]] {
        let at = path.join(".");
        edit(&format!("reversed {at}"), &|v| object_at(v, path).reverse());
        edit(&format!("rotated {at}"), &|v| {
            object_at(v, path).rotate_left(1)
        });
        edit(&format!("unknown key in {at}"), &|v| {
            object_at(v, path).push(("extra".into(), Value::Int(0)))
        });
        edit(&format!("first key repeated in {at}"), &|v| {
            let fields = object_at(v, path);
            let (k, x) = fields[0].clone();
            fields.push((k, x));
        });
        edit(
            &format!("first key repeated with a new value in {at}"),
            &|v| {
                let fields = object_at(v, path);
                let (k, x) = fields[0].clone();
                let x = match x {
                    Value::Int(i) => Value::Int(i + 1),
                    other => other,
                };
                fields.push((k, x));
            },
        );
        edit(&format!("first key repeated with null in {at}"), &|v| {
            let fields = object_at(v, path);
            let k = fields[0].0.clone();
            fields.insert(1, (k, Value::Null));
        });
        edit(&format!("last key dropped from {at}"), &|v| {
            object_at(v, path).pop();
        });
    }
    edit("payload before kind", &|v| object_at(v, &[]).swap(1, 3));
    edit("kind null", &|v| object_at(v, &[])[1].1 = Value::Null);
    out.push((
        "pretty".into(),
        serde_json::to_string_pretty(&tree).expect("writes"),
    ));
    out.push((
        "spaced".into(),
        json.replace(',', " ,\n\t")
            .replace(':', " : ")
            .replace('[', "[ "),
    ));
    out.push((" padded".into(), format!(" \r\n{json}\n ")));
    out.push(("trailing text".into(), format!("{json} x")));
    out.push(("twice".into(), format!("{json}{json}")));
    out
}

/// Number and string spellings of one certificate's text, named.
fn lexical(json: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let name = json.find("\"name\":\"").map(|i| i + 8);
    if let Some(i) = name {
        let c = json[i..].chars().next().expect("name char");
        let escaped = format!(
            "{}\\u{:04x}{}",
            &json[..i],
            c as u32,
            &json[i + c.len_utf8()..]
        );
        out.push(("\\u escape in name".into(), escaped));
        out.push((
            "\\u escapes around name".into(),
            format!("{}\\u0020\\u00e9{}", &json[..i], &json[i..]),
        ));
    }
    let anchors = [
        "\"version\":",
        "\"n0\":",
        "\"rows\":",
        "\"k\":",
        "\"r\":",
        "\"bound\":",
        "\"m\":",
        "\"loads\":",
        "\"paths\":",
        "\"copy_prefixes\":",
        "\"vertices\":",
        "\"res_start\":",
        "\"ms\":",
    ];
    let tokens = [
        "-0",
        "0",
        "-1",
        "1.0",
        "1e0",
        "01",
        "4294967296",
        "18446744073709551615",
        "18446744073709551616",
        "-9223372036854775808",
    ];
    for anchor in anchors {
        for token in tokens {
            if let Some(text) = with_number_after(json, anchor, token) {
                out.push((format!("{anchor}{token}"), text));
            }
        }
    }
    out
}

#[test]
fn typed_decode_matches_tree_decode() {
    // The corpus.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut corpus = 0;
    for entry in fs::read_dir(&dir).expect("corpus directory") {
        let path = entry.expect("corpus entry").path();
        let file = path.file_name().and_then(|f| f.to_str()).expect("name");
        if file.ends_with(".json") && file != "manifest.json" && file != "verdicts.json" {
            let json = fs::read_to_string(&path).expect("corpus file");
            same_verdict(file, &json);
            corpus += 1;
        }
    }
    assert!(corpus >= 30, "{corpus} corpus files");

    // `cert emit all 3` and the mutants of each of its certificates.
    let emitted = emit_all_3();
    let pinned = fs::read_to_string(dir.join("emit_all_3.sha256")).expect("digest list");
    let mut names: Vec<&str> = pinned
        .lines()
        .filter_map(|l| l.split_whitespace().nth(1))
        .collect();
    names.sort_unstable();
    let mut ours: Vec<&str> = emitted.iter().map(|(n, _)| n.as_str()).collect();
    ours.sort_unstable();
    assert_eq!(
        ours, names,
        "the emitted set drifted from `cert emit all 3`"
    );
    // Two threads: verifying the a = 9 and tensor-square bases and their
    // mutants twice each dominates the test's time.
    std::thread::scope(|scope| {
        for half in 0..2 {
            let emitted = &emitted;
            scope.spawn(move || {
                for (name, cert) in emitted.iter().skip(half).step_by(2) {
                    let json = cert.to_json();
                    assert!(verify_json(&json).accepted, "{name}");
                    // Canonical text takes the typed path, not the fallback.
                    let typed = serde_json::read_json::<Certificate>(&json);
                    assert_eq!(typed.map(|c| c.to_json()).ok(), Some(json.clone()));
                    same_verdict(name, &json);
                    for m in mutants_for(cert) {
                        same_verdict(&format!("{name}/{}", m.name), &m.cert.to_json());
                    }
                }
            });
        }
    });

    // Perturbations of the clean fixtures and of one emitted certificate of
    // each kind.
    let mut bases: Vec<(String, String)> = fixtures::all()
        .iter()
        .map(|c| (format!("fixture {}", c.payload.kind()), c.to_json()))
        .collect();
    for kind in ["routing", "schedule", "sweep"] {
        let (name, cert) = emitted
            .iter()
            .find(|(n, c)| c.payload.kind() == kind && n.starts_with("strassen__"))
            .expect("emitted strassen certificate");
        bases.push((name.clone(), cert.to_json()));
    }
    for (base, json) in &bases {
        for (what, text) in structural(json).into_iter().chain(lexical(json)) {
            same_verdict(&format!("{base}: {what}"), &text);
        }
    }

    // Truncation at every 97th byte.
    for (base, json) in &bases {
        for end in (0..json.len()).step_by(97) {
            if json.is_char_boundary(end) {
                same_verdict(&format!("{base}: first {end} bytes"), &json[..end]);
            }
        }
    }
}

#[test]
fn syntax_errors_are_answered_from_the_typed_read() {
    // A Strassen r = 2 schedule certificate, cut every 101st byte and at
    // each of its last 64 bytes: the typed read stops at a syntax error,
    // and its verdict is the tree path's.
    let g = build_cdag(&mmio_algos::strassen::strassen(), 2);
    let m = g.max_indegree() + 5;
    let order = recursive_order(&g);
    let (_, sched) = AutoScheduler::new(&g, m).run_recorded(&order, &Belady);
    let json = emit_schedule_certificate(&g, m, &sched).to_json();
    let tail = json.len().saturating_sub(64)..json.len();
    for end in (0..json.len()).step_by(101).chain(tail) {
        let cut = &json[..end];
        let read = serde_json::read_json::<Certificate>(cut);
        assert!(read.is_err_and(|e| e.is_syntax()), "first {end} bytes");
        same_verdict(&format!("first {end} bytes"), cut);
    }
    // The corpus, whichever path each file takes.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    for entry in fs::read_dir(&dir).expect("corpus directory") {
        let path = entry.expect("corpus entry").path();
        if path.extension().is_some_and(|x| x == "json") {
            let json = fs::read_to_string(&path).expect("corpus file");
            same_verdict(&path.display().to_string(), &json);
        }
    }
}
