//! Golden corrupted-certificate corpus: committed JSON files whose exact
//! rejection-code sets are pinned in `tests/corpus/manifest.json`. Any
//! verifier change that shifts a code, drops a rejection, or starts
//! accepting a corrupted certificate fails here before it ships.
//!
//! `tests/corpus/verdicts.json` pins more: the full `Verdict::to_json()`
//! bytes (every detail string, in order) of every corpus file and of every
//! mutant of the strassen and winograd routing certificates at
//! (k = 2, r = 3), plus two probes — two broken hops deep in the path list
//! (which one each copy reports is part of the bytes) and one path stored
//! in reverse (hops are edges in either direction). A verifier rewrite
//! that must not change behaviour shows here that it did not.
//!
//! Regenerate (after an *intentional* format or verifier change) with
//! `cargo test -p mmio-cert --test corpus -- --ignored regenerate_corpus`,
//! then `cargo test -p mmio-cert --test corpus -- --ignored regenerate_verdicts`.

use std::fs;
use std::path::{Path, PathBuf};

use mmio_cert::format::{Certificate, Payload};
use mmio_cert::mutate::mutants_for;
use mmio_cert::{fixtures, verify_json};
use mmio_core::transport::{emit_certificate, RoutingClass};
use serde::{Deserialize, Serialize};

#[derive(Serialize, Deserialize)]
struct Entry {
    file: String,
    accepted: bool,
    codes: Vec<String>,
}

#[derive(Serialize, Deserialize)]
struct VerdictPin {
    input: String,
    verdict: String,
}

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

/// Verdict of one file, reduced to (accepted, sorted unique codes).
fn observed(json: &str) -> (bool, Vec<String>) {
    let v = verify_json(json);
    let mut codes: Vec<String> = v.rejections.iter().map(|r| r.code.clone()).collect();
    codes.sort();
    codes.dedup();
    (v.accepted, codes)
}

#[test]
fn golden_corpus_matches_verifier() {
    let dir = corpus_dir();
    let manifest_json = fs::read_to_string(dir.join("manifest.json"))
        .expect("corpus manifest missing — run the ignored `regenerate_corpus` test");
    let manifest: Vec<Entry> = serde_json::from_str(&manifest_json).expect("manifest decodes");
    assert!(
        manifest.len() >= 20,
        "corpus suspiciously small ({} entries)",
        manifest.len()
    );
    let mut corrupted = 0;
    for entry in &manifest {
        let json = fs::read_to_string(dir.join(&entry.file))
            .unwrap_or_else(|e| panic!("{}: {e}", entry.file));
        let (accepted, codes) = observed(&json);
        assert_eq!(accepted, entry.accepted, "{}: verdict flipped", entry.file);
        assert_eq!(codes, entry.codes, "{}: exact code set drifted", entry.file);
        if !entry.accepted {
            corrupted += 1;
            assert!(!codes.is_empty(), "{}: rejected with no codes", entry.file);
        }
    }
    assert!(corrupted >= 15, "only {corrupted} corrupted entries");
}

/// Zero-false-positive sweep: clean engine-emitted certificates for every
/// registry base must be accepted (the corpus pins rejections; this pins
/// the absence of spurious ones on real input).
#[test]
fn clean_registry_certs_accepted() {
    let pool = mmio_parallel::Pool::new(1);
    for base in mmio_algos::registry::fast_base_graphs() {
        let Some(class) = mmio_core::transport::RoutingClass::build(&base, 1, &pool) else {
            continue;
        };
        let cert = mmio_core::transport::emit_certificate(&class, 1);
        let v = verify_json(&cert.to_json());
        assert!(v.accepted, "{}: {:?}", base.name(), v.rejections);
    }
}

fn record(dir: &Path, manifest: &mut Vec<Entry>, name: String, json: String) -> Vec<String> {
    let (accepted, codes) = observed(&json);
    fs::write(dir.join(&name), json).unwrap();
    manifest.push(Entry {
        file: name,
        accepted,
        codes: codes.clone(),
    });
    codes
}

#[test]
#[ignore = "writes tests/corpus/; run only after intentional format or verifier changes"]
fn regenerate_corpus() {
    let dir = corpus_dir();
    fs::create_dir_all(&dir).unwrap();
    let mut manifest = Vec::new();
    for cert in fixtures::all() {
        let kind = cert.payload.kind();
        let codes = record(
            &dir,
            &mut manifest,
            format!("clean__{kind}.json"),
            cert.to_json(),
        );
        assert!(codes.is_empty(), "clean {kind} fixture rejected: {codes:?}");
        for m in mutants_for(&cert) {
            let codes = record(
                &dir,
                &mut manifest,
                format!("mut__{kind}__{}.json", m.name),
                m.cert.to_json(),
            );
            // Refuse to write a corpus the verifier itself would not kill.
            assert!(
                m.expected.iter().any(|c| codes.iter().any(|got| got == c)),
                "{kind}/{}: expected one of {:?}, got {codes:?}",
                m.name,
                m.expected
            );
        }
    }
    record(
        &dir,
        &mut manifest,
        "garbage__not_json.json".into(),
        "certificate? what certificate".into(),
    );
    record(
        &dir,
        &mut manifest,
        "garbage__no_version.json".into(),
        r#"{"kind":"routing"}"#.into(),
    );
    record(
        &dir,
        &mut manifest,
        "garbage__future_version.json".into(),
        r#"{"version":999,"kind":"routing"}"#.into(),
    );
    record(
        &dir,
        &mut manifest,
        "garbage__wrong_kind.json".into(),
        r#"{"version":1,"kind":"lemma","base":{},"payload":{}}"#.into(),
    );
    let manifest_json = serde_json::to_string(&manifest).unwrap();
    fs::write(dir.join("manifest.json"), manifest_json).unwrap();
}

fn with_paths(cert: &Certificate, edit: impl FnOnce(&mut Vec<Vec<u32>>)) -> String {
    let mut cert = cert.clone();
    if let Payload::Routing(p) = &mut cert.payload {
        edit(&mut p.paths);
    }
    cert.to_json()
}

/// Every input, named, in a fixed order: the corpus certificates (sorted
/// by file name; the two pin files are not certificates), then the clean
/// routing certificates, their mutants and the probes.
fn verdict_inputs() -> Vec<(String, String)> {
    let dir = corpus_dir();
    let mut files: Vec<String> = fs::read_dir(&dir)
        .expect("corpus directory")
        .map(|e| {
            e.expect("corpus entry")
                .file_name()
                .into_string()
                .expect("utf-8 name")
        })
        .filter(|f| f.ends_with(".json") && f != "manifest.json" && f != "verdicts.json")
        .collect();
    files.sort();
    let mut out: Vec<(String, String)> = files
        .into_iter()
        .map(|f| {
            let json = fs::read_to_string(dir.join(&f)).unwrap_or_else(|e| panic!("{f}: {e}"));
            (format!("corpus/{f}"), json)
        })
        .collect();
    let pool = mmio_parallel::Pool::new(1);
    for base in [
        mmio_algos::strassen::strassen(),
        mmio_algos::strassen::winograd(),
    ] {
        let class = RoutingClass::build(&base, 2, &pool).expect("k = 2 routing class");
        let cert = emit_certificate(&class, 3);
        let tag = format!("{}/k2r3", base.name());
        out.push((format!("{tag}/clean"), cert.to_json()));
        for m in mutants_for(&cert) {
            out.push((format!("{tag}/{}", m.name), m.cert.to_json()));
        }
        let probe = with_paths(&cert, |paths| {
            paths[400][3] = paths[400][2];
            paths[7][5] = paths[7][4];
        });
        out.push((format!("{tag}/probe-two-bad-hops"), probe));
        let probe = with_paths(&cert, |paths| paths[100].reverse());
        out.push((format!("{tag}/probe-reversed-path"), probe));
    }
    out
}

#[test]
fn verdicts_match_golden_bytes() {
    let golden_json = fs::read_to_string(corpus_dir().join("verdicts.json"))
        .expect("verdict pin missing — run the ignored `regenerate_verdicts` test");
    let golden: Vec<VerdictPin> =
        serde_json::from_str(&golden_json).expect("verdicts.json decodes");
    let inputs = verdict_inputs();
    let names: Vec<&str> = inputs.iter().map(|(n, _)| n.as_str()).collect();
    let pinned: Vec<&str> = golden.iter().map(|e| e.input.as_str()).collect();
    assert_eq!(names, pinned, "input set drifted from the pin");
    for ((name, json), entry) in inputs.iter().zip(&golden) {
        assert_eq!(
            verify_json(json).to_json(),
            entry.verdict,
            "{name}: verdict bytes drifted"
        );
    }
}

#[test]
#[ignore = "writes tests/corpus/verdicts.json; run only after an intentional verdict change"]
fn regenerate_verdicts() {
    let entries: Vec<VerdictPin> = verdict_inputs()
        .into_iter()
        .map(|(input, json)| VerdictPin {
            verdict: verify_json(&json).to_json(),
            input,
        })
        .collect();
    let json = serde_json::to_string(&entries).expect("verdicts serialize");
    fs::write(corpus_dir().join("verdicts.json"), json).expect("write verdicts.json");
}
