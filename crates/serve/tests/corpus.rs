//! Golden corrupted-snapshot corpus for the serve disk cache: committed
//! snapshot files whose exact recovery-scan verdicts (`MMIO-Fxxx` codes)
//! are pinned in `tests/corpus/manifest.json` — the disk-tier analogue of
//! `crates/cert/tests/corpus/`. Any cache change that starts accepting a
//! corrupt snapshot, drops a quarantine, or shifts a diagnostic code
//! fails here before it ships.
//!
//! Each corpus file is installed (under its manifest-specified on-disk
//! name — the filename itself is part of the validated surface) into a
//! fresh cache root, and `DiskCache::open`'s recovery scan must produce
//! exactly the pinned verdict: valid, or quarantined with exactly one
//! diagnostic carrying the pinned code.
//!
//! Regenerate (after an *intentional* snapshot-format change) with:
//! `cargo test -p mmio-serve --test corpus -- --ignored regenerate_corpus`

use mmio_serve::cache::{CacheKey, DiskCache, FORMAT_VERSION};
use mmio_serve::faults::NoFaults;
use serde::Value;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn tmp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mmio_serve_corpus_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// One manifest entry: the committed corpus file, the name it must carry
/// inside a shard directory (the filename is validated, so it is part of
/// the scenario), and the expected recovery verdict — `None` for valid,
/// `Some(code)` for quarantined-with-exactly-this-code.
struct Entry {
    file: String,
    install_as: String,
    code: Option<String>,
}

fn load_manifest() -> Vec<Entry> {
    let text = fs::read_to_string(corpus_dir().join("manifest.json"))
        .expect("corpus manifest missing — run the ignored `regenerate_corpus` test");
    let v: Value = serde_json::from_str(&text).expect("manifest decodes");
    let Value::Array(items) = v else {
        panic!("manifest is not an array")
    };
    items
        .iter()
        .map(|item| {
            let get = |k: &str| match item.get(k) {
                Some(Value::Str(s)) => Some(s.clone()),
                Some(Value::Null) | None => None,
                other => panic!("manifest field {k}: {other:?}"),
            };
            Entry {
                file: get("file").expect("file"),
                install_as: get("install_as").expect("install_as"),
                code: get("code"),
            }
        })
        .collect()
}

#[test]
fn golden_snapshot_corpus_recovery_verdicts_are_exact() {
    let manifest = load_manifest();
    assert!(
        manifest.len() >= 8,
        "corpus suspiciously small ({} entries)",
        manifest.len()
    );
    let mut corrupted = 0usize;
    for entry in &manifest {
        let bytes = fs::read(corpus_dir().join(&entry.file))
            .unwrap_or_else(|e| panic!("{}: {e}", entry.file));
        // Fresh root per entry: the report then describes exactly this file.
        let root = tmp_root(entry.file.trim_end_matches(".json"));
        fs::create_dir_all(root.join("shard00")).unwrap();
        fs::write(root.join("shard00").join(&entry.install_as), &bytes).unwrap();
        let (_, report) = DiskCache::open(&root, Arc::new(NoFaults)).unwrap();
        match &entry.code {
            None => {
                assert_eq!(report.valid, 1, "{}: must scan as valid", entry.file);
                assert!(
                    report.quarantined.is_empty(),
                    "{}: spuriously quarantined: {:?}",
                    entry.file,
                    report.quarantined
                );
            }
            Some(code) => {
                corrupted += 1;
                assert_eq!(
                    report.valid, 0,
                    "{}: corrupt file scanned as valid",
                    entry.file
                );
                assert_eq!(
                    report.quarantined.len(),
                    1,
                    "{}: expected exactly one quarantine: {:?}",
                    entry.file,
                    report.quarantined
                );
                assert_eq!(
                    report.quarantined[0].code, code,
                    "{}: diagnostic code drifted ({})",
                    entry.file, report.quarantined[0]
                );
                assert!(
                    !root.join("shard00").join(&entry.install_as).exists(),
                    "{}: corrupt file left in the shard",
                    entry.file
                );
                assert!(
                    root.join("quarantine").join(&entry.install_as).exists(),
                    "{}: corrupt file not preserved in quarantine/",
                    entry.file
                );
            }
        }
        let _ = fs::remove_dir_all(&root);
    }
    assert!(corrupted >= 6, "only {corrupted} corrupted entries");
}

/// The fixed identity every corpus snapshot is derived from.
fn base_key() -> CacheKey {
    CacheKey {
        kind: "certify",
        algo: "strassen".to_string(),
        k: 2,
        extra: "m=49".to_string(),
    }
}

const BASE_PAYLOAD: &str = "n = 9, M = 49: 1 complete segments, certified I/O \u{2265} 49\n\
     (k = 1, feasible = true, disjoint subcomputations = 7 \u{2265} target 7)\n";

/// Writes one pristine snapshot via the real persist path and returns its
/// bytes plus its canonical on-disk name.
fn pristine_snapshot() -> (Vec<u8>, String) {
    let root = tmp_root("regen");
    let (cache, _) = DiskCache::open(&root, Arc::new(NoFaults)).unwrap();
    let key = base_key();
    cache.put(&key, BASE_PAYLOAD);
    let name = key.file_name();
    let bytes = fs::read(root.join(format!("shard{:02}", key.shard())).join(&name)).unwrap();
    let _ = fs::remove_dir_all(&root);
    (bytes, name)
}

#[test]
#[ignore = "regenerates the committed corpus; run after intentional format changes"]
fn regenerate_corpus() {
    let dir = corpus_dir();
    fs::create_dir_all(&dir).unwrap();
    let (clean, canonical_name) = pristine_snapshot();
    let text = String::from_utf8(clean.clone()).unwrap();

    let mut manifest: Vec<(String, String, Option<String>)> = Vec::new();
    let mut emit = |file: &str, install_as: &str, code: Option<&str>, bytes: &[u8]| {
        fs::write(dir.join(file), bytes).unwrap();
        manifest.push((
            file.to_string(),
            install_as.to_string(),
            code.map(str::to_string),
        ));
    };

    // Valid snapshot under its canonical name.
    emit("clean__certify.json", &canonical_name, None, &clean);

    // Truncated mid-entry: a torn final write. Not valid JSON → F001.
    emit(
        "truncated__mid-entry.json",
        &canonical_name,
        Some("MMIO-F001"),
        &clean[..clean.len() / 3],
    );

    // Not JSON at all → F001.
    emit(
        "garbage__not-json.json",
        &canonical_name,
        Some("MMIO-F001"),
        b"this was never a snapshot\n",
    );

    // Missing payload field → F001.
    let no_payload = text.replace("\"payload\"", "\"not_payload\"");
    assert_ne!(no_payload, text);
    emit(
        "missingfield__no-payload.json",
        &canonical_name,
        Some("MMIO-F001"),
        no_payload.as_bytes(),
    );

    // Single bit flip inside the payload → checksum mismatch, F002.
    let mut flipped = clean.clone();
    let i = text.find("complete").expect("payload text present");
    flipped[i] ^= 0x20;
    emit(
        "bitflip__payload.json",
        &canonical_name,
        Some("MMIO-F002"),
        &flipped,
    );

    // Checksum field lies → F002.
    let checksum = text
        .split("\"checksum\":\"")
        .nth(1)
        .and_then(|s| s.split('"').next())
        .expect("checksum field");
    let lied = text.replace(checksum, "0000000000000000");
    emit(
        "badchecksum__zeroed.json",
        &canonical_name,
        Some("MMIO-F002"),
        lied.as_bytes(),
    );

    // Stale format version → F003 (version is checked before anything else,
    // so the otherwise-intact entry is still refused).
    let current = format!("\"format_version\":{FORMAT_VERSION}");
    let stale = text.replace(&current, "\"format_version\":0");
    assert_ne!(stale, text);
    emit(
        "staleversion__v0.json",
        &canonical_name,
        Some("MMIO-F003"),
        stale.as_bytes(),
    );

    // The previous format version → F003: v1 sweep payloads carried engine
    // counters, so nothing an earlier build wrote may be served.
    let previous = text.replace(&current, "\"format_version\":1");
    assert_ne!(previous, text);
    emit(
        "staleversion__v1.json",
        &canonical_name,
        Some("MMIO-F003"),
        previous.as_bytes(),
    );

    // Future format version → F003.
    let future = text.replace(&current, "\"format_version\":999");
    emit(
        "staleversion__v999.json",
        &canonical_name,
        Some("MMIO-F003"),
        future.as_bytes(),
    );

    // Valid snapshot under the *wrong* filename: a cross-linked entry that
    // would shadow a different key forever → F004.
    emit(
        "wrongname__cross-linked.json",
        "certify__0000000000000000.json",
        Some("MMIO-F004"),
        &clean,
    );

    // Embedded identity tampered (algo renamed): the recorded key no longer
    // matches the re-derived content hash → F004.
    let retargeted = text.replace("\"algo\":\"strassen\"", "\"algo\":\"winograd\"");
    assert_ne!(retargeted, text);
    emit(
        "wrongkey__retargeted-algo.json",
        &canonical_name,
        Some("MMIO-F004"),
        retargeted.as_bytes(),
    );

    let manifest_json = Value::Array(
        manifest
            .into_iter()
            .map(|(file, install_as, code)| {
                Value::Object(vec![
                    ("file".to_string(), Value::Str(file)),
                    ("install_as".to_string(), Value::Str(install_as)),
                    ("code".to_string(), code.map_or(Value::Null, Value::Str)),
                ])
            })
            .collect(),
    );
    fs::write(
        dir.join("manifest.json"),
        serde_json::to_string_pretty(&manifest_json).unwrap(),
    )
    .unwrap();
}
