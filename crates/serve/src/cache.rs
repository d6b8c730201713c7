//! The sharded, crash-safe disk memo tier.
//!
//! Layout under the cache root:
//!
//! ```text
//! root/
//!   shard00/ … shard07/          entries, sharded by fnv64(algo, k) % 8
//!     <kind>__<key16hex>.json    one snapshot per cached response
//!     .tmp-<key16hex>-<n>        in-flight writes (never read as entries)
//!   quarantine/                  corrupt snapshots, preserved for autopsy
//! ```
//!
//! **Crash safety.** A snapshot is published by writing the full entry to a
//! `.tmp-` file in the same directory, `sync_all`-ing it, and renaming it
//! over the final name — so a reader never observes a partially written
//! final file, and a crash at any intermediate point leaves either nothing
//! or an orphaned temp that the next [`DiskCache::open`] recovery scan
//! sweeps (diagnostic [`codes::SERVE_ORPHAN_TEMP`]).
//!
//! **Self-verification.** Every snapshot embeds a format version, its own
//! content-hash key, and an FNV-1a checksum of the payload. A read (and
//! the recovery scan) re-derives all three; any mismatch — truncation,
//! bit flips, cross-linked files, stale formats — moves the file to
//! `quarantine/` with a typed diagnostic and the caller transparently
//! recomputes. Corruption is *never* served and *never* panics.
//!
//! **Degradation.** Transient I/O errors are retried with exponential
//! backoff ([`RETRY_BACKOFF_MS`]); exhausted retries degrade the operation
//! to a cache miss (reads) or a skipped persist (writes) with diagnostic
//! [`codes::SERVE_CACHE_DEGRADED`] — the disk tier is an accelerator, not
//! a dependency, and a dead disk merely makes the server slower.

use crate::codes;
use crate::faults::{FaultHook, PersistFault, ReadFault};
use serde::Value;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Snapshot format version; bumped on any incompatible layout change.
/// Snapshots from other versions are quarantined, never reinterpreted.
/// Version 2: sweep payloads carry each grid point's I/O statistics only,
/// without the engine counters version 1 included.
pub const FORMAT_VERSION: u64 = 2;

/// Number of shard directories.
pub const SHARD_COUNT: u64 = 8;

/// Per-attempt backoff before retrying a failed cache I/O operation.
/// Three attempts total: immediate, then these two sleeps.
pub const RETRY_BACKOFF_MS: [u64; 2] = [1, 4];

/// 64-bit FNV-1a. Used for both content-hash keys and payload checksums —
/// not cryptographic, which is fine: the threat model is corruption
/// (torn writes, bit rot), not adversarial collision crafting, and the
/// semantic re-verification layer ([`codes::SERVE_PAYLOAD_REVERIFY`])
/// backstops the rest.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A typed serve-tier diagnostic: stable code plus context. The engine
/// accumulates these; `stats` requests and the fault harness read them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeDiag {
    /// Stable `MMIO-Fxxx` code.
    pub code: &'static str,
    /// Free-form context (file path, key, operation).
    pub detail: String,
}

impl std::fmt::Display for ServeDiag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.detail)
    }
}

/// The identity of one cacheable response: operation kind, algorithm,
/// depth parameter (the `(algo, k)` sharding axes), and the remaining
/// request parameters canonicalized into `extra`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheKey {
    /// Operation kind (`certify`, `analyze`, `sweep`, `routing_cert`).
    pub kind: &'static str,
    /// Registry algorithm name.
    pub algo: String,
    /// Depth parameter (`r`, or `k` for routing certificates).
    pub k: u32,
    /// Canonical rendering of every other request parameter.
    pub extra: String,
}

impl CacheKey {
    /// The shard this key lives in: `fnv64(algo, k) % SHARD_COUNT`, so one
    /// `(algo, k)` class always hits one shard directory.
    pub fn shard(&self) -> u64 {
        fnv64(format!("{}\u{1f}{}", self.algo, self.k).as_bytes()) % SHARD_COUNT
    }

    /// The content-hash key: FNV-1a over every identifying field plus the
    /// format version, so a format bump invalidates the whole tier.
    pub fn content_hash(&self) -> u64 {
        fnv64(
            format!(
                "v{FORMAT_VERSION}\u{1f}{}\u{1f}{}\u{1f}{}\u{1f}{}",
                self.kind, self.algo, self.k, self.extra
            )
            .as_bytes(),
        )
    }

    /// The snapshot's final filename.
    pub fn file_name(&self) -> String {
        format!("{}__{:016x}.json", self.kind, self.content_hash())
    }
}

/// Counters the cache exposes (monotonic; read by `stats` requests).
#[derive(Debug, Default)]
pub struct CacheCounters {
    /// Successful snapshot reads.
    pub hits: AtomicU64,
    /// Lookups that found no (valid) snapshot.
    pub misses: AtomicU64,
    /// Snapshots quarantined (recovery scan + read-time detection).
    pub quarantined: AtomicU64,
    /// I/O attempts that were retried.
    pub retries: AtomicU64,
    /// Operations that exhausted retries and degraded.
    pub degraded: AtomicU64,
}

/// The result of opening a cache directory: the cache plus the recovery
/// scan's findings.
pub struct RecoveryReport {
    /// Valid snapshots found.
    pub valid: usize,
    /// Snapshots quarantined, with the diagnostic each one triggered.
    pub quarantined: Vec<ServeDiag>,
    /// Orphaned temp files swept.
    pub orphans_swept: usize,
}

/// The sharded disk tier. All methods are `&self` and thread-safe; one
/// instance is shared by every worker.
pub struct DiskCache {
    root: PathBuf,
    hook: std::sync::Arc<dyn FaultHook>,
    /// Monotonic temp-file disambiguator (concurrent writers of the same
    /// key never collide on a temp name).
    temp_nonce: AtomicU64,
    /// Runtime diagnostics (recovery-scan findings are returned from
    /// `open` instead, so tests can assert them exactly).
    diags: Mutex<Vec<ServeDiag>>,
    /// Counters.
    pub counters: CacheCounters,
}

impl DiskCache {
    /// Opens (creating if needed) the cache rooted at `root` and runs the
    /// recovery scan: every snapshot is fully validated — parse, format
    /// version, key, checksum — and invalid ones are moved to
    /// `quarantine/`; orphaned `.tmp-` files are deleted. The scan's
    /// findings come back in the [`RecoveryReport`]; the returned cache
    /// contains only snapshots that were valid at open time.
    pub fn open(
        root: impl Into<PathBuf>,
        hook: std::sync::Arc<dyn FaultHook>,
    ) -> std::io::Result<(DiskCache, RecoveryReport)> {
        let root = root.into();
        for s in 0..SHARD_COUNT {
            std::fs::create_dir_all(root.join(format!("shard{s:02}")))?;
        }
        std::fs::create_dir_all(root.join("quarantine"))?;
        let cache = DiskCache {
            root,
            hook,
            temp_nonce: AtomicU64::new(0),
            diags: Mutex::new(Vec::new()),
            counters: CacheCounters::default(),
        };
        let report = cache.recovery_scan()?;
        Ok((cache, report))
    }

    /// Drains the diagnostics accumulated since the last call.
    pub fn take_diags(&self) -> Vec<ServeDiag> {
        std::mem::take(
            &mut *self
                .diags
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }

    fn push_diag(&self, code: &'static str, detail: String) {
        self.diags
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(ServeDiag { code, detail });
    }

    /// Validates every snapshot on disk, quarantining failures and
    /// sweeping orphaned temp files.
    fn recovery_scan(&self) -> std::io::Result<RecoveryReport> {
        let mut report = RecoveryReport {
            valid: 0,
            quarantined: Vec::new(),
            orphans_swept: 0,
        };
        for s in 0..SHARD_COUNT {
            let dir = self.root.join(format!("shard{s:02}"));
            let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .collect();
            entries.sort();
            for path in entries {
                let name = path
                    .file_name()
                    .and_then(|n| n.to_str())
                    .unwrap_or_default()
                    .to_string();
                if name.starts_with(".tmp-") {
                    // An interrupted persist. The entry it belonged to was
                    // never published, so deleting the temp loses nothing.
                    let _ = std::fs::remove_file(&path);
                    self.push_diag(
                        codes::SERVE_ORPHAN_TEMP,
                        format!("swept {} (interrupted persist)", path.display()),
                    );
                    report.orphans_swept += 1;
                    continue;
                }
                match validate_snapshot_file(&path) {
                    Ok(_) => report.valid += 1,
                    Err(diag) => {
                        self.quarantine(&path, &diag);
                        report.quarantined.push(diag);
                    }
                }
            }
        }
        Ok(report)
    }

    /// Moves a failed snapshot into `quarantine/`, recording `diag`.
    /// Renames stay within one filesystem, so this cannot itself tear.
    fn quarantine(&self, path: &Path, diag: &ServeDiag) {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("unnamed");
        let dest = self.root.join("quarantine").join(name);
        // Best effort: if even the rename fails, fall back to deletion so
        // the corrupt file can never be read as an entry again.
        if std::fs::rename(path, &dest).is_err() {
            let _ = std::fs::remove_file(path);
        }
        self.counters.quarantined.fetch_add(1, Ordering::Relaxed);
        self.push_diag(diag.code, diag.detail.clone());
    }

    /// Looks up `key`, fully re-validating the snapshot (version, key,
    /// checksum). Returns the payload on a clean hit. Any corruption is
    /// quarantined (typed diagnostic, counted) and reported as a miss;
    /// transient read errors are retried with backoff and degrade to a
    /// miss. Never panics, never serves a corrupt payload.
    pub fn get(&self, key: &CacheKey) -> Option<String> {
        let path = self.entry_path(key);
        let hash = key.content_hash();
        let mut attempt = 0usize;
        let text = loop {
            let injected = self.hook.read_fault(key.kind, hash);
            let result = if injected == ReadFault::TransientError {
                Err(std::io::Error::other("injected transient read error"))
            } else {
                match std::fs::read_to_string(&path) {
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                        self.counters.misses.fetch_add(1, Ordering::Relaxed);
                        return None;
                    }
                    other => other,
                }
            };
            match result {
                Ok(text) => break text,
                Err(e) => {
                    if attempt < RETRY_BACKOFF_MS.len() {
                        self.counters.retries.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(Duration::from_millis(RETRY_BACKOFF_MS[attempt]));
                        attempt += 1;
                    } else {
                        self.counters.degraded.fetch_add(1, Ordering::Relaxed);
                        self.counters.misses.fetch_add(1, Ordering::Relaxed);
                        self.push_diag(
                            codes::SERVE_CACHE_DEGRADED,
                            format!("read {}: {e}; serving recompute", path.display()),
                        );
                        return None;
                    }
                }
            }
        };
        match validate_snapshot_text(&text, Some(key)) {
            Ok(payload) => {
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                Some(payload)
            }
            Err(mut diag) => {
                diag.detail = format!("{} ({})", diag.detail, path.display());
                self.quarantine(&path, &diag);
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Quarantines the *current* snapshot for `key` with `code` — used by
    /// the engine when a payload passes the checksum but fails semantic
    /// re-verification (the snapshot is well-formed yet wrong).
    pub fn quarantine_key(&self, key: &CacheKey, code: &'static str, detail: String) {
        let path = self.entry_path(key);
        self.quarantine(&path, &ServeDiag { code, detail });
    }

    /// Persists `payload` under `key`: temp write → sync → atomic rename.
    /// Transient errors retry with backoff; exhausted retries degrade (the
    /// payload is simply not cached — diagnostic, not failure). The
    /// injected fault hook can tear the temp write, skip the rename, or
    /// abort the process mid-write (see [`crate::faults`]).
    pub fn put(&self, key: &CacheKey, payload: &str) {
        let entry = snapshot_text(key, payload);
        let hash = key.content_hash();
        let final_path = self.entry_path(key);
        let mut attempt = 0usize;
        loop {
            match self.try_persist(key, &entry, &final_path, hash) {
                Ok(()) => return,
                Err(e) => {
                    if attempt < RETRY_BACKOFF_MS.len() {
                        self.counters.retries.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(Duration::from_millis(RETRY_BACKOFF_MS[attempt]));
                        attempt += 1;
                    } else {
                        self.counters.degraded.fetch_add(1, Ordering::Relaxed);
                        self.push_diag(
                            codes::SERVE_CACHE_DEGRADED,
                            format!("persist {}: {e}; entry not cached", final_path.display()),
                        );
                        return;
                    }
                }
            }
        }
    }

    /// One persist attempt, with fault injection.
    fn try_persist(
        &self,
        key: &CacheKey,
        entry: &str,
        final_path: &Path,
        hash: u64,
    ) -> std::io::Result<()> {
        let fault = self.hook.persist_fault(key.kind, hash);
        if fault == PersistFault::TransientError {
            return Err(std::io::Error::other("injected transient persist error"));
        }
        let nonce = self.temp_nonce.fetch_add(1, Ordering::Relaxed);
        let tmp = final_path
            .parent()
            .expect("entry path has a shard parent")
            .join(format!(".tmp-{hash:016x}-{nonce}"));
        {
            let mut f = std::fs::File::create(&tmp)?;
            let bytes = entry.as_bytes();
            match fault {
                PersistFault::TornTemp { keep_bytes } => {
                    // The torn write: part of the entry reaches disk, the
                    // rename never happens, and the writer believes it
                    // succeeded. Recovery must sweep the orphan.
                    f.write_all(&bytes[..keep_bytes.min(bytes.len())])?;
                    return Ok(());
                }
                PersistFault::AbortProcess { keep_bytes } => {
                    let _ = f.write_all(&bytes[..keep_bytes.min(bytes.len())]);
                    let _ = f.sync_all();
                    // Kill-mid-persist: no unwinding, no destructors — the
                    // closest in-process stand-in for SIGKILL.
                    std::process::abort();
                }
                _ => f.write_all(bytes)?,
            }
            f.sync_all()?;
        }
        if fault == PersistFault::SkipRename {
            // Crash between write and publish: full temp, no final file.
            return Ok(());
        }
        std::fs::rename(&tmp, final_path)
    }

    fn entry_path(&self, key: &CacheKey) -> PathBuf {
        self.root
            .join(format!("shard{:02}", key.shard()))
            .join(key.file_name())
    }
}

/// Serializes a snapshot: version, identity, checksum, payload.
fn snapshot_text(key: &CacheKey, payload: &str) -> String {
    let v = Value::Object(vec![
        ("format_version".to_string(), Value::UInt(FORMAT_VERSION)),
        ("kind".to_string(), Value::Str(key.kind.to_string())),
        ("algo".to_string(), Value::Str(key.algo.clone())),
        ("k".to_string(), Value::UInt(u64::from(key.k))),
        ("extra".to_string(), Value::Str(key.extra.clone())),
        (
            "key".to_string(),
            Value::Str(format!("{:016x}", key.content_hash())),
        ),
        (
            "checksum".to_string(),
            Value::Str(format!("{:016x}", fnv64(payload.as_bytes()))),
        ),
        ("payload".to_string(), Value::Str(payload.to_string())),
    ]);
    serde_json::to_string(&v).expect("snapshot serializes")
}

/// Validates snapshot text; `expect_key` additionally pins the identity
/// (a `get` knows which key it asked for; the recovery scan re-derives it
/// from the embedded fields instead). Returns the payload.
fn validate_snapshot_text(text: &str, expect_key: Option<&CacheKey>) -> Result<String, ServeDiag> {
    let unparseable = |detail: String| ServeDiag {
        code: codes::SERVE_SNAPSHOT_UNPARSEABLE,
        detail,
    };
    let v: Value = serde_json::from_str(text)
        .map_err(|e| unparseable(format!("snapshot is not valid JSON: {e}")))?;
    let version = match v.get("format_version") {
        Some(&Value::UInt(u)) => u,
        Some(&Value::Int(i)) if i >= 0 => i as u64,
        _ => {
            return Err(ServeDiag {
                code: codes::SERVE_SNAPSHOT_VERSION,
                detail: "snapshot has no format_version".to_string(),
            })
        }
    };
    if version != FORMAT_VERSION {
        return Err(ServeDiag {
            code: codes::SERVE_SNAPSHOT_VERSION,
            detail: format!("snapshot format v{version}, this build reads v{FORMAT_VERSION}"),
        });
    }
    let field = |name: &str| -> Result<String, ServeDiag> {
        match v.get(name) {
            Some(Value::Str(s)) => Ok(s.clone()),
            _ => Err(unparseable(format!(
                "snapshot missing string field {name:?}"
            ))),
        }
    };
    let kind = field("kind")?;
    let algo = field("algo")?;
    let extra = field("extra")?;
    let k = match v.get("k") {
        Some(&Value::UInt(u)) => u32::try_from(u).ok(),
        Some(&Value::Int(i)) => u32::try_from(i).ok(),
        _ => None,
    }
    .ok_or_else(|| unparseable("snapshot field \"k\" is not a u32".to_string()))?;
    let claimed_key = field("key")?;
    let checksum = field("checksum")?;
    let payload = field("payload")?;

    // Re-derive the content hash from the embedded identity; the `kind`
    // must be one the engine actually caches for the key to be meaningful.
    let rebuilt = CacheKey {
        kind: match kind.as_str() {
            "certify" => "certify",
            "analyze" => "analyze",
            "sweep" => "sweep",
            "routing_cert" => "routing_cert",
            other => {
                return Err(unparseable(format!(
                    "snapshot kind {other:?} is not cacheable"
                )));
            }
        },
        algo,
        k,
        extra,
    };
    if let Some(expect) = expect_key {
        if *expect != rebuilt {
            return Err(ServeDiag {
                code: codes::SERVE_SNAPSHOT_KEY,
                detail: format!(
                    "snapshot identity ({} {} k={}) is not the requested ({} {} k={})",
                    rebuilt.kind, rebuilt.algo, rebuilt.k, expect.kind, expect.algo, expect.k
                ),
            });
        }
    }
    let derived = format!("{:016x}", rebuilt.content_hash());
    if claimed_key != derived {
        return Err(ServeDiag {
            code: codes::SERVE_SNAPSHOT_KEY,
            detail: format!("snapshot key {claimed_key} ≠ derived {derived}"),
        });
    }
    let actual = format!("{:016x}", fnv64(payload.as_bytes()));
    if checksum != actual {
        return Err(ServeDiag {
            code: codes::SERVE_SNAPSHOT_CHECKSUM,
            detail: format!("payload checksum {actual} ≠ recorded {checksum}"),
        });
    }
    Ok(payload)
}

/// Validates one snapshot file (recovery scan). The filename's embedded
/// key must also match the content — a cross-linked file (right content,
/// wrong name) would otherwise shadow a different entry forever.
fn validate_snapshot_file(path: &Path) -> Result<String, ServeDiag> {
    let text = std::fs::read_to_string(path).map_err(|e| ServeDiag {
        code: codes::SERVE_SNAPSHOT_UNPARSEABLE,
        detail: format!("read {}: {e}", path.display()),
    })?;
    let payload = validate_snapshot_text(&text, None).map_err(|mut d| {
        d.detail = format!("{} ({})", d.detail, path.display());
        d
    })?;
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or_default();
    let v: Value = serde_json::from_str(&text).expect("validated above");
    let claimed = match v.get("key") {
        Some(Value::Str(s)) => s.clone(),
        _ => unreachable!("validated above"),
    };
    let expected_suffix = format!("__{claimed}.json");
    if !name.ends_with(&expected_suffix) {
        return Err(ServeDiag {
            code: codes::SERVE_SNAPSHOT_KEY,
            detail: format!(
                "filename {name} does not carry key {claimed} ({})",
                path.display()
            ),
        });
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{NoFaults, ScriptedFaults};
    use std::sync::Arc;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mmio_serve_cache_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn key(algo: &str, k: u32) -> CacheKey {
        CacheKey {
            kind: "certify",
            algo: algo.to_string(),
            k,
            extra: "m=64".to_string(),
        }
    }

    #[test]
    fn put_get_roundtrip_and_restart() {
        let dir = tmpdir("roundtrip");
        let (cache, rep) = DiskCache::open(&dir, Arc::new(NoFaults)).unwrap();
        assert_eq!(rep.valid, 0);
        assert!(cache.get(&key("strassen", 2)).is_none());
        cache.put(&key("strassen", 2), "payload-a\n");
        assert_eq!(
            cache.get(&key("strassen", 2)).as_deref(),
            Some("payload-a\n")
        );
        // A different key misses.
        assert!(cache.get(&key("strassen", 3)).is_none());
        // Restart: a fresh cache over the same dir sees the snapshot.
        let (cache2, rep2) = DiskCache::open(&dir, Arc::new(NoFaults)).unwrap();
        assert_eq!(rep2.valid, 1);
        assert!(rep2.quarantined.is_empty());
        assert_eq!(
            cache2.get(&key("strassen", 2)).as_deref(),
            Some("payload-a\n")
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_is_quarantined_not_served() {
        let dir = tmpdir("bitflip");
        let (cache, _) = DiskCache::open(&dir, Arc::new(NoFaults)).unwrap();
        let k = key("winograd", 2);
        cache.put(&k, "the true payload");
        // Flip a byte inside the payload region of the snapshot on disk.
        let path = cache.entry_path(&k);
        let mut bytes = std::fs::read(&path).unwrap();
        let text = String::from_utf8(bytes.clone()).unwrap();
        let i = text.find("true").unwrap();
        bytes[i] = b'x';
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(cache.get(&k), None, "corrupt snapshot must not be served");
        let diags = cache.take_diags();
        assert!(
            diags
                .iter()
                .any(|d| d.code == codes::SERVE_SNAPSHOT_CHECKSUM),
            "{diags:?}"
        );
        assert!(
            !path.exists(),
            "corrupt file must be moved out of the shard"
        );
        assert!(
            dir.join("quarantine").join(k.file_name()).exists(),
            "quarantined file preserved for autopsy"
        );
        // The slot now recomputes and re-persists cleanly.
        cache.put(&k, "the true payload");
        assert_eq!(cache.get(&k).as_deref(), Some("the true payload"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_temp_is_invisible_and_swept_on_restart() {
        let dir = tmpdir("torn");
        let hook = Arc::new(
            ScriptedFaults::new().script_persists([PersistFault::TornTemp { keep_bytes: 10 }]),
        );
        let (cache, _) = DiskCache::open(&dir, hook).unwrap();
        let k = key("strassen", 1);
        cache.put(&k, "payload");
        // The torn write published nothing.
        assert_eq!(cache.get(&k), None);
        // …but left an orphaned temp that the next open sweeps.
        let (_, rep) = DiskCache::open(&dir, Arc::new(NoFaults)).unwrap();
        assert_eq!(rep.orphans_swept, 1);
        assert_eq!(rep.valid, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_errors_retry_then_degrade() {
        let dir = tmpdir("transient");
        // Two transient failures then success: the retry loop absorbs them.
        let hook = Arc::new(
            ScriptedFaults::new()
                .script_persists([PersistFault::TransientError, PersistFault::TransientError]),
        );
        let (cache, _) = DiskCache::open(&dir, hook).unwrap();
        let k = key("laderman", 1);
        cache.put(&k, "v");
        assert_eq!(cache.get(&k).as_deref(), Some("v"), "retries must succeed");
        assert_eq!(cache.counters.retries.load(Ordering::Relaxed), 2);
        assert_eq!(cache.counters.degraded.load(Ordering::Relaxed), 0);

        // Three in a row exhaust the attempts: degrade, don't cache, don't fail.
        let hook = Arc::new(ScriptedFaults::new().script_persists([
            PersistFault::TransientError,
            PersistFault::TransientError,
            PersistFault::TransientError,
        ]));
        let (cache, _) = DiskCache::open(tmpdir("transient2"), hook).unwrap();
        cache.put(&k, "v");
        assert_eq!(cache.counters.degraded.load(Ordering::Relaxed), 1);
        let diags = cache.take_diags();
        assert!(
            diags.iter().any(|d| d.code == codes::SERVE_CACHE_DEGRADED),
            "{diags:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharding_is_stable_and_within_bounds() {
        for (algo, k) in [("strassen", 1), ("winograd", 7), ("laderman", 0)] {
            let a = key(algo, k).shard();
            let b = key(algo, k).shard();
            assert_eq!(a, b);
            assert!(a < SHARD_COUNT);
        }
        // extra does not move the shard (sharding is by (algo, k) only).
        let mut k1 = key("strassen", 2);
        k1.extra = "m=128".to_string();
        assert_eq!(k1.shard(), key("strassen", 2).shard());
        // …but it does change the content hash.
        assert_ne!(k1.content_hash(), key("strassen", 2).content_hash());
    }
}
