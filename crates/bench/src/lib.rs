//! # mmio-bench
//!
//! The experiment harness: one binary per experiment in `EXPERIMENTS.md`
//! (`cargo run --release -p mmio-bench --bin exp_<id>`). Timing is not
//! measured here; `mmio_benchmark/` is the workspace's one benchmark.
//!
//! Every binary prints its table to stdout and appends a machine-readable
//! record to `results/<id>.json`.

#![forbid(unsafe_code)]

use serde::Serialize;
use std::fs;
use std::path::PathBuf;

/// Pre-flight static analysis gate for experiment binaries: runs the
/// `mmio-analyze` CDAG passes on `base` at depth 1 and panics on any error,
/// so a malformed algorithm is rejected before minutes of measurement.
/// Depth 1 suffices — the base-graph lints (tensor identity, single-use)
/// are depth-independent, and structural defects replicate to every depth.
pub fn preflight(base: &mmio_cdag::BaseGraph) {
    preflight_expecting(base, &[]);
}

/// [`preflight`] for experiments that *study* a defect: every reported
/// error must carry one of the `expected` codes, and every expected code
/// must actually fire. E12, for instance, measures a base graph that
/// deliberately violates the single-use assumption (`MMIO-A007`).
pub fn preflight_expecting(base: &mmio_cdag::BaseGraph, expected: &[&str]) {
    let report = mmio_analyze::analyze_base_at(base, 1);
    for d in report.errors() {
        assert!(
            expected.contains(&d.code),
            "pre-flight static analysis failed for '{}': {d}",
            base.name()
        );
    }
    for code in expected {
        assert!(
            report.has_code(code),
            "pre-flight expected '{}' to trigger {code}, but it did not",
            base.name()
        );
    }
}

/// Where experiment records are written (workspace-relative `results/`).
pub fn results_dir() -> PathBuf {
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    dir.pop();
    dir.pop();
    dir.push("results");
    dir
}

/// Serializes `record` as pretty JSON into `results/<name>.json`.
pub fn write_record<T: Serialize>(name: &str, record: &T) {
    let dir = results_dir();
    if fs::create_dir_all(&dir).is_err() {
        return; // reporting is best-effort; the stdout table is the output
    }
    let path = dir.join(format!("{name}.json"));
    if let Ok(json) = serde_json::to_string_pretty(record) {
        let _ = fs::write(&path, json);
    }
}

/// A generic labelled row of floats, the common shape of experiment tables.
#[derive(Serialize, Clone, Debug)]
pub struct Row {
    /// Row label (e.g. the swept parameter).
    pub label: String,
    /// Named values.
    pub values: Vec<(String, f64)>,
}

impl Row {
    /// Builds a row.
    pub fn new(label: impl Into<String>) -> Row {
        Row {
            label: label.into(),
            values: Vec::new(),
        }
    }

    /// Adds one named value.
    pub fn push(mut self, key: &str, value: f64) -> Row {
        self.values.push((key.to_string(), value));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_accumulate() {
        let row = Row::new("M=8").push("io", 12.0).push("bound", 4.0);
        assert_eq!(row.values.len(), 2);
        assert_eq!(row.values[1].1, 4.0);
    }

    #[test]
    fn results_dir_points_at_workspace() {
        assert!(results_dir().ends_with("results"));
    }
}
