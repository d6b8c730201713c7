//! Structured diagnostics: the common currency of every analysis pass.
//!
//! A [`Diagnostic`] pairs a stable machine-readable code (`MMIO-Axxx` for
//! CDAG lints, `MMIO-Dxxx` for distributed runs, `MMIO-Vxxx` for the
//! certificate verifier's rejections, …) with a severity, a [`Span`]
//! locating the finding, a human-readable message, and an optional
//! suggestion. A [`Report`] collects diagnostics across passes and
//! serializes to JSON for tooling.

use mmio_cert::Verdict;
use serde::{Serialize, Value};
use std::fmt;

/// How serious a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational note; never fails an analysis.
    Info,
    /// Suspicious but legal structure (e.g. a dangling vertex).
    Warning,
    /// A rule violation: the artifact is invalid.
    Error,
}

impl Severity {
    /// Lower-case name used in JSON and human output.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where in the analyzed artifact a diagnostic points.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Span {
    /// A CDAG vertex (dense id).
    Vertex(u32),
    /// A step of a recorded run (0-based event index or round).
    Step(usize),
    /// A base-graph matrix row (`matrix` is `"enc_a"`, `"enc_b"`, or
    /// `"dec"`).
    Row {
        /// Which coefficient matrix.
        matrix: &'static str,
        /// Row index within it.
        row: usize,
    },
    /// A trace-local thread (sync-trace diagnostics).
    Thread(u32),
    /// A distributed-machine rank (distsim audit diagnostics).
    Proc(u32),
    /// A source line (static-audit diagnostics; the file is named in the
    /// message — paths are dynamic, and `Span` stays `Copy`).
    Source(u32),
    /// The artifact as a whole.
    Global,
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Span::Vertex(v) => write!(f, "v{v}"),
            Span::Step(s) => write!(f, "step {s}"),
            Span::Row { matrix, row } => write!(f, "{matrix}[{row}]"),
            Span::Thread(t) => write!(f, "thread {t}"),
            Span::Proc(p) => write!(f, "proc {p}"),
            Span::Source(l) => write!(f, "line {l}"),
            Span::Global => f.write_str("global"),
        }
    }
}

impl Serialize for Span {
    fn to_value(&self) -> Value {
        let kv = |k: &str, name: &str, idx: u64| {
            Value::Object(vec![
                ("kind".to_string(), Value::Str(k.to_string())),
                (name.to_string(), Value::UInt(idx)),
            ])
        };
        match *self {
            Span::Vertex(v) => kv("vertex", "id", u64::from(v)),
            Span::Step(s) => kv("step", "index", s as u64),
            Span::Row { matrix, row } => Value::Object(vec![
                ("kind".to_string(), Value::Str("row".to_string())),
                ("matrix".to_string(), Value::Str(matrix.to_string())),
                ("row".to_string(), Value::UInt(row as u64)),
            ]),
            Span::Thread(t) => kv("thread", "index", u64::from(t)),
            Span::Proc(p) => kv("proc", "rank", u64::from(p)),
            Span::Source(l) => kv("source", "line", u64::from(l)),
            Span::Global => {
                Value::Object(vec![("kind".to_string(), Value::Str("global".to_string()))])
            }
        }
    }
}

/// One finding of an analysis pass.
#[derive(Clone, Debug, PartialEq)]
pub struct Diagnostic {
    /// Stable machine code, e.g. `"MMIO-A001"`. See [`crate::codes`].
    pub code: &'static str,
    /// Severity of the finding.
    pub severity: Severity,
    /// Location in the analyzed artifact.
    pub span: Span,
    /// Human-readable description of what was found.
    pub message: String,
    /// Optional remediation hint.
    pub suggestion: Option<String>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] at {}: {}",
            self.severity, self.code, self.span, self.message
        )?;
        if let Some(s) = &self.suggestion {
            write!(f, " (hint: {s})")?;
        }
        Ok(())
    }
}

impl Serialize for Diagnostic {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("code".to_string(), Value::Str(self.code.to_string())),
            (
                "severity".to_string(),
                Value::Str(self.severity.as_str().to_string()),
            ),
            ("span".to_string(), self.span.to_value()),
            ("message".to_string(), Value::Str(self.message.clone())),
            (
                "suggestion".to_string(),
                match &self.suggestion {
                    Some(s) => Value::Str(s.clone()),
                    None => Value::Null,
                },
            ),
        ])
    }
}

/// A collection of diagnostics from one or more passes.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// All findings, in emission order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Report {
        Report::default()
    }

    /// Appends a diagnostic.
    pub fn push(
        &mut self,
        code: &'static str,
        severity: Severity,
        span: Span,
        message: impl Into<String>,
    ) {
        self.diagnostics.push(Diagnostic {
            code,
            severity,
            span,
            message: message.into(),
            suggestion: None,
        });
    }

    /// Appends a diagnostic with a remediation hint.
    pub fn push_with_hint(
        &mut self,
        code: &'static str,
        severity: Severity,
        span: Span,
        message: impl Into<String>,
        suggestion: impl Into<String>,
    ) {
        self.diagnostics.push(Diagnostic {
            code,
            severity,
            span,
            message: message.into(),
            suggestion: Some(suggestion.into()),
        });
    }

    /// Appends one error per rejection of a certificate verdict, under the
    /// verifier's own `MMIO-Vxxx` code, at [`Span::Global`]; the message is
    /// the rejection's detail, which names the step or path. An accepted
    /// verdict appends nothing.
    ///
    /// # Panics
    /// Panics on a code missing from `mmio_cert::codes::TABLE`: the
    /// verifier rejects only with registered codes (`MMIO-L010` checks it).
    pub fn push_verdict(&mut self, verdict: &Verdict) {
        for rejection in &verdict.rejections {
            let &(code, _) = mmio_cert::codes::TABLE
                .iter()
                .find(|&&(code, _)| code == rejection.code)
                .expect("the verifier rejects only with registered codes");
            self.push(
                code,
                Severity::Error,
                Span::Global,
                rejection.detail.clone(),
            );
        }
    }

    /// Findings at [`Severity::Error`].
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Whether any finding is an error.
    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }

    /// Number of errors.
    pub fn error_count(&self) -> usize {
        self.errors().count()
    }

    /// Number of warnings.
    pub fn warning_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// The distinct codes present, sorted.
    pub fn codes(&self) -> Vec<&'static str> {
        let mut v: Vec<&'static str> = self.diagnostics.iter().map(|d| d.code).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Whether a specific code was emitted.
    pub fn has_code(&self, code: &str) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Merges another report's findings into this one.
    pub fn merge(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }
}

impl Serialize for Report {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("errors".to_string(), Value::UInt(self.error_count() as u64)),
            (
                "warnings".to_string(),
                Value::UInt(self.warning_count() as u64),
            ),
            ("diagnostics".to_string(), self.diagnostics.to_value()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_counts_and_codes() {
        let mut r = Report::new();
        r.push("MMIO-A001", Severity::Error, Span::Vertex(3), "cycle");
        r.push("MMIO-A003", Severity::Warning, Span::Global, "dangling");
        r.push("MMIO-A001", Severity::Error, Span::Vertex(4), "cycle");
        assert_eq!(r.error_count(), 2);
        assert_eq!(r.warning_count(), 1);
        assert!(r.has_errors());
        assert_eq!(r.codes(), vec!["MMIO-A001", "MMIO-A003"]);
        assert!(r.has_code("MMIO-A003"));
        assert!(!r.has_code("MMIO-D001"));
    }

    #[test]
    fn json_shape() {
        let mut r = Report::new();
        r.push_with_hint(
            "MMIO-D004",
            Severity::Error,
            Span::Step(7),
            "cache overflow",
            "raise M",
        );
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("\"MMIO-D004\""));
        assert!(json.contains("\"step\""));
        assert!(json.contains("\"raise M\""));
        let v: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v.get("errors"), Some(&Value::Int(1)));
    }

    #[test]
    fn verdicts_become_one_global_error_per_rejection() {
        use mmio_cert::{fixtures, format::Payload, verify};

        let mut r = Report::new();
        r.push_verdict(&verify(&fixtures::unit_schedule()));
        assert!(r.diagnostics.is_empty(), "an accepted verdict adds nothing");

        // The unit schedule peaks at 5 cached values: M = 4 is overrun.
        let mut cert = fixtures::unit_schedule();
        if let Payload::Schedule(p) = &mut cert.payload {
            p.m = 4;
        }
        let verdict = verify(&cert);
        assert!(!verdict.accepted);
        r.push_verdict(&verdict);
        assert_eq!(r.error_count(), verdict.rejections.len());
        for (d, rejection) in r.diagnostics.iter().zip(&verdict.rejections) {
            assert_eq!(d.code, rejection.code);
            assert_eq!(d.message, rejection.detail);
            assert_eq!(d.span, Span::Global);
        }
    }

    #[test]
    fn display_formats() {
        let d = Diagnostic {
            code: "MMIO-D002",
            severity: Severity::Error,
            span: Span::Proc(2),
            message: "value used before it was available".into(),
            suggestion: None,
        };
        let s = d.to_string();
        assert!(s.contains("MMIO-D002"));
        assert!(s.contains("proc 2"));
    }
}
