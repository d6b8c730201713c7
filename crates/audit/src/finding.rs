//! The auditor's finding record: a diagnostic plus source provenance
//! and a call-chain witness.

use mmio_analyze::diag::Severity;
use serde::{Serialize, Value};

/// One audit finding.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Stable code from [`mmio_analyze::codes`] (`MMIO-Lxxx`).
    pub code: &'static str,
    pub severity: Severity,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
    /// Shortest call chain from a trust root to the site (panic pass
    /// only; empty for registry/hygiene findings). Each entry is
    /// `qualname (file:line)`.
    pub chain: Vec<String>,
}

impl Finding {}

impl Serialize for Finding {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("code".to_string(), Value::Str(self.code.to_string())),
            (
                "severity".to_string(),
                Value::Str(self.severity.as_str().to_string()),
            ),
            ("file".to_string(), Value::Str(self.file.clone())),
            ("line".to_string(), Value::UInt(u64::from(self.line))),
            ("message".to_string(), Value::Str(self.message.clone())),
            (
                "chain".to_string(),
                Value::Array(self.chain.iter().map(|c| Value::Str(c.clone())).collect()),
            ),
        ])
    }
}
