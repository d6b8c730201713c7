//! JSON import/export of base graphs, so users can define their own
//! Strassen-like algorithms in a data file and push them through the whole
//! pipeline (verification, CDAG, routings, bounds).
//!
//! Imported graphs are *always* checked against the matrix-multiplication
//! tensor: a coefficient file that does not multiply matrices is rejected,
//! not silently analyzed.

use crate::base::{check_shape, BaseGraph};
use mmio_matrix::{Matrix, Rational};
use serde::{Deserialize, Serialize};

/// The on-disk form of a base graph.
#[derive(Serialize, Deserialize)]
struct BaseGraphFile {
    name: String,
    n0: usize,
    enc_a: Matrix<Rational>,
    enc_b: Matrix<Rational>,
    dec: Matrix<Rational>,
}

/// Errors importing a base graph.
#[derive(Debug)]
pub enum ImportError {
    /// The JSON was malformed or shapes inconsistent.
    Parse(String),
    /// The coefficients do not satisfy the matmul tensor identity; the
    /// number of violated triples is reported.
    Incorrect(usize),
}

impl std::fmt::Display for ImportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImportError::Parse(e) => write!(f, "parse error: {e}"),
            ImportError::Incorrect(n) => {
                write!(
                    f,
                    "not a matrix multiplication algorithm ({n} tensor violations)"
                )
            }
        }
    }
}

impl std::error::Error for ImportError {}

/// Serializes a base graph to pretty JSON.
pub fn to_json(base: &BaseGraph) -> String {
    let file = BaseGraphFile {
        name: base.name().to_string(),
        n0: base.n0(),
        enc_a: base.enc(crate::base::Side::A).clone(),
        enc_b: base.enc(crate::base::Side::B).clone(),
        dec: base.dec().clone(),
    };
    serde_json::to_string_pretty(&file).expect("base graphs always serialize")
}

/// Parses and *verifies* a base graph from JSON.
pub fn from_json(json: &str) -> Result<BaseGraph, ImportError> {
    let file: BaseGraphFile =
        serde_json::from_str(json).map_err(|e| ImportError::Parse(e.to_string()))?;
    check_shape(file.n0, &file.enc_a, &file.enc_b, &file.dec).map_err(ImportError::Parse)?;
    let base = BaseGraph::new(file.name, file.n0, file.enc_a, file.enc_b, file.dec);
    base.verify_correctness()
        .map_err(|errs| ImportError::Incorrect(errs.len()))?;
    Ok(base)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> BaseGraph {
        let one = Matrix::from_vec(1, 1, vec![Rational::ONE]);
        BaseGraph::new("unit", 1, one.clone(), one.clone(), one)
    }

    #[test]
    fn roundtrip() {
        let base = unit();
        let json = to_json(&base);
        let back = from_json(&json).unwrap();
        assert_eq!(back.name(), "unit");
        assert_eq!(back.n0(), 1);
        assert!(back
            .enc(crate::base::Side::A)
            .exactly_equals(base.enc(crate::base::Side::A)));
    }

    #[test]
    fn incorrect_algorithms_rejected() {
        let base = unit();
        let json = to_json(&base).replace("\"1\"", "\"2\""); // corrupt a coefficient
        match from_json(&json) {
            Err(ImportError::Incorrect(n)) => assert!(n > 0),
            other => panic!("expected Incorrect, got {other:?}"),
        }
    }

    #[test]
    fn malformed_json_rejected() {
        assert!(matches!(from_json("{"), Err(ImportError::Parse(_))));
    }

    #[test]
    fn shape_mismatch_rejected() {
        let json = r#"{"name":"bad","n0":2,
            "enc_a":{"rows":1,"cols":1,"data":["1"]},
            "enc_b":{"rows":1,"cols":1,"data":["1"]},
            "dec":{"rows":1,"cols":1,"data":["1"]}}"#;
        assert!(matches!(from_json(json), Err(ImportError::Parse(_))));
    }
}
