//! `mmio_benchmark compare PARENT.jsonl CHANGE.jsonl [--bench FILE]`:
//! judges a change against its parent from two sets of untraced runs (the
//! `--out` records), one row per workload and end-to-end metric.
//!
//! The rules are the ones the benchmark's bounds are written for. A gain
//! needs the change to win at least nine tenths of the run pairs (i-th run
//! against i-th run, ties counting for neither) and a median gap wider than
//! the parent's interquartile range. A regression is a median worse than
//! the parent's by more than the metric's bound. When either side's spread
//! exceeds the bound the row is unresolved, unless every change run beats
//! every parent run.

use crate::stats::quartiles;
use serde::Value;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Regressed,
    Unchanged,
    Unresolved,
}

pub struct Side {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Side {
    fn of(values: &[f64]) -> Side {
        let (q1, median, q3) = quartiles(values);
        Side {
            n: values.len(),
            q1,
            median,
            q3,
        }
    }

    /// Interquartile range as a share of the median.
    fn spread(&self) -> f64 {
        (self.q3 - self.q1).abs() / self.median.abs()
    }
}

/// Judges one metric; `lower` says which direction is better.
pub fn verdict(parent: &[f64], change: &[f64], lower: bool, bound: f64) -> (Verdict, f64) {
    let better = |c: f64, p: f64| if lower { c < p } else { c > p };
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs).filter(|&i| better(change[i], parent[i])).count();
    let win_frac = wins as f64 / pairs.max(1) as f64;
    let (p, c) = (Side::of(parent), Side::of(change));
    // Positive when the change is worse.
    let worse_by = if lower {
        c.median - p.median
    } else {
        p.median - c.median
    };
    let all_better = change
        .iter()
        .all(|&cv| parent.iter().all(|&pv| better(cv, pv)));
    let v = if pairs > 0 && all_better {
        Verdict::Improved
    } else if p.spread() > bound || c.spread() > bound {
        Verdict::Unresolved
    } else if worse_by > bound * p.median.abs() {
        Verdict::Regressed
    } else if win_frac >= 0.9 && -worse_by > p.q3 - p.q1 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (v, win_frac)
}

fn records(path: &str) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| serde_json::from_str::<Value>(l).map_err(|e| format!("{path}: {e}")))
        .filter(|r| !matches!(r, Ok(v) if v.get("trace") == Some(&Value::Bool(true))))
        .collect()
}

fn num(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        _ => None,
    }
}

fn text(v: Option<&Value>) -> String {
    match v {
        Some(Value::Str(s)) => s.clone(),
        _ => String::new(),
    }
}

fn values(recs: &[Value], workload: &str, metric: &str) -> Vec<f64> {
    recs.iter()
        .filter(|r| text(r.get("workload")) == workload)
        .filter_map(|r| num(r.get("metrics")?.get(metric)?.get("value")))
        .collect()
}

fn side_json(s: &Side) -> Value {
    Value::Object(vec![
        ("n".into(), Value::UInt(s.n as u64)),
        ("median".into(), Value::Float(s.median)),
        ("q1".into(), Value::Float(s.q1)),
        ("q3".into(), Value::Float(s.q3)),
    ])
}

pub fn main(args: Vec<String>) -> Result<bool, String> {
    let (files, bench) = match args.as_slice() {
        [p, c] => ([p, c], "BENCHMARK.json".to_string()),
        [p, c, flag, b] if flag == "--bench" => ([p, c], b.clone()),
        _ => return Err("compare PARENT.jsonl CHANGE.jsonl [--bench BENCHMARK.json]".into()),
    };
    let spec: Value = serde_json::from_str(
        &std::fs::read_to_string(&bench).map_err(|e| format!("{bench}: {e}"))?,
    )
    .map_err(|e| format!("{bench}: {e}"))?;
    let (parent, change) = (records(files[0])?, records(files[1])?);
    let mut workloads: Vec<String> = Vec::new();
    for r in parent.iter().chain(&change) {
        let w = text(r.get("workload"));
        if !workloads.contains(&w) {
            workloads.push(w);
        }
    }
    let Some(Value::Array(metrics)) = spec.get("end_to_end") else {
        return Err(format!("{bench}: no end_to_end metrics"));
    };
    println!(
        "{:<15} {:<12} {:>30} {:>30} {:>6} verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    let mut rows = Vec::new();
    for w in &workloads {
        for m in metrics {
            let name = text(m.get("name"));
            let lower = text(m.get("better")) == "lower";
            let bound = num(m.get("bound")).ok_or(format!("{name}: no bound"))?;
            let (p, c) = (values(&parent, w, &name), values(&change, w, &name));
            if p.is_empty() || c.is_empty() {
                continue;
            }
            let (v, win_frac) = verdict(&p, &c, lower, bound);
            let (ps, cs) = (Side::of(&p), Side::of(&c));
            let show = |s: &Side| format!("{:.4} [{:.4}, {:.4}] n={}", s.median, s.q1, s.q3, s.n);
            println!(
                "{w:<15} {name:<12} {:>30} {:>30} {win_frac:>6.2} {v:?}",
                show(&ps),
                show(&cs)
            );
            rows.push(Value::Object(vec![
                ("workload".into(), Value::Str(w.clone())),
                ("metric".into(), Value::Str(name.clone())),
                ("bound".into(), Value::Float(bound)),
                ("parent".into(), side_json(&ps)),
                ("change".into(), side_json(&cs)),
                ("win_frac".into(), Value::Float(win_frac)),
                (
                    "verdict".into(),
                    Value::Str(format!("{v:?}").to_lowercase()),
                ),
            ]));
        }
    }
    println!(
        "{}",
        serde_json::to_string(&Value::Object(vec![("rows".into(), Value::Array(rows))]))
            .expect("renders")
    );
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(center: f64, jitter: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center + jitter * (i as f64 - 4.5) / 4.5)
            .collect()
    }

    #[test]
    fn verdicts_on_synthetic_runs() {
        let parent = runs(100.0, 2.0);
        // Every change run faster: improved, whatever the spread.
        assert_eq!(
            verdict(&parent, &runs(80.0, 2.0), true, 0.1).0,
            Verdict::Improved
        );
        // Same distribution: unchanged, and half the pairs won at most.
        let (v, wins) = verdict(&parent, &parent, true, 0.1);
        assert_eq!((v, wins), (Verdict::Unchanged, 0.0));
        // 15 % slower with a 10 % bound: regressed.
        assert_eq!(
            verdict(&parent, &runs(115.0, 2.0), true, 0.1).0,
            Verdict::Regressed
        );
        // 5 % slower: within the bound.
        assert_eq!(
            verdict(&parent, &runs(105.0, 2.0), true, 0.1).0,
            Verdict::Unchanged
        );
        // Higher-is-better metrics read the other way round.
        assert_eq!(
            verdict(&parent, &runs(115.0, 2.0), false, 0.1).0,
            Verdict::Improved
        );
        // A spread wider than the bound cannot be judged...
        let noisy = runs(100.0, 30.0);
        assert_eq!(
            verdict(&noisy, &runs(101.0, 30.0), true, 0.1).0,
            Verdict::Unresolved
        );
        // ...unless every change run beats every parent run.
        assert_eq!(
            verdict(&noisy, &runs(50.0, 10.0), true, 0.1).0,
            Verdict::Improved
        );
    }

    #[test]
    fn a_gain_needs_nine_tenths_of_the_pairs() {
        let parent = runs(100.0, 2.0);
        // Median 3 lower (more than the parent's IQR) but only 8/10 pairs
        // won: not a gain.
        let mut change: Vec<f64> = parent.iter().map(|p| p - 3.0).collect();
        change[0] = parent[0] + 1.0;
        change[1] = parent[1] + 1.0;
        let (v, wins) = verdict(&parent, &change, true, 0.1);
        assert_eq!(wins, 0.8);
        assert_eq!(v, Verdict::Unchanged);
        change[1] = parent[1] - 3.0;
        assert_eq!(verdict(&parent, &change, true, 0.1).0, Verdict::Improved);
    }
}
