//! Spans and counts recorded around the calls the benchmark makes into each
//! layer. A disabled tracer runs the same code and records nothing, so the
//! untraced and the traced run differ only in the recording.
//!
//! A span's layer is its name up to the first `.` (`cdag.build` belongs to
//! `cdag`). Spans stay in memory and are written once, at exit.

use crate::stats::median;
use serde::Value;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    op: u64,
    stack: Vec<usize>,
    pub spans: Vec<Span>,
    /// `(name, op, value)` counts, summed per op when reported.
    pub counts: Vec<(&'static str, u64, f64)>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            counts: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Attributes the spans and counts that follow to operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.on {
            self.counts.push((name, self.op, value));
        }
    }

    /// Per op, the summed duration (ms) of the spans named `name`; one
    /// entry per op that has such a span.
    pub fn per_op_ms(&self, name: &str) -> Vec<f64> {
        let mut by_op: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_op.entry(s.op).or_default() += (s.end_ns - s.start_ns) as f64 / 1e6;
        }
        by_op.into_values().collect()
    }

    /// Median over ops of the op's summed span time, or 0 if the run never
    /// made the call.
    pub fn median_ms(&self, name: &str) -> f64 {
        let v = self.per_op_ms(name);
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    }

    pub fn total_ms(&self, name: &str) -> f64 {
        self.per_op_ms(name).iter().sum()
    }

    /// Median over ops of the op's summed count, or 0 if never counted.
    pub fn median_count(&self, name: &str) -> f64 {
        let mut by_op: BTreeMap<u64, f64> = BTreeMap::new();
        for &(n, op, v) in &self.counts {
            if n == name {
                *by_op.entry(op).or_default() += v;
            }
        }
        let v: Vec<f64> = by_op.into_values().collect();
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    }

    pub fn total_count(&self, name: &str) -> f64 {
        self.counts
            .iter()
            .filter(|c| c.0 == name)
            .fold(0.0, |acc, c| acc + c.2)
    }

    fn child_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        child
    }

    /// Median over the spans named `root` of the share of each span's time
    /// covered by its child spans.
    pub fn coverage(&self, root: &str) -> f64 {
        let child = self.child_ns();
        let shares: Vec<f64> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == root && s.end_ns > s.start_ns)
            .map(|(i, s)| child[i] as f64 / (s.end_ns - s.start_ns) as f64)
            .collect();
        if shares.is_empty() {
            0.0
        } else {
            median(&shares)
        }
    }

    /// One line per span name: calls, total, self time (total minus the
    /// time its child spans cover) and the per-op median, grouped by layer.
    pub fn layer_table(&self) -> Vec<String> {
        let child = self.child_ns();
        let mut rows: BTreeMap<&str, (usize, f64, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let d = s.end_ns - s.start_ns;
            let row = rows.entry(s.name).or_default();
            row.0 += 1;
            row.1 += d as f64 / 1e6;
            row.2 += d.saturating_sub(child[i]) as f64 / 1e6;
        }
        let mut out = vec![format!(
            "{:<22} {:>7} {:>12} {:>12} {:>12}",
            "span", "calls", "total_ms", "self_ms", "per_op_p50"
        )];
        for (name, (calls, total, self_ms)) in rows {
            out.push(format!(
                "{name:<22} {calls:>7} {total:>12.3} {self_ms:>12.3} {:>12.4}",
                self.median_ms(name)
            ));
        }
        out
    }

    /// The spans as Chrome trace-event JSON (viewable in Perfetto): one
    /// complete (`X`) event per span, thread = layer.
    pub fn chrome_json(&self) -> String {
        let layers: Vec<&str> = {
            let mut l: Vec<&str> = self.spans.iter().map(|s| layer(s.name)).collect();
            l.sort_unstable();
            l.dedup();
            l
        };
        let events = self
            .spans
            .iter()
            .map(|s| {
                let tid = layers.iter().position(|l| *l == layer(s.name)).unwrap_or(0);
                Value::Object(vec![
                    ("name".into(), Value::Str(s.name.into())),
                    ("cat".into(), Value::Str(layer(s.name).into())),
                    ("ph".into(), Value::Str("X".into())),
                    ("ts".into(), Value::Float(s.start_ns as f64 / 1e3)),
                    (
                        "dur".into(),
                        Value::Float((s.end_ns - s.start_ns) as f64 / 1e3),
                    ),
                    ("pid".into(), Value::UInt(1)),
                    ("tid".into(), Value::UInt(tid as u64 + 1)),
                    (
                        "args".into(),
                        Value::Object(vec![
                            ("op".into(), Value::UInt(s.op)),
                            (
                                "parent".into(),
                                s.parent
                                    .map_or(Value::Null, |p| Value::Str(self.spans[p].name.into())),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        serde_json::to_string(&Value::Object(vec![
            ("traceEvents".into(), Value::Array(events)),
            ("displayTimeUnit".into(), Value::Str("ms".into())),
        ]))
        .expect("trace renders")
    }
}

fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_runs_the_closure_and_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("a.x", |t| t.span("b.y", |_| 7));
        t.count("c", 1.0);
        assert_eq!(v, 7);
        assert!(t.spans.is_empty() && t.counts.is_empty());
    }

    #[test]
    fn self_time_and_coverage_subtract_children() {
        let mut t = Tracer::new(true);
        t.set_op(1);
        t.span("bench.op", |t| {
            t.span("a.x", |_| {
                std::thread::sleep(std::time::Duration::from_millis(4))
            });
            t.span("a.x", |_| {
                std::thread::sleep(std::time::Duration::from_millis(4))
            });
        });
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.per_op_ms("a.x").len(), 1, "summed per op");
        assert!(t.median_ms("a.x") >= 8.0);
        assert!(t.coverage("bench.op") > 0.9);
        assert_eq!(t.median_ms("never.called"), 0.0);
        let json = t.chrome_json();
        assert!(json.contains("\"ph\":\"X\"") && json.contains("\"parent\":\"bench.op\""));
    }
}
