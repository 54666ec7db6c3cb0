//! What a child measures and how it reaches the harness: one text line
//! per metric, check and note, parsed back by [`parse_line`].
//!
//! ```text
//! metric e2e rate_mops 63.21 Mop/s n=140000
//! metric layer float.ln.ns 15.82 ns n=14000
//! check attempted=409600 failed=0
//! info inputs_fnv 0x1f2e3d4c5b6a7988
//! ```

use std::fmt::Write as _;

/// End-to-end metrics are gated with a bound; layer metrics explain them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    E2e,
    Layer,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub class: Class,
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// Samples behind the value (1 for a single measurement or a count).
    pub n: u64,
}

/// Everything one child run produced.
#[derive(Default, Debug)]
pub struct Sink {
    pub metrics: Vec<Metric>,
    /// Outputs compared with the library's dd reference path.
    pub attempted: u64,
    /// Outputs that differed from it.
    pub failed: u64,
    /// dd reference results compared with the multi-precision oracle.
    pub oracle_checked: u64,
    /// Of those, results that were not correctly rounded. These are
    /// library defects present at every commit, so they are reported,
    /// not counted as failures of the run.
    pub oracle_disagreements: u64,
    pub notes: Vec<(String, String)>,
}

impl Sink {
    pub fn put(&mut self, class: Class, name: impl Into<String>, value: f64, unit: &str, n: u64) {
        let name = name.into();
        debug_assert!(!self.has(&name), "metric {name} recorded twice");
        self.metrics.push(Metric {
            class,
            name,
            value,
            unit: unit.to_string(),
            n,
        });
    }

    pub fn e2e(&mut self, name: impl Into<String>, value: f64, unit: &str, n: u64) {
        self.put(Class::E2e, name, value, unit, n);
    }

    pub fn layer(&mut self, name: impl Into<String>, value: f64, unit: &str, n: u64) {
        self.put(Class::Layer, name, value, unit, n);
    }

    /// Records `attempted` checked outputs of which `failed` were wrong.
    pub fn check(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn oracle_check(&mut self, checked: u64, disagreements: u64) {
        self.oracle_checked += checked;
        self.oracle_disagreements += disagreements;
    }

    pub fn note(&mut self, key: &str, value: impl Into<String>) {
        self.notes.push((key.to_string(), value.into()));
    }

    pub fn has(&self, name: &str) -> bool {
        self.metrics.iter().any(|m| m.name == name)
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Copies in `other`'s layer metrics that this sink lacks, and all of
    /// its checks.
    pub fn fill_layers_from(&mut self, other: &Sink) {
        for m in &other.metrics {
            if m.class == Class::Layer && !self.has(&m.name) {
                self.metrics.push(m.clone());
            }
        }
        self.check(other.attempted, other.failed);
        self.oracle_check(other.oracle_checked, other.oracle_disagreements);
    }

    pub fn lines(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.notes {
            let _ = writeln!(out, "info {k} {v}");
        }
        for m in &self.metrics {
            let class = match m.class {
                Class::E2e => "e2e",
                Class::Layer => "layer",
            };
            let _ = writeln!(
                out,
                "metric {class} {} {} {} n={}",
                m.name, m.value, m.unit, m.n
            );
        }
        if self.oracle_checked > 0 {
            let _ = writeln!(
                out,
                "info oracle_disagreements {} of {}",
                self.oracle_disagreements, self.oracle_checked
            );
        }
        let _ = writeln!(
            out,
            "check attempted={} failed={}",
            self.attempted, self.failed
        );
        out
    }
}

/// Adds one protocol line to `sink`; other lines are ignored.
pub fn parse_line(line: &str, sink: &mut Sink) {
    let mut t = line.split_whitespace();
    match t.next() {
        Some("metric") => {
            let class = match t.next() {
                Some("e2e") => Class::E2e,
                Some("layer") => Class::Layer,
                _ => return,
            };
            let (Some(name), Some(value), Some(unit), Some(n)) =
                (t.next(), t.next(), t.next(), t.next())
            else {
                return;
            };
            let (Ok(value), Some(Ok(n))) = (
                value.parse::<f64>(),
                n.strip_prefix("n=").map(str::parse::<u64>),
            ) else {
                return;
            };
            sink.put(class, name, value, unit, n);
        }
        Some("check") => {
            let mut field = |key: &str| {
                t.next()
                    .and_then(|f| f.strip_prefix(key))
                    .and_then(|v| v.parse::<u64>().ok())
            };
            if let (Some(a), Some(f)) = (field("attempted="), field("failed=")) {
                sink.check(a, f);
            }
        }
        _ => {}
    }
}

/// The harness's result line: `correct`, `attempted`, `failed`, and the
/// given metrics as `{"name": {"value": v, "unit": u}}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[&Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_round_trip() {
        let mut s = Sink::default();
        s.e2e("rate_mops", 63.25, "Mop/s", 140_000);
        s.layer("float.ln.ns", 15.5, "ns", 14);
        s.check(100, 1);
        s.note("inputs_fnv", "0xabc");
        let mut back = Sink::default();
        for line in s.lines().lines() {
            parse_line(line, &mut back);
        }
        assert_eq!(back.metrics, s.metrics);
        assert_eq!((back.attempted, back.failed), (100, 1));
    }

    #[test]
    fn result_line_shape() {
        let m = Metric {
            class: Class::E2e,
            name: "setup_s".into(),
            value: 0.5,
            unit: "s".into(),
            n: 5,
        };
        assert_eq!(
            result_json(true, 3, 0, &[&m]),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
