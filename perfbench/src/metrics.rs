//! The metric set a command prints: name, value and unit, checked
//! names, and the JSON object `run.py` reads.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

/// Named metrics plus the operation counts and failed checks of a run.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, (f64, &'static str)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Output checks that did not hold, one line each.
    pub problems: Vec<String>,
}

impl Metrics {
    /// An empty set.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Sets `name` to `value` in `unit`.
    ///
    /// # Panics
    ///
    /// Panics on an invalid name — a bug in this program.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(valid_name(&name), "invalid metric name `{name}`");
        self.values.insert(name, (value, unit));
    }

    /// Records a failed output check.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    /// `{"attempted":..,"failed":..,"problems":[..],"metrics":{..}}`.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"attempted\":{},\"failed\":{},\"problems\":[",
            self.attempted, self.failed
        );
        for (i, p) in self.problems.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&simty_serve::http::json_escape(p));
        }
        out.push_str("],\"metrics\":{");
        for (i, (name, (value, unit))) in self.values.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let value = if value.is_finite() {
                format!("{value}")
            } else {
                "null".to_owned()
            };
            let _ = write!(out, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_charset() {
        assert!(valid_name("serve.route.register.p50_ms"));
        assert!(valid_name("sim.stage.queue_search.calls"));
        assert!(valid_name("serve.status.query.404"));
        assert!(!valid_name(""));
        assert!(!valid_name("bad name"));
        assert!(!valid_name("p99/ms"));
    }

    #[test]
    fn declared_metrics_have_valid_names_and_units() {
        let doc = include_str!("../../BENCHMARK.json");
        let doc = simty_bench::JsonValue::parse(doc).unwrap();
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
        };
        let mut seen = std::collections::BTreeSet::new();
        for kind in ["end_to_end", "per_layer"] {
            let simty_bench::JsonValue::Arr(metrics) = doc.get(kind).unwrap() else {
                panic!("{kind} is not a list");
            };
            for metric in metrics {
                let name = metric.get("name").and_then(|n| n.as_str()).unwrap();
                let unit = metric.get("unit").and_then(|u| u.as_str()).unwrap();
                assert!(valid_name(name) && name.len() <= 64, "{name}");
                assert!(unit_ok(unit), "{name}: unit {unit}");
                assert!(seen.insert(name.to_owned()), "{name} declared twice");
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn setting_a_bad_name_panics() {
        Metrics::new().set("a b", 1.0, "ms");
    }

    #[test]
    fn json_carries_values_units_and_counts() {
        let mut m = Metrics::new();
        m.set("x.y_ms", 1.5, "ms");
        m.attempted = 3;
        m.failed = 1;
        m.problem("went \"wrong\"");
        let json = m.to_json();
        assert!(json.contains("\"x.y_ms\":{\"value\":1.5,\"unit\":\"ms\"}"));
        assert!(json.starts_with("{\"attempted\":3,\"failed\":1,"));
        let parsed = simty_bench::JsonValue::parse(&json).unwrap();
        assert!(parsed.get("problems").is_some());
    }
}
