//! In-memory spans for the traced run.
//!
//! Every span has a name, a start, an end and a parent (the span open
//! when it started). The run keeps them in a `Vec` and writes them out
//! once, at the end, as a Chrome trace. A layer's self time is its
//! spans' time minus the time their child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-prefixed call name, e.g. `core.register`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder. A disabled tracer records nothing, so the same
/// code runs traced and untraced.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Closes `span`, which must be the innermost open span.
    pub fn exit(&mut self, span: Open) {
        let Some(id) = span.0 else { return };
        let end = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.enter(name);
        let out = f();
        self.exit(span);
        out
    }

    /// Appends `other`'s spans, re-based onto this tracer's epoch.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let shift = other.epoch.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            start_ns: s.start_ns + shift,
            end_ns: s.end_ns + shift,
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Self time per span name: Σ duration minus the time the
    /// spans' children cover, ns.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *out.entry(s.name).or_default() += s.dur_ns().saturating_sub(child_ns[i]);
        }
        out
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto), one
    /// complete event per span with its id and parent in `args`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            span("bench.device", 0, 100, None),
            span("apps.build", 10, 30, Some(0)),
            span("sim.run", 40, 90, Some(0)),
            span("core.register", 50, 60, Some(2)),
        ];
        let self_ns = t.self_ns();
        assert_eq!(self_ns["bench.device"], 30);
        assert_eq!(self_ns["sim.run"], 40);
        assert_eq!(self_ns["apps.build"], 20);
        assert_eq!(self_ns["core.register"], 10);
    }

    #[test]
    fn nesting_follows_the_open_stack() {
        let mut t = Tracer::new(true);
        let outer = t.enter("a");
        t.time("b", || ());
        t.exit(outer);
        t.time("c", || ());
        let s = t.spans();
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, None);
        assert!(s[0].end_ns >= s[1].end_ns);
        assert!(t.to_chrome_json().contains("\"parent\":0"));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let x = t.time("a", || 7);
        assert_eq!(x, 7);
        assert!(t.spans().is_empty());
    }
}
