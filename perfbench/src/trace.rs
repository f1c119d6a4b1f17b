//! Spans recorded from the benchmark's own code around each call into a
//! layer's public functions.
//!
//! A span has a name, a start, an end and the span that was open when it
//! began. Spans stay in memory and are written out as JSON lines when the
//! run ends. A layer's self time is its span time minus the time its child
//! spans cover. With tracing off, [`Tracer::span`] only runs the closure.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Per-name totals over every closed span.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotal {
    /// Closed spans with this name.
    pub count: u64,
    /// Summed span durations in milliseconds.
    pub total_ms: f64,
    /// Summed durations minus the time covered by child spans.
    pub self_ms: f64,
}

/// A single-threaded span recorder.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A recorder; `on = false` makes every span a plain call.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span { name, parent, start_ns: self.now_ns(), end_ns: 0 });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Totals and self times per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotal> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotal> = BTreeMap::new();
        for (s, child) in spans.iter().zip(child_ns) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ms += dur as f64 / 1e6;
            t.self_ms += dur.saturating_sub(child) as f64 / 1e6;
        }
        out
    }

    /// Summed milliseconds of every span named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.totals().get(name).map_or(0.0, |t| t.total_ms)
    }

    /// Every span as one JSON object per line, in start order.
    pub fn to_jsonl(&self) -> String {
        let spans = self.spans.borrow();
        let mut out = String::new();
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}\n",
                s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new(true);
        t.span("outer", || {
            t.span("inner", || std::thread::sleep(std::time::Duration::from_millis(20)));
        });
        let totals = t.totals();
        let outer = totals["outer"];
        let inner = totals["inner"];
        assert!(outer.total_ms >= inner.total_ms);
        assert!(outer.self_ms < inner.total_ms);
        assert_eq!(inner.count, 1);
        assert!(t.to_jsonl().contains("\"parent\": 0"));
    }

    #[test]
    fn off_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", || 7), 7);
        assert!(t.totals().is_empty());
    }
}
