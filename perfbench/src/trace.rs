//! The benchmark's own span recorder. Spans are taken from outside the
//! program, around the benchmark's calls into each layer's public
//! functions; they are kept in memory and written out when the run ends.
//!
//! A disabled tracer records nothing, so untraced runs pay only for the
//! `if` that checks it.

use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the run.
    pub id: u32,
    /// The span open when this one started.
    pub parent: Option<u32>,
    /// Shared by every span of one unit of work (a stream pass, a
    /// train-and-evaluate cycle, a layer probe).
    pub trace: u32,
    /// Layer call, e.g. `ml.fit`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// Records nested spans while enabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Indices into `spans` of the spans still open, innermost last.
    open: Vec<usize>,
    trace: u32,
}

impl Tracer {
    /// A tracer; `enabled == false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            trace: 0,
        }
    }

    /// True when spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start a new shared trace id for the spans that follow.
    pub fn next_trace(&mut self) {
        self.trace += 1;
    }

    /// Run `f` inside a span called `name`. Spans opened inside `f` become
    /// its children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id: idx as u32,
            parent: self.parent(),
            trace: self.trace,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Record an already-timed leaf span under the currently open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let since = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let span = Span {
            id: self.spans.len() as u32,
            parent: self.parent(),
            trace: self.trace,
            name,
            start_ns: since(start),
            end_ns: since(end),
        };
        self.spans.push(span);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array (times in microseconds).
    pub fn to_json(&self) -> serde_json::Value {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or(serde_json::Value::Null, |p| {
                    serde_json::Value::Number(f64::from(p))
                });
                serde_json::json!({
                    "id": f64::from(s.id),
                    "parent": parent,
                    "trace": f64::from(s.trace),
                    "name": s.name,
                    "start_us": s.start_ns as f64 / 1e3,
                    "end_us": s.end_ns as f64 / 1e3,
                })
            })
            .collect();
        serde_json::Value::Array(spans)
    }

    fn parent(&self) -> Option<u32> {
        self.open.last().map(|&i| self.spans[i].id)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_to_their_parent_and_trace() {
        let mut t = Tracer::new(true);
        t.next_trace();
        let v = t.span("outer", |t| {
            t.span("inner", |_| 7) + t.span("inner2", |_| 1)
        });
        assert_eq!(v, 8);
        t.next_trace();
        t.span("solo", |t| t.record("leaf", Instant::now(), Instant::now()));
        let s = t.spans();
        assert_eq!(s.len(), 5);
        assert_eq!((s[0].name, s[0].parent, s[0].trace), ("outer", None, 1));
        assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
        assert_eq!((s[2].name, s[2].parent), ("inner2", Some(0)));
        assert_eq!((s[3].name, s[3].parent, s[3].trace), ("solo", None, 2));
        assert_eq!((s[4].name, s[4].parent), ("leaf", Some(3)));
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));
        assert!(s[0].end_ns >= s[2].end_ns, "parent encloses its children");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |t| t.span("y", |_| 3)), 3);
        t.record("z", Instant::now(), Instant::now());
        assert!(t.spans().is_empty());
    }
}
