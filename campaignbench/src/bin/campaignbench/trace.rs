//! In-memory span recorder for the traced run.
//!
//! A span is a name, a start and an end (nanoseconds since the recorder
//! was created), the index of its parent span, and an optional id — the
//! round number for per-round spans, so spans of one round line up
//! across layers. Spans are kept in memory while the campaign runs and
//! written out once at the end. A disabled recorder records nothing.

use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub id: Option<u32>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans against one monotonic origin.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open span.
    pub fn enter(&mut self, name: &'static str, id: Option<u32>) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_ns = self.now_ns();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            id,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Closes `span` (and any span left open inside it).
    pub fn exit(&mut self, span: Open) {
        let Open(Some(idx)) = span else {
            return;
        };
        let end_ns = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end_ns;
            if top == idx {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name, None);
        let out = f();
        self.exit(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus its children's durations.
/// Signed, so a broken recorder shows up as a negative value instead of
/// wrapping.
pub fn self_times(spans: &[Span]) -> Vec<i64> {
    let mut out: Vec<i64> = spans.iter().map(|s| s.dur_ns() as i64).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] -= s.dur_ns() as i64;
        }
    }
    out
}

/// Total duration of every span named `name`, in seconds.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e9)
        .sum()
}

/// One JSON object per span, one per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::new();
    for (i, (s, own)) in spans.iter().zip(selfs).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let id = s.id.map_or("null".to_string(), |r| r.to_string());
        out.push_str(&format!(
            "{{\"idx\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own}, \"parent\": {parent}, \"round\": {id}}}\n",
            s.name, s.start_ns, s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_have_nonnegative_self_time() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer", None);
        for round in 0..3 {
            let inner = t.enter("inner", Some(round));
            t.exit(inner);
        }
        t.exit(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert!(spans[1..].iter().all(|s| s.parent == Some(0)));
        assert_eq!(spans[3].id, Some(2));
        assert!(self_times(spans).iter().all(|&s| s >= 0));
        assert_eq!(spans.iter().filter(|s| s.name == "inner").count(), 3);
    }

    #[test]
    fn exit_closes_spans_left_open_inside() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer", None);
        let _leaked = t.enter("leaked", None);
        t.exit(outer);
        let after = t.enter("after", None);
        t.exit(after);
        let spans = t.spans();
        assert_eq!(spans[2].parent, None);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        assert!(self_times(spans).iter().all(|&s| s >= 0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.enter("x", None);
        t.exit(s);
        assert_eq!(t.span("y", || 7), 7);
        assert!(t.spans().is_empty());
    }
}
