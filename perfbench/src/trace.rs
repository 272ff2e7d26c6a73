//! In-memory spans recorded around calls into each layer.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer's
//! origin), the span that caused it, and the frame or request it belongs
//! to. Spans are only appended while the run measures; they are written
//! out once, after it.

use std::io::{self, Write};
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    /// The frame or request the span belongs to.
    pub frame: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans against one monotonic origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 14),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, frame: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            frame,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        let end_ns = self.now_ns();
        if let Some(span) = self.spans.get_mut(id) {
            span.end_ns = end_ns;
        }
    }

    /// Runs `work` inside a span and returns its result.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        frame: u64,
        work: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, frame);
        let result = work();
        self.close(id);
        result
    }

    /// Appends a span measured elsewhere (e.g. on a client thread).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        frame: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let offset = |at: Instant| {
            u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
        };
        let (start_ns, end_ns) = (offset(start), offset(end));
        self.spans.push(Span {
            name,
            parent,
            frame,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Duration in milliseconds of one span.
    pub fn duration_ms(&self, id: SpanId) -> f64 {
        self.spans
            .get(id)
            .map_or(0.0, |span| span.duration_ns() as f64 / 1e6)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self times in milliseconds of every span with this name.
    pub fn self_times_ms(&self, name: &str) -> Vec<f64> {
        let children = children_of(&self.spans);
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, span)| span.name == name)
            .map(|(id, _)| self_time_ns(&self.spans, &children, id) as f64 / 1e6)
            .collect()
    }

    /// Durations in milliseconds of every span with this name.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(|span| span.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |parent| parent.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"frame\":{},\"start_ns\":{},\"end_ns\":{}}}",
                span.name, span.frame, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

/// Child span ids per span.
pub fn children_of(spans: &[Span]) -> Vec<Vec<SpanId>> {
    let mut children = vec![Vec::new(); spans.len()];
    for (id, span) in spans.iter().enumerate() {
        if let Some(list) = span.parent.and_then(|parent| children.get_mut(parent)) {
            list.push(id);
        }
    }
    children
}

/// A span's duration minus the part of its interval that its children
/// cover (overlapping children are counted once).
pub fn self_time_ns(spans: &[Span], children: &[Vec<SpanId>], id: SpanId) -> u64 {
    let Some(span) = spans.get(id) else {
        return 0;
    };
    let mut covered: Vec<(u64, u64)> = children
        .get(id)
        .into_iter()
        .flatten()
        .filter_map(|&child| spans.get(child))
        .map(|child| {
            (
                child.start_ns.clamp(span.start_ns, span.end_ns),
                child.end_ns.clamp(span.start_ns, span.end_ns),
            )
        })
        .filter(|(start, end)| end > start)
        .collect();
    covered.sort_unstable();
    let mut union = 0;
    let mut current: Option<(u64, u64)> = None;
    for (start, end) in covered {
        current = match current {
            Some((open, close)) if start <= close => Some((open, close.max(end))),
            Some((open, close)) => {
                union += close - open;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    if let Some((open, close)) = current {
        union += close - open;
    }
    span.duration_ns().saturating_sub(union)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            frame: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = vec![
            span("frame", None, 0, 100),
            span("sort", Some(0), 10, 30),
            span("raster", Some(0), 40, 90),
        ];
        let children = children_of(&spans);
        assert_eq!(self_time_ns(&spans, &children, 0), 30);
        assert_eq!(self_time_ns(&spans, &children, 1), 20);
        assert_eq!(self_time_ns(&spans, &children, 2), 50);
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips_them() {
        let spans = vec![
            span("request", None, 100, 200),
            span("a", Some(0), 90, 150),
            span("b", Some(0), 120, 160),
            span("c", Some(0), 190, 260),
            span("grandchild", Some(1), 95, 140),
        ];
        let children = children_of(&spans);
        // Covered: [100, 160) and [190, 200) = 70 of 100.
        assert_eq!(self_time_ns(&spans, &children, 0), 30);
        // Grandchildren count against their own parent only.
        assert_eq!(self_time_ns(&spans, &children, 1), 60 - 45);
    }

    #[test]
    fn self_time_of_a_leaf_is_its_duration() {
        let spans = vec![span("leaf", None, 5, 5), span("other", None, 1, 9)];
        let children = children_of(&spans);
        assert_eq!(self_time_ns(&spans, &children, 0), 0);
        assert_eq!(self_time_ns(&spans, &children, 1), 8);
        assert_eq!(self_time_ns(&spans, &children, 7), 0);
    }

    #[test]
    fn tracer_records_nested_spans() {
        let mut tracer = Tracer::new();
        let frame = tracer.open("frame", None, 3);
        let value = tracer.time("stage", Some(frame), 3, || 41 + 1);
        tracer.close(frame);
        assert_eq!(value, 42);
        assert_eq!(tracer.spans().len(), 2);
        assert_eq!(tracer.spans()[1].parent, Some(frame));
        assert!(tracer.spans()[0].end_ns >= tracer.spans()[1].end_ns);
        assert_eq!(tracer.self_times_ms("stage").len(), 1);
        let mut out = Vec::new();
        tracer.write_jsonl(&mut out).expect("in-memory write");
        assert_eq!(String::from_utf8(out).expect("utf-8").lines().count(), 2);
    }
}
