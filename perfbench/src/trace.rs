//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around calls into the library's
//! public API (never inside the library), kept in memory while the
//! workload runs and written out once at the end. When tracing is off,
//! [`Tracer::open`] and [`Tracer::close`] do nothing, so the untraced run
//! measures the program alone.

use std::io::Write;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `fleet.admit` or `durability.checkpoint`.
    pub name: &'static str,
    /// Start, relative to the tracer's origin.
    pub start: Duration,
    /// End, relative to the tracer's origin.
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The fleet tenant the span serves, if it serves one.
    pub tenant: Option<usize>,
}

impl Span {
    /// The span's duration.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Handle of an open span; pass it back to [`Tracer::close`].
#[must_use]
pub struct SpanId(Option<usize>);

/// The span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, tenant: Option<usize>) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start = self.origin.elapsed();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
            tenant,
        });
        self.stack.push(idx);
        SpanId(Some(idx))
    }

    /// Closes a span opened by [`open`](Self::open). Spans close in LIFO
    /// order.
    pub fn close(&mut self, id: SpanId) {
        if let Some(idx) = id.0 {
            self.spans[idx].end = self.origin.elapsed();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans close in LIFO order");
        }
    }

    /// Records which tenant an open span serves, once the call that
    /// created the tenant has returned its id.
    pub fn tag(&mut self, id: &SpanId, tenant: usize) {
        if let Some(idx) = id.0 {
            self.spans[idx].tenant = Some(tenant);
        }
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of the spans called `name`.
    pub fn total(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .sum()
    }

    /// Total duration of the top-level spans (those without a parent): the
    /// part of the run's wall time the spans account for.
    pub fn covered(&self) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration)
            .sum()
    }

    /// Writes the spans as JSON lines: name, start and end in
    /// microseconds, parent index and tenant.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"parent\":{},\"tenant\":{}}}",
                s.name,
                s.start.as_micros(),
                s.end.as_micros(),
                opt(s.parent),
                opt(s.tenant),
            )?;
        }
        Ok(())
    }
}
