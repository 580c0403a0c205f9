//! Spans around the benchmark's calls into each layer's public
//! functions. Spans are kept in memory, aggregated by name, and printed
//! when the run ends; with tracing off a span is a plain call.

use crate::alloc;
use std::time::Instant;

/// Totals of every span recorded under one name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanTotal {
    /// Span name, `layer.call`.
    pub name: &'static str,
    /// Host seconds inside the span.
    pub secs: f64,
    /// Times the span was entered.
    pub calls: u64,
    /// Heap allocations made inside the span.
    pub allocs: u64,
    /// Bytes those allocations requested.
    pub bytes: u64,
}

/// Records spans when on.
#[derive(Debug, Default)]
pub struct Tracer {
    on: bool,
    spans: Vec<SpanTotal>,
}

impl Tracer {
    /// A tracer that records (`on`) or only calls through.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            spans: Vec::new(),
        }
    }

    /// Runs `f` as span `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let (a0, b0) = alloc::snapshot();
        let t0 = Instant::now();
        let r = f();
        let secs = t0.elapsed().as_secs_f64();
        let (a1, b1) = alloc::snapshot();
        let s = match self.spans.iter_mut().position(|s| s.name == name) {
            Some(i) => &mut self.spans[i],
            None => {
                self.spans.push(SpanTotal {
                    name,
                    ..SpanTotal::default()
                });
                self.spans.last_mut().expect("just pushed")
            }
        };
        s.secs += secs;
        s.calls += 1;
        s.allocs += a1 - a0;
        s.bytes += b1 - b0;
        r
    }

    /// Totals recorded so far, in first-entry order.
    pub fn spans(&self) -> &[SpanTotal] {
        &self.spans
    }

    /// Forgets every span (the next pass starts from zero).
    pub fn clear(&mut self) {
        self.spans.clear();
    }
}
