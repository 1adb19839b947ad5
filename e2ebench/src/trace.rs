//! The benchmark's own spans, recorded around each call it makes into a
//! layer. Spans stay in memory and are written out as a Chrome trace
//! when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use culzss_server::{chrome_trace, SpanRecord};

/// Chrome-trace process lane of the benchmark's spans (`tid` = request).
const BENCH_PID: u64 = 100;

/// Handle of an open span; `None` when tracing is off.
pub type SpanId = Option<usize>;

/// One recorded span. The layer is the name's prefix before the first
/// `.` (`server.submit` belongs to `server`).
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.operation`.
    pub name: &'static str,
    /// Request the span belongs to; spans of one request share it.
    pub req: u64,
    /// The span that caused this one.
    pub parent: SpanId,
    /// Wall-clock start.
    pub start: Instant,
    /// Wall-clock end.
    pub end: Instant,
}

impl Span {
    fn seconds(&self) -> f64 {
        self.end.saturating_duration_since(self.start).as_secs_f64()
    }

    /// The layer this span measures.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// In-memory span recorder; records nothing when disabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, epoch: Instant::now(), spans: Vec::new() }
    }

    /// Turns recording on or off; spans already kept stay.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Opens a span starting at `start`; close it with [`Self::finish`].
    pub fn start(
        &mut self,
        name: &'static str,
        req: u64,
        parent: SpanId,
        start: Instant,
    ) -> SpanId {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span { name, req, parent, start, end: start });
        Some(self.spans.len() - 1)
    }

    /// Closes `span` at `end`.
    pub fn finish(&mut self, span: SpanId, end: Instant) {
        if let Some(i) = span {
            self.spans[i].end = end;
        }
    }

    /// Records a closed span.
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        parent: SpanId,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let id = self.start(name, req, parent, start);
        self.finish(id, end);
        id
    }

    /// Every span kept so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds per layer spent in that layer's own spans, excluding the
    /// part of each span its child spans cover.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0.0f64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child[p] += span.seconds();
            }
        }
        let mut out = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(child) {
            *out.entry(span.layer()).or_insert(0.0) += (span.seconds() - covered).max(0.0);
        }
        out
    }

    /// The spans as a Chrome tracing JSON document, one lane per request.
    pub fn chrome_json(&self) -> String {
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        let records: Vec<SpanRecord> = self
            .spans
            .iter()
            .map(|s| SpanRecord {
                name: s.name.to_string(),
                cat: "host".into(),
                pid: BENCH_PID,
                tid: s.req,
                start_us: us(s.start),
                dur_us: s.seconds() * 1e6,
                args: vec![
                    ("req".into(), s.req.to_string()),
                    ("parent".into(), s.parent.map_or("", |p| self.spans[p].name).to_string()),
                ],
            })
            .collect();
        chrome_trace(&records)
    }
}
