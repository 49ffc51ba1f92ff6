//! Spans recorded from outside the engine, around each public call into
//! a layer, kept in memory and written once as Chrome trace-event JSON
//! (the format `parendi-telemetry` exports, so Perfetto loads both).
//!
//! A span's layer is its name up to the first `.` (`core.compile` →
//! `core`). A layer's self time is the span's duration minus the union
//! of its children's intervals, so concurrent children are not counted
//! twice.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// The serve request the span belongs to, if any.
    pub req: Option<u64>,
    /// Trace track (one per recording thread).
    pub track: u32,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records only when `on`; an off tracer runs every
    /// closure unchanged and keeps nothing.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` on track 0; `f` receives the
    /// new span's id so nested calls can name it as their parent.
    pub fn span<R>(
        &self,
        name: &str,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        if !self.on {
            return f(None);
        }
        let start = self.ns(Instant::now());
        let id = {
            let mut spans = self.spans.lock().expect("span store poisoned");
            spans.push(Span {
                name: name.to_string(),
                start_ns: start,
                end_ns: start,
                parent,
                req: None,
                track: 0,
            });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end = self.ns(Instant::now());
        self.spans.lock().expect("span store poisoned")[id].end_ns = end;
        out
    }

    /// [`span`](Self::span) that also returns the closure's wall
    /// seconds, measured whether or not the tracer records.
    pub fn span_timed<R>(
        &self,
        name: &str,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> (R, f64) {
        self.span(name, parent, |id| {
            let t = Instant::now();
            let out = f(id);
            (out, t.elapsed().as_secs_f64())
        })
    }

    /// Records a span whose interval was measured by the caller (a
    /// client thread timing a request, or a server-reported duration).
    pub fn record(
        &self,
        name: &str,
        parent: Option<SpanId>,
        interval: (Instant, Instant),
        req: Option<u64>,
        track: u32,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(Span {
            name: name.to_string(),
            start_ns: self.ns(interval.0),
            end_ns: self.ns(interval.1),
            parent,
            req,
            track,
        });
        Some(spans.len() - 1)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Chrome trace-event JSON: one `M` thread-name event per track,
    /// one `X` complete event per span (`ts`/`dur` in microseconds,
    /// span id, parent and request id in `args`), and `other` as the
    /// file's `otherData` (the host fingerprint and run settings).
    pub fn chrome_json(&self, other: &[(&str, String)]) -> String {
        let spans = self.spans();
        let mut lines = Vec::new();
        let mut tracks: Vec<u32> = spans.iter().map(|s| s.track).collect();
        tracks.sort_unstable();
        tracks.dedup();
        for t in tracks {
            lines.push(format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":\"bench-{t}\"}}}}",
                t + 1
            ));
        }
        for (id, s) in spans.iter().enumerate() {
            let mut args = format!("\"id\":{id}");
            if let Some(p) = s.parent {
                args.push_str(&format!(",\"parent\":{p}"));
            }
            if let Some(r) = s.req {
                args.push_str(&format!(",\"req\":{r}"));
            }
            lines.push(format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":\"{}\",\"cat\":\"{}\",\"ts\":{:.3},\"dur\":{:.3},\"args\":{{{args}}}}}",
                s.track + 1,
                escape(&s.name),
                escape(layer_of(&s.name)),
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
            ));
        }
        let other: Vec<String> = other
            .iter()
            .map(|(k, v)| format!("\"{}\":\"{}\"", escape(k), escape(v)))
            .collect();
        format!(
            "{{\"traceEvents\":[\n{}\n],\"otherData\":{{{}}}}}\n",
            lines.join(",\n"),
            other.join(",")
        )
    }
}

pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Seconds of `spans[id]` not covered by any of its children.
pub fn self_seconds(spans: &[Span], id: SpanId) -> f64 {
    let s = &spans[id];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|c| c.parent == Some(id))
        .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in kids {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    (s.end_ns.saturating_sub(s.start_ns)).saturating_sub(covered) as f64 / 1e9
}

/// Self seconds summed per layer.
pub fn layer_self_seconds(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (id, s) in spans.iter().enumerate() {
        *out.entry(layer_of(&s.name).to_string()).or_insert(0.0) += self_seconds(spans, id);
    }
    out
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            req: None,
            track: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("bench.run", 0, 100, None),
            span("serve.request", 10, 50, Some(0)),
            span("serve.request", 30, 70, Some(0)),
            span("serve.run", 40, 50, Some(1)),
        ];
        assert_eq!(self_seconds(&spans, 0), 40e-9);
        assert_eq!(self_seconds(&spans, 1), 30e-9);
        let layers = layer_self_seconds(&spans);
        assert_eq!(layers["bench"], 40e-9);
        // 30 + 40 + 10 ns: overlapping siblings each keep their own time.
        assert!((layers["serve"] - 80e-9).abs() < 1e-15);
    }

    #[test]
    fn an_off_tracer_keeps_nothing() {
        let t = Tracer::new(false);
        let v = t.span("core.compile", None, |id| {
            assert!(id.is_none());
            7
        });
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }
}
