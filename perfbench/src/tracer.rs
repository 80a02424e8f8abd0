//! The benchmark's own span recorder.
//!
//! Spans are recorded around calls into the program's public API from
//! the benchmark's code: name, start, end, parent, a request id shared
//! by the spans of one operation, and the bytes the call processed.
//! They stay in memory until the run ends, are written out as Chrome
//! trace-event JSON, validated with `isobar::trace::validate_chrome_phases`
//! and only then reduced to per-name totals and self times.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call the span covers, e.g. `analyzer.analyze`.
    pub name: &'static str,
    /// Recording thread.
    pub tid: u32,
    /// Request (operation) id.
    pub req: u64,
    /// Index of the enclosing span in the same thread's list.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Bytes the call processed (0 when not meaningful).
    pub bytes: u64,
}

/// Handle of an open span; inert when the tracer is off.
#[must_use = "end the span with Tracer::end"]
pub struct Open(Option<usize>);

/// Per-thread recorder. A disabled tracer records nothing and costs a
/// branch per call, which is how untraced rounds run the same code.
pub struct Tracer {
    epoch: Instant,
    tid: u32,
    on: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder for thread `tid`, timing against `epoch`.
    pub fn new(epoch: Instant, tid: u32) -> Self {
        Tracer {
            epoch,
            tid,
            on: false,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turn recording on or off between operations.
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggle only between spans");
        self.on = on;
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, req: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            tid: self.tid,
            req,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            bytes: 0,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Close `open`, crediting `bytes` to it. Spans close innermost
    /// first.
    pub fn end(&mut self, open: Open, bytes: u64) {
        let Some(idx) = open.0 else { return };
        let end = self.now_ns();
        assert_eq!(self.stack.pop(), Some(idx), "spans close innermost first");
        let span = &mut self.spans[idx];
        span.end_ns = end.max(span.start_ns);
        span.bytes = bytes;
    }

    /// Run `f` inside a leaf span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        req: u64,
        bytes: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.begin(name, req);
        let out = f();
        self.end(open, bytes);
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.stack.is_empty(), "every span closed");
        self.spans
    }
}

/// Totals per span name, from a validated trace.
#[derive(Debug, Default, Clone)]
pub struct SpanTotals {
    /// Calls.
    pub count: u64,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Summed self time (duration minus child spans), seconds.
    pub self_s: f64,
    /// Summed bytes.
    pub bytes: u64,
}

/// A finished trace, reduced by span name.
#[derive(Debug, Default)]
pub struct TraceSummary {
    /// Totals by span name.
    pub by_name: BTreeMap<&'static str, SpanTotals>,
    /// Spans written.
    pub spans: usize,
}

impl TraceSummary {
    /// Totals for `name` (zero when it never ran).
    pub fn get(&self, name: &str) -> SpanTotals {
        self.by_name.get(name).cloned().unwrap_or_default()
    }

    /// Summed bytes over summed duration of `name`, in units of
    /// `scale` bytes per second (0 when it never ran).
    pub fn rate(&self, name: &str, scale: f64) -> f64 {
        let t = self.get(name);
        if t.total_s > 0.0 {
            t.bytes as f64 / scale / t.total_s
        } else {
            0.0
        }
    }
}

/// Chrome trace-event JSON for `spans`, one event per line: `B` and `E`
/// per span. Each thread's spans are emitted depth-first in the order
/// they began: before a span opens, every open span that is not its
/// ancestor is closed. One thread records them in sequence, so a span
/// that is not an ancestor ended before the next began, and the
/// timestamps never decrease.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 200);
    out.push_str("[\n");
    let mut first = true;
    let mut emit = |out: &mut String, s: &Span, parent: Option<&Span>, begin: bool| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let ts = if begin { s.start_ns } else { s.end_ns };
        let _ = write!(
            out,
            "{{\"name\": \"{}\", \"cat\": \"perfbench\", \"ph\": \"{}\", \"ts\": {}.{:03}, \"pid\": 1, \"tid\": {}",
            s.name,
            if begin { 'B' } else { 'E' },
            ts / 1_000,
            ts % 1_000,
            s.tid
        );
        if begin {
            let _ = write!(
                out,
                ", \"args\": {{\"req\": {}, \"bytes\": {}",
                s.req, s.bytes
            );
            if let Some(p) = parent {
                let _ = write!(out, ", \"parent\": \"{}\"", p.name);
            }
            out.push('}');
        }
        out.push('}');
    };
    for thread in spans.chunk_by(|a, b| a.tid == b.tid) {
        let mut open: Vec<usize> = Vec::new();
        for (i, s) in thread.iter().enumerate() {
            while open.last().is_some_and(|&top| Some(top) != s.parent) {
                let top = open.pop().expect("non-empty");
                emit(&mut out, &thread[top], None, false);
            }
            emit(&mut out, s, s.parent.map(|p| &thread[p]), true);
            open.push(i);
        }
        while let Some(top) = open.pop() {
            emit(&mut out, &thread[top], None, false);
        }
    }
    out.push_str("\n]\n");
    out
}

/// Write `spans` to `path` as Chrome trace JSON, read the file back,
/// validate it, and reduce it to per-name totals with self times. An
/// invalid trace is an error.
///
/// `spans` is the concatenation of whole [`Tracer::into_spans`] lists,
/// one per thread, so each thread's spans are contiguous and parent
/// indices count from the thread's first span.
pub fn finish(spans: &[Span], path: &Path) -> Result<TraceSummary, String> {
    let json = chrome_json(spans);
    std::fs::write(path, &json).map_err(|e| format!("writing {}: {e}", path.display()))?;
    let written =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let phases = isobar::trace::validate_chrome_phases(&written)
        .map_err(|e| format!("invalid trace {}: {e:?}", path.display()))?;
    if phases.spans != spans.len() {
        return Err(format!(
            "trace {} holds {} spans, recorded {}",
            path.display(),
            phases.spans,
            spans.len()
        ));
    }
    Ok(summarize(spans))
}

/// Per-name totals; a span's self time is its duration minus the
/// durations of its direct children, which nest inside it without
/// overlapping because one thread records them.
pub fn summarize(spans: &[Span]) -> TraceSummary {
    let mut child_ns = vec![0u64; spans.len()];
    let mut base = 0usize;
    for (i, s) in spans.iter().enumerate() {
        if i > 0 && spans[i - 1].tid != s.tid {
            base = i;
        }
        if let Some(p) = s.parent {
            child_ns[base + p] += s.end_ns - s.start_ns;
        }
    }
    let mut summary = TraceSummary {
        spans: spans.len(),
        ..TraceSummary::default()
    };
    for (s, child) in spans.iter().zip(child_ns) {
        let dur = s.end_ns - s.start_ns;
        let t = summary.by_name.entry(s.name).or_default();
        t.count += 1;
        t.total_s += dur as f64 / 1e9;
        t.self_s += dur.saturating_sub(child) as f64 / 1e9;
        t.bytes += s.bytes;
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            tid: 0,
            req: 1,
            parent,
            start_ns: start,
            end_ns: end,
            bytes: 10,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("op", None, 0, 1_000),
            span("a", Some(0), 100, 400),
            span("b", Some(0), 400, 900),
        ];
        let s = summarize(&spans);
        assert!((s.get("op").self_s - 200e-9).abs() < 1e-15);
        assert!((s.get("b").self_s - 500e-9).abs() < 1e-15);
        assert_eq!(s.get("a").count, 1);
    }

    #[test]
    fn recorded_spans_export_as_a_valid_chrome_trace() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch, 3);
        t.set_on(true);
        let op = t.begin("op", 7);
        t.time("leaf", 7, 5, || std::hint::black_box(1 + 1));
        // Zero-length spans sharing a stamp still order correctly.
        let inner = t.begin("inner", 7);
        t.end(inner, 0);
        t.end(op, 5);
        t.set_on(false);
        t.time("untraced", 8, 0, || ());
        let mut other = Tracer::new(epoch, 4);
        other.set_on(true);
        other.time("leaf", 9, 1, || ());
        let spans = [t.into_spans(), other.into_spans()].concat();
        assert_eq!(spans.len(), 4);
        let json = chrome_json(&spans);
        let phases = isobar::trace::validate_chrome_phases(&json).unwrap();
        assert_eq!(phases.spans, 4);
        assert!(json.contains("\"parent\": \"op\""));
        assert_eq!(summarize(&spans).get("leaf").count, 2);
    }
}
