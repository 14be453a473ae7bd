//! In-memory host-span recorder for the traced run.
//!
//! The benchmark wraps each of its own calls into a layer in a span named
//! `<layer>.<call>`. A span records its start and end on the host clock,
//! its parent span and the op it belongs to. Spans stay in memory until
//! the run ends, when they are summed into per-layer metrics and written
//! out as a Chrome trace.

use std::io::{self, Write};
use std::time::{Duration, Instant};

/// One closed span.
#[derive(Debug, Clone)]
pub struct HostSpan {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Start, relative to the tracer's origin.
    pub start: Duration,
    /// End, relative to the tracer's origin.
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op (planning round, iteration, serving run) the span belongs to.
    pub op: u64,
}

impl HostSpan {
    /// Wall time covered by the span.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<HostSpan>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// Starts an empty trace whose clock origin is now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Sets the op id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` through
    /// its tracer argument become children of this one.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let index = self.spans.len();
        let start = self.origin.elapsed();
        self.spans.push(HostSpan {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.origin.elapsed();
        out
    }

    /// Summed wall time of every span named `name`.
    pub fn total(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(HostSpan::duration)
            .sum()
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Summed wall time of the leaf spans, those no other span nests in:
    /// the part of the traced ops that a single call into a layer
    /// accounts for. An enclosing span's own time between its children
    /// is left out.
    pub fn covered(&self) -> Duration {
        let mut has_child = vec![false; self.spans.len()];
        for p in self.spans.iter().filter_map(|s| s.parent) {
            has_child[p] = true;
        }
        self.spans
            .iter()
            .zip(has_child)
            .filter(|(_, parent)| !parent)
            .map(|(s, _)| s.duration())
            .sum()
    }

    /// Writes the spans as a Chrome trace (JSON array of complete `X`
    /// events, microsecond timestamps), one thread row per layer, so the
    /// host side opens in Perfetto next to the simulated S1–S4 traces.
    pub fn write_chrome<W: Write>(&self, mut out: W, label: &str) -> io::Result<()> {
        let layers = self.layers();
        write!(
            out,
            "[{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{{\"name\":\"{label}\"}}}}"
        )?;
        for (tid, layer) in layers.iter().enumerate() {
            write!(
                out,
                ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{layer}\"}}}}"
            )?;
        }
        for (i, s) in self.spans.iter().enumerate() {
            let tid = layers
                .iter()
                .position(|l| *l == layer_of(s.name))
                .unwrap_or(0);
            let parent = s.parent.map_or(-1, |p| p as i64);
            write!(
                out,
                ",\n{{\"name\":\"{}\",\"cat\":\"host\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{parent},\"op\":{}}}}}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.duration().as_secs_f64() * 1e6,
                s.op
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }

    /// Distinct layer prefixes, in first-seen order.
    fn layers(&self) -> Vec<&'static str> {
        let mut layers: Vec<&'static str> = Vec::new();
        for s in &self.spans {
            let layer = layer_of(s.name);
            if !layers.contains(&layer) {
                layers.push(layer);
            }
        }
        layers
    }
}

/// The `<layer>` part of a `<layer>.<call>` span name.
fn layer_of(name: &'static str) -> &'static str {
    name.split_once('.').map_or(name, |(layer, _)| layer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_cover_only_leaves() {
        let mut tr = Tracer::new();
        tr.set_op(3);
        let v = tr.span("planner.plan", |tr| {
            tr.span("planner.lite_route", |_| 1) + tr.span("planner.time_cost", |_| 2)
        });
        assert_eq!(v, 3);
        let spans = &tr.spans;
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 3 && s.end >= s.start));
        assert_eq!(tr.count("planner.lite_route"), 1);
        assert_eq!(tr.covered(), spans[1].duration() + spans[2].duration());

        let mut buf = Vec::new();
        tr.write_chrome(&mut buf, "test").unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with('[') && text.trim_end().ends_with(']'));
        assert_eq!(text.matches("\"ph\":\"X\"").count(), 3);
    }
}
