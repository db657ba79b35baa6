//! In-memory span recorder for the traced build.
//!
//! A span is one call into a layer: name, start, end and the span that
//! caused it. Spans stay in memory until the benchmark ends, then go out
//! as Chrome trace-event JSON (opens in Perfetto or chrome://tracing). A
//! span's self time is its duration minus the time its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The crates whose calls count as layer time. A span named
/// `<layer>.<what>` belongs to `<layer>`; any other span (the step and
/// root groupings) is the benchmark's own bookkeeping.
pub const LAYERS: [&str; 6] = ["dna", "msp", "hashgraph", "pipeline", "hetsim", "parahash"];

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span, returned by [`Tracer::enter`].
#[must_use = "an entered span must be exited"]
pub struct SpanId(usize);

/// Totals of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub calls: u64,
    pub total_s: f64,
    pub self_s: f64,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `span`, which must be the innermost open span.
    pub fn exit(&mut self, span: SpanId) {
        let top = self.open.pop();
        assert_eq!(top, Some(span.0), "spans must close innermost first");
        self.spans[span.0].end_ns = self.now_ns();
    }

    /// Runs `f` as one span with no children.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.enter(name);
        let out = f();
        self.exit(span);
        out
    }

    fn durations(&self) -> (Vec<f64>, Vec<f64>) {
        let total: Vec<f64> = self
            .spans
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect();
        let mut own = total.clone();
        for (span, dur) in self.spans.iter().zip(&total) {
            if let Some(parent) = span.parent {
                own[parent] -= dur;
            }
        }
        (total, own)
    }

    /// Calls, total time and self time per span name.
    pub fn by_name(&self) -> BTreeMap<&'static str, NameTotals> {
        let (total, own) = self.durations();
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let e = out.entry(span.name).or_default();
            e.calls += 1;
            e.total_s += total[i];
            e.self_s += own[i];
        }
        out
    }

    /// Wall time of all spans named `name` (the root's is the traced wall).
    pub fn total_s(&self, name: &str) -> f64 {
        self.by_name().get(name).map_or(0.0, |t| t.total_s)
    }

    /// Share of the `root` span's wall time that layer spans account for
    /// as self time.
    pub fn coverage(&self, root: &str) -> f64 {
        let wall = self.total_s(root);
        if wall <= 0.0 {
            return 0.0;
        }
        let layer_self: f64 = self
            .by_name()
            .iter()
            .filter(|(name, _)| layer_of(name).is_some())
            .map(|(_, t)| t.self_s)
            .sum();
        layer_self / wall
    }

    /// The spans as a Chrome trace-event document, one complete (`X`)
    /// event per span; `args.parent` names the causing span's index.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                s.name,
                layer_of(s.name).unwrap_or("bench"),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// The layer a span name belongs to, if any.
pub fn layer_of(name: &str) -> Option<&'static str> {
    let prefix = name.split('.').next()?;
    LAYERS.iter().copied().find(|&layer| layer == prefix)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let until = Instant::now() + std::time::Duration::from_millis(ms);
        while Instant::now() < until {}
    }

    #[test]
    fn self_time_excludes_children_and_coverage_counts_layers_only() {
        let mut t = Tracer::new();
        let root = t.enter("trace");
        let step = t.enter("step1");
        t.leaf("msp.scan", || spin(20));
        spin(5);
        t.exit(step);
        t.exit(root);
        let names = t.by_name();
        let scan = names["msp.scan"];
        let step = names["step1"];
        assert_eq!(scan.calls, 1);
        assert!(scan.self_s >= 0.02 && (scan.total_s - scan.self_s).abs() < 1e-9);
        assert!(step.self_s >= 0.005 && step.self_s < step.total_s - 0.019);
        let coverage = t.coverage("trace");
        assert!(coverage > 0.5 && coverage < 0.9, "{coverage}");
        assert!(t
            .chrome_json()
            .contains("\"name\":\"msp.scan\",\"cat\":\"msp\""));
    }
}
