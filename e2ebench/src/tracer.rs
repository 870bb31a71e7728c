//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around its calls
//! into each crate (the program itself carries no spans). A span is
//! named `<layer>.<operation>`; the layer is the crate the call enters.
//! Per-record calls (line parsing, `StreamEngine::ingest`) would produce
//! hundreds of thousands of spans, so they are folded into one
//! *aggregate* span per phase holding their summed duration.
//!
//! With tracing off every method is a no-op apart from calling the
//! wrapped closure.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Identifies a span; `SpanId::ROOT` is "no parent".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(u32);

impl SpanId {
    /// The parent of top-level spans.
    pub const ROOT: SpanId = SpanId(0);
}

/// One recorded span, times in nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span folds many calls: `end_ns - start_ns` is their summed
    /// duration, not an interval of the timeline.
    pub aggregate: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer, i.e. the name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans from any thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives
    /// the new span's id to parent its own calls.
    pub fn span<T>(&self, name: &'static str, parent: SpanId, f: impl FnOnce(SpanId) -> T) -> T {
        if !self.enabled {
            return f(SpanId::ROOT);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(SpanId(id));
        let end_ns = self.now_ns();
        self.push(Span {
            id,
            parent: parent.0,
            name,
            start_ns,
            end_ns,
            aggregate: false,
        });
        out
    }

    /// Records an aggregate span: `total` summed over many calls under
    /// `parent`.
    pub fn aggregate(&self, name: &'static str, parent: SpanId, total: Duration) {
        if !self.enabled {
            return;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let total_ns = u64::try_from(total.as_nanos()).unwrap_or(u64::MAX);
        self.push(Span {
            id,
            parent: parent.0,
            name,
            start_ns,
            end_ns: start_ns + total_ns,
            aggregate: true,
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }
}

/// Summed duration, in seconds, of every span called `name`.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e9)
        .sum()
}

/// Durations, in milliseconds, of the spans called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

/// Self time per layer, in seconds: each span's duration minus the part
/// covered by its children (the union of the interval children, which
/// overlap when a worker pool runs them in parallel, plus the summed
/// aggregate children).
pub fn self_times_s(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: HashMap<u32, Vec<&Span>> = HashMap::new();
    for s in spans {
        children.entry(s.parent).or_default().push(s);
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let own = if s.aggregate {
            s.duration_ns()
        } else {
            let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
            let mut intervals: Vec<(u64, u64)> = kids
                .iter()
                .filter(|k| !k.aggregate)
                .map(|k| (k.start_ns.max(s.start_ns), k.end_ns.min(s.end_ns)))
                .filter(|(a, b)| a < b)
                .collect();
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in intervals {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            covered += kids
                .iter()
                .filter(|k| k.aggregate)
                .map(|k| k.duration_ns())
                .sum::<u64>();
            s.duration_ns().saturating_sub(covered)
        };
        *out.entry(s.layer()).or_insert(0.0) += own as f64 / 1e9;
    }
    out
}

/// Writes the spans as JSON lines, each tagged with `run_id`.
pub fn write_jsonl(path: &std::path::Path, run_id: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"run\":\"{run_id}\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"aggregate\":{}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns, s.aggregate
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            aggregate: false,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let mut agg = span(5, 1, "stream.parse", 0, 10);
        agg.aggregate = true;
        let spans = vec![
            span(1, 0, "core.pool", 0, 100),
            // Two parallel children covering [10, 70) together.
            span(2, 1, "core.campaign", 10, 50),
            span(3, 1, "core.campaign", 30, 70),
            span(4, 2, "baseband.calibrate", 10, 20),
            agg,
        ];
        let selfs = self_times_s(&spans);
        // pool: 100 - 60 - 10; campaigns: (40 - 10) + 40.
        let core_ns = (100 - 60 - 10) + (40 - 10) + 40;
        assert!((selfs["core"] - core_ns as f64 / 1e9).abs() < 1e-15);
        assert!((selfs["baseband"] - 10e-9).abs() < 1e-15);
        assert!((selfs["stream"] - 10e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.span("core.x", SpanId::ROOT, |id| {
            assert_eq!(id, SpanId::ROOT);
            7
        });
        t.aggregate("stream.parse", SpanId::ROOT, Duration::from_millis(1));
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }
}
