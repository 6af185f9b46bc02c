//! Benchmark-side span recorder.
//!
//! Spans are opened and closed around calls into each layer's public
//! functions: name, start, end, parent span and the id of the workload call
//! they belong to. They stay in memory and are written out once, when the
//! run ends. A disabled tracer records nothing and costs one branch per
//! span.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Spans kept for the trace file; aggregates keep counting past this.
const MAX_KEPT_SPANS: usize = 200_000;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    call: u64,
}

/// Token for an open span (index into the span list).
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

#[derive(Debug, Default, Clone, Copy)]
pub struct Aggregate {
    pub count: u64,
    pub total_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    call: u64,
    dropped: u64,
    totals: BTreeMap<&'static str, Aggregate>,
    golden_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            call: 0,
            dropped: 0,
            totals: BTreeMap::new(),
            golden_ns: 0,
        }
    }

    /// Starts the next workload call: spans opened from now on carry its id.
    pub fn next_call(&mut self) {
        self.call += 1;
    }

    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            call: self.call,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn close(&mut self, open: Open) {
        let Some(idx) = open.0 else {
            return;
        };
        let end = self.origin.elapsed().as_nanos() as u64;
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(idx), "spans close in LIFO order");
        let span = &mut self.spans[idx];
        span.end_ns = end;
        let agg = self.totals.entry(span.name).or_default();
        agg.count += 1;
        agg.total_ns += end - span.start_ns;
        // Keep the trace bounded: once full, a closed root span (and thus
        // its whole subtree) is discarded instead of kept.
        if self.stack.is_empty() && self.spans.len() > MAX_KEPT_SPANS {
            self.dropped += (self.spans.len() - idx) as u64;
            self.spans.truncate(idx);
        }
    }

    /// Runs `f` inside a span. Time in `golden.*` spans is also summed when
    /// the tracer is disabled (see `golden_ns`).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let open = self.open(name);
        let start = name.starts_with("golden.").then(Instant::now);
        let out = f(self);
        if let Some(t) = start {
            self.golden_ns += t.elapsed().as_nanos() as u64;
        }
        self.close(open);
        out
    }

    /// Host time spent in the benchmark's own golden model and output
    /// checks, which `setup_s` leaves out.
    pub fn golden_ns(&self) -> u64 {
        self.golden_ns
    }

    pub fn aggregate(&self, name: &str) -> Aggregate {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Mean duration of the named span in nanoseconds (0 when never seen).
    pub fn mean_ns(&self, name: &str) -> f64 {
        let a = self.aggregate(name);
        if a.count == 0 {
            0.0
        } else {
            a.total_ns as f64 / a.count as f64
        }
    }

    /// Self time per span name: duration minus the time its child spans
    /// cover, summed over the kept spans.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(child[i]);
        }
        out
    }

    /// Writes the kept spans as JSON lines.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"call\":{}}}",
                s.name, s.start_ns, s.end_ns, s.call
            )?;
        }
        if self.dropped > 0 {
            writeln!(w, "{{\"dropped_spans\":{}}}", self.dropped)?;
        }
        w.flush()
    }
}
