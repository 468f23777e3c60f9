//! Tracing from outside the program: a counting [`DistanceOracle`] wrapper
//! and an in-memory span recorder. Spans are recorded by the benchmark
//! around its calls into each layer, kept in memory while the run
//! measures, and written out once at the end.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use wqe_graph::NodeId;
use wqe_index::DistanceOracle;

/// How many `(u, v, bound)` pairs the oracle keeps for the kernel replay.
pub const PAIR_LOG_CAP: usize = 200_000;

/// Counts and times every distance query passing through it, and keeps a
/// bounded log of the queried pairs so the kernel probes can replay the
/// workload's real access pattern on the bare oracle.
///
/// All counters are statistics (`Relaxed`): nothing is published through
/// them, and they are read only after the workers that bump them are done.
pub struct TracingOracle {
    inner: Arc<dyn DistanceOracle>,
    dist_calls: AtomicU64,
    batch_calls: AtomicU64,
    pairs: AtomicU64,
    within: AtomicU64,
    busy_ns: AtomicU64,
    log: Mutex<Vec<(NodeId, NodeId, u32)>>,
}

/// A point-in-time copy of a [`TracingOracle`]'s counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleCounts {
    pub dist_calls: u64,
    pub batch_calls: u64,
    /// Pairs asked about, point and batched calls together.
    pub pairs: u64,
    /// Pairs answered `Some` (within the bound): the useful share.
    pub within: u64,
    pub busy_ns: u64,
}

impl TracingOracle {
    pub fn new(inner: Arc<dyn DistanceOracle>) -> Self {
        TracingOracle {
            inner,
            dist_calls: AtomicU64::new(0),
            batch_calls: AtomicU64::new(0),
            pairs: AtomicU64::new(0),
            within: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            log: Mutex::new(Vec::new()),
        }
    }

    pub fn counts(&self) -> OracleCounts {
        OracleCounts {
            dist_calls: self.dist_calls.load(Ordering::Relaxed),
            batch_calls: self.batch_calls.load(Ordering::Relaxed),
            pairs: self.pairs.load(Ordering::Relaxed),
            within: self.within.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
        }
    }

    /// The logged pairs, first [`PAIR_LOG_CAP`] in arrival order.
    pub fn pair_log(&self) -> Vec<(NodeId, NodeId, u32)> {
        self.log.lock().expect("pair log lock poisoned").clone()
    }

    fn record(&self, pairs: &[(NodeId, NodeId)], bound: u32, within: u64, started: Instant) {
        self.busy_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        let before = self.pairs.fetch_add(pairs.len() as u64, Ordering::Relaxed);
        self.within.fetch_add(within, Ordering::Relaxed);
        if before >= PAIR_LOG_CAP as u64 {
            return;
        }
        // A contended log is skipped, not waited for: the log is a sample
        // for replay, the counters above are the exact record.
        if let Ok(mut log) = self.log.try_lock() {
            let room = PAIR_LOG_CAP.saturating_sub(log.len());
            log.extend(pairs.iter().take(room).map(|&(u, v)| (u, v, bound)));
        }
    }
}

impl DistanceOracle for TracingOracle {
    fn distance_within(&self, u: NodeId, v: NodeId, bound: u32) -> Option<u32> {
        let started = Instant::now();
        let d = self.inner.distance_within(u, v, bound);
        self.dist_calls.fetch_add(1, Ordering::Relaxed);
        self.record(&[(u, v)], bound, u64::from(d.is_some()), started);
        d
    }

    fn dist_batch(&self, pairs: &[(NodeId, NodeId)], bound: u32) -> Vec<Option<u32>> {
        let started = Instant::now();
        let out = self.inner.dist_batch(pairs, bound);
        self.batch_calls.fetch_add(1, Ordering::Relaxed);
        let within = out.iter().filter(|d| d.is_some()).count() as u64;
        self.record(pairs, bound, within, started);
        out
    }
}

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one request share this identifier.
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans in memory. Driven by the single client thread of a
/// traced run, so every span belongs to the one request in flight.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index, to be passed to [`Tracer::end`]
    /// and as the `parent` of its children.
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }

    /// Times `f` as a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span with this name, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }
}

/// Self time of each span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let clipped = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            children[p].push(clipped);
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Total self time per span name, nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.name).or_insert(0) += own;
    }
    out
}

/// Writes the spans and their per-name self time as one JSON document.
pub fn write_json(
    path: &std::path::Path,
    workload: &str,
    seed: u64,
    spans: &[Span],
) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(
        w,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"ns\",\"self_time_by_name\":{{"
    )?;
    for (i, (name, ns)) in self_time_by_name(spans).iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        write!(w, "{sep}\"{name}\":{ns}")?;
    }
    write!(w, "}},\"spans\":[")?;
    for (i, s) in spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        write!(
            w,
            "{sep}\n{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"request\":{}}}",
            s.name, s.start_ns, s.end_ns, s.request
        )?;
    }
    writeln!(w, "\n]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 1,
        }
    }

    #[test]
    fn nested_spans_subtract_only_direct_children() {
        // request [0,100] > call [10,90] > run [20,60]
        let spans = [
            span("request", 0, 100, None),
            span("call", 10, 90, Some(0)),
            span("run", 20, 60, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 40, 40]);
    }

    #[test]
    fn sibling_spans_add_up_and_overlaps_count_once() {
        // request [0,100] with parse [0,10], call [10,80], encode [80,95]:
        // 5 ns of the request is its own.
        let spans = [
            span("request", 0, 100, None),
            span("parse", 0, 10, Some(0)),
            span("call", 10, 80, Some(0)),
            span("encode", 80, 95, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 5);
        // Two overlapping children [10,60] and [40,80] cover 70, not 90.
        let spans = [
            span("request", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 80, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 30);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["request"], 30);
        assert_eq!(by_name["a"], 50);
    }

    #[test]
    fn tracer_records_parents_and_requests() {
        let mut t = Tracer::default();
        let root = t.begin("request", None, 7);
        let got = t.span("call", Some(root), 7, || 42);
        t.end(root);
        assert_eq!(got, 42);
        let s = t.spans();
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].request, 7);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(t.durations_ms("call").len(), 1);
    }

    struct Line;
    impl DistanceOracle for Line {
        fn distance_within(&self, u: NodeId, v: NodeId, bound: u32) -> Option<u32> {
            v.0.checked_sub(u.0).filter(|&d| d <= bound)
        }
    }

    #[test]
    fn tracing_oracle_counts_calls_pairs_and_useful_answers() {
        let o = TracingOracle::new(Arc::new(Line));
        assert_eq!(o.distance_within(NodeId(0), NodeId(2), 4), Some(2));
        assert_eq!(o.distance_within(NodeId(0), NodeId(9), 4), None);
        let batch = [
            (NodeId(1), NodeId(2)),
            (NodeId(5), NodeId(1)),
            (NodeId(0), NodeId(3)),
        ];
        assert_eq!(o.dist_batch(&batch, 4), vec![Some(1), None, Some(3)]);
        let c = o.counts();
        assert_eq!(
            (c.dist_calls, c.batch_calls, c.pairs, c.within),
            (2, 1, 5, 3)
        );
        assert_eq!(o.pair_log().len(), 5);
        assert_eq!(o.pair_log()[0], (NodeId(0), NodeId(2), 4));
    }
}
