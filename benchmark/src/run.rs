//! What every workload run takes and gives back, and the bookkeeping the
//! four of them share: the set-up clock and the end-to-end metric set.

use crate::config::{Scale, DEFAULT_SEED, RUN_SECONDS};
use crate::harness::{highest_percentile, median, peak_rss_mb};
use crate::inputs::Quality;
use crate::metrics::Metrics;
use crate::servepath::tail;
use std::path::PathBuf;
use std::time::Instant;

pub struct RunArgs {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub scale: Scale,
    /// Process start, for `setup_s`.
    pub started: Instant,
    /// `benchmark/results`: traces, scratch snapshots, run records.
    pub out_dir: PathBuf,
}

impl RunArgs {
    /// A scratch directory of this process under the results directory.
    pub fn scratch_dir(&self) -> std::io::Result<PathBuf> {
        let dir = self.out_dir.join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }

    /// True when this run's op sequence is the one `baseline.json`'s
    /// answers digests were recorded for.
    pub fn is_baseline_shape(&self) -> bool {
        !self.scale.smoke && self.seed == DEFAULT_SEED && self.seconds == RUN_SECONDS
    }
}

#[derive(Debug, Default)]
pub struct RunResult {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Every check other than per-op failures: digests, parity sweeps,
    /// exact counter cross-checks.
    pub violations: Vec<String>,
    /// Digest of all answer fingerprints in op order (untraced runs).
    pub answers_digest: Option<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }
}

/// Times repeated set-ups. `setup_s` is the time from process start to the
/// first timed op with the repeated part counted once, at its median: what
/// a single set-up costs, measured steadily.
pub struct SetupClock {
    started: Instant,
    repeats_s: Vec<f64>,
    index_builds_s: Vec<f64>,
}

impl SetupClock {
    pub fn new(started: Instant) -> Self {
        SetupClock {
            started,
            repeats_s: Vec::new(),
            index_builds_s: Vec::new(),
        }
    }

    /// Runs `prepare` `repeats` times and keeps the last result. `prepare`
    /// returns its product and the seconds it spent building the index.
    pub fn repeat<T>(&mut self, repeats: usize, mut prepare: impl FnMut() -> (T, f64)) -> T {
        let mut last = None;
        for _ in 0..repeats.max(1) {
            let t = Instant::now();
            let (product, index_build_s) = prepare();
            self.repeats_s.push(t.elapsed().as_secs_f64());
            self.index_builds_s.push(index_build_s);
            last = Some(product);
        }
        last.expect("at least one set-up ran")
    }

    pub fn setup_s(&self, first_timed_op: Instant) -> f64 {
        let total = first_timed_op.duration_since(self.started).as_secs_f64();
        total - self.repeats_s.iter().sum::<f64>() + median(&self.repeats_s)
    }

    pub fn index_build_s(&self) -> f64 {
        median(&self.index_builds_s)
    }
}

/// The end-to-end metric set of an untraced run. `latencies` is the
/// workload's latency distribution, ascending (`ReadLog::pooled` or
/// `ReadLog::per_op`); `unit_rates` are the questions answered per second
/// in each of the run's equal units of work (a pass, a segment, a block, a
/// cycle), and `ops_per_s` is their median, so that one slow stretch of a
/// shared host does not set the run's throughput.
pub fn end_to_end(
    latencies: &[f64],
    unit_rates: &[f64],
    setup_s: f64,
    index_build_s: f64,
    quality: &Quality,
) -> Metrics {
    if highest_percentile(latencies.len(), 10).is_none_or(|p| p < 0.9) {
        eprintln!(
            "note: {} latency samples leave fewer than ten beyond the p90",
            latencies.len()
        );
    }
    let (p50, p90, _, _) = tail(latencies);
    let mut m = Metrics::default();
    m.set("ops_per_s", median(unit_rates));
    m.set("latency_p50_ms", p50);
    m.set("latency_p90_ms", p90);
    m.set("setup_s", setup_s);
    m.set("peak_rss_mb", peak_rss_mb());
    m.set("anytime_t90_ms", quality.anytime_t90_ms());
    m.set("answer_delta_mean", quality.answer_delta_mean());
    m.set("index_build_s", index_build_s);
    m
}

/// Checks a run's answers digest against the recorded one, when this run
/// has the recorded shape.
pub fn check_digest(args: &RunArgs, workload: &str, digest: &str, violations: &mut Vec<String>) {
    if !args.is_baseline_shape() {
        return;
    }
    match crate::baseline::answers_digest(workload) {
        Some(want) if want == digest => {}
        Some(want) => violations.push(format!(
            "answers_digest of {workload} is {digest}, baseline.json records {want}"
        )),
        None => violations.push(format!("baseline.json records no digest for {workload}")),
    }
}

/// Writes a traced run's spans to `results/trace-<workload>.json`.
pub fn write_trace(
    args: &RunArgs,
    workload: &str,
    tracer: &crate::trace::Tracer,
    violations: &mut Vec<String>,
) {
    let path = args.out_dir.join(format!("trace-{workload}.json"));
    if let Err(e) = crate::trace::write_json(&path, workload, args.seed, tracer.spans()) {
        violations.push(format!("cannot write {}: {e}", path.display()));
    }
}
