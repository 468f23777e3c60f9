//! Per-query observability primitives: lock-free stage spans and a
//! counter registry, shared by every layer of the WQE stack.
//!
//! Like the [`governor`](crate::governor), the profiler lives in
//! `wqe-pool` — the bottom of the crate graph — so the distance oracles
//! (`wqe-index`), the star matcher and its cache (`wqe-query`), and the
//! search algorithms (`wqe-core`) can all record into one handle without a
//! dependency cycle. `wqe_core::obs` re-exports these types and adds the
//! serializable `QueryProfile` view (in `wqe-core`).
//!
//! ## Design
//!
//! * **Lock-free.** Every mutation is a relaxed atomic add/max on a
//!   [`Profiler`] shared through an `Arc`; worker threads record into the
//!   same histograms concurrently without contention on a lock.
//! * **Monotonic clock.** Spans measure [`Instant`] deltas, never wall
//!   time, so a clock step cannot produce negative or absurd latencies.
//! * **Carried by the request scope.** The running search enters its
//!   profiler as part of the request [`Scope`](crate::scope::Scope);
//!   instrumented layers find it with [`with_current`] (no `Arc` clone on
//!   the hot path), and every thread hop carries the scope, so spans
//!   recorded inside a fan-out still land in the owning session's profile.
//! * **Free when off.** With no profiler in scope, [`span`] returns `None`
//!   without reading the clock and [`with_current`] is a thread-local load
//!   plus a branch — the instrumented code paths stay on the governor's
//!   <3% idle-overhead budget.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Number of log2-spaced latency histogram buckets per stage. Bucket `i`
/// holds spans whose nanosecond duration has its highest set bit at `i`
/// (so bucket 10 ≈ 1–2 µs, bucket 20 ≈ 1–2 ms); durations of 2^31 ns
/// (~2.1 s) or longer saturate into the last bucket.
pub const HIST_BUCKETS: usize = 32;

/// The instrumented stages of a query, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// A whole `Matcher::evaluate` call (subsumes the stages below it).
    Match = 0,
    /// Star-view materialization (§5.2): computing the rows of one star
    /// query against the graph, on a cache miss or with caching off.
    StarMaterialize = 1,
    /// The TA-style multiway join verifying focus candidates against the
    /// materialized star views.
    Join = 2,
    /// Q-Chase expansion: generating and gathering candidate operator
    /// applications for the current frontier.
    Chase = 3,
    /// A distance-oracle traversal (bounded BFS or a batched distance
    /// computation); memo hits are counted but not spanned.
    Oracle = 4,
    /// The serial merge step ranking evaluated rewrites into the frontier.
    Merge = 5,
    /// Durable-snapshot load at startup: opening, checksumming, and
    /// reconstituting a `wqe-store` snapshot into an engine context. A
    /// once-per-context cost, recorded so `--profile` shows startup beside
    /// the per-query stages.
    SnapshotLoad = 6,
}

impl Stage {
    /// Every stage, in pipeline order (the order profiles render in).
    pub const ALL: [Stage; 7] = [
        Stage::Match,
        Stage::StarMaterialize,
        Stage::Join,
        Stage::Chase,
        Stage::Oracle,
        Stage::Merge,
        Stage::SnapshotLoad,
    ];

    /// A stable snake_case name (used as the JSON key).
    pub fn as_str(&self) -> &'static str {
        match self {
            Stage::Match => "match",
            Stage::StarMaterialize => "star_materialize",
            Stage::Join => "join",
            Stage::Chase => "chase",
            Stage::Oracle => "oracle",
            Stage::Merge => "merge",
            Stage::SnapshotLoad => "snapshot_load",
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The counters a [`Profiler`] aggregates, beyond what the governor
/// already tracks (match steps, oracle steps, frontier peak).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Star-view cache hits.
    CacheHit = 0,
    /// Star-view cache misses (each implies one materialization).
    CacheMiss = 1,
    /// Star-view cache evictions.
    CacheEviction = 2,
    /// Point distance-oracle calls (`distance_within`).
    OracleDist = 3,
    /// Batched distance-oracle calls (`dist_batch`).
    OracleDistBatch = 4,
    /// Worker-pool runs (one per `map`/`map_governed` call).
    PoolRun = 5,
    /// Work items completed across all pool runs.
    PoolTask = 6,
    /// Answer-cache hits (the `QueryService` result cache in `wqe-core`).
    AnswerCacheHit = 7,
    /// Answer-cache misses.
    AnswerCacheMiss = 8,
    /// Answer-cache evictions (capacity, or invalidation on publish).
    AnswerCacheEviction = 9,
    /// Bytes of durable snapshot mapped (or read) into the address space
    /// when the engine context was loaded from a `wqe-store` snapshot.
    SnapshotBytesMapped = 10,
    /// PLL label entries scanned by distance-kernel merge-joins — the
    /// machine-independent work metric for the oracle hot path (wall-clock
    /// is meaningless on a shared 1-CPU host; entry scans are not).
    OracleLabelEntries = 11,
    /// Faults fired by the scoped [`fault::FaultPlan`](crate::fault)
    /// (all sites combined). Zero in production runs with no plan.
    FaultInjected = 12,
    /// Degradation-ladder retries: a transient oracle/worker fault was
    /// retried (with backoff) instead of surfacing.
    Retry = 13,
    /// Serves completed on a degraded path: a circuit breaker pinned the
    /// fallback oracle, a quarantined snapshot served via BFS, or a job
    /// succeeded only after retry.
    DegradedServe = 14,
    /// Label batch calls of `Oracle` (`wqe-index`) that could not take the
    /// shared scratch lock and allocated a local scratch instead — the
    /// silent-allocation path under contention, now observable.
    ScratchFallback = 15,
    /// Incremental anytime-answer events emitted to a streaming client
    /// (one per best-so-far improvement pushed over SSE or a stream
    /// handle).
    StreamUpdate = 16,
    /// Requests shed by the service instead of served: the per-request
    /// deadline fully elapsed in the queue, or overload shedding dropped a
    /// sheddable priority class past the hard watermark.
    ShedRequest = 17,
    /// Requests refused by the per-tenant token-bucket rate limiter.
    RateLimited = 18,
    /// Star-table rows materialized (kept after the leaf and augmented
    /// checks) — the work a star-cache hit saves, in rows.
    StarRows = 19,
    /// Nodes whose edges the star-materializing bounded BFS scanned — the
    /// work a star-cache hit saves, in traversal.
    StarBfsPops = 20,
    /// Evaluated search states dropped by Lemma 5.5's cl⁺ prune instead of
    /// joining the frontier.
    StatesPruned = 21,
    /// Operator generations (`NextOp`'s refinement or relaxation pass)
    /// withheld only by their cl⁺ condition.
    GenerationsPruned = 22,
}

impl Counter {
    /// Every counter, in declaration order.
    pub const ALL: [Counter; 23] = [
        Counter::CacheHit,
        Counter::CacheMiss,
        Counter::CacheEviction,
        Counter::OracleDist,
        Counter::OracleDistBatch,
        Counter::PoolRun,
        Counter::PoolTask,
        Counter::AnswerCacheHit,
        Counter::AnswerCacheMiss,
        Counter::AnswerCacheEviction,
        Counter::SnapshotBytesMapped,
        Counter::OracleLabelEntries,
        Counter::FaultInjected,
        Counter::Retry,
        Counter::DegradedServe,
        Counter::ScratchFallback,
        Counter::StreamUpdate,
        Counter::ShedRequest,
        Counter::RateLimited,
        Counter::StarRows,
        Counter::StarBfsPops,
        Counter::StatesPruned,
        Counter::GenerationsPruned,
    ];

    /// A stable snake_case name (used as the JSON key).
    pub fn as_str(&self) -> &'static str {
        match self {
            Counter::CacheHit => "cache_hits",
            Counter::CacheMiss => "cache_misses",
            Counter::CacheEviction => "cache_evictions",
            Counter::OracleDist => "oracle_dist_calls",
            Counter::OracleDistBatch => "oracle_dist_batch_calls",
            Counter::PoolRun => "pool_runs",
            Counter::PoolTask => "pool_tasks",
            Counter::AnswerCacheHit => "answer_cache_hits",
            Counter::AnswerCacheMiss => "answer_cache_misses",
            Counter::AnswerCacheEviction => "answer_cache_evictions",
            Counter::SnapshotBytesMapped => "snapshot_bytes_mapped",
            Counter::OracleLabelEntries => "oracle_label_entries_scanned",
            Counter::FaultInjected => "faults_injected",
            Counter::Retry => "retries",
            Counter::DegradedServe => "degraded_serves",
            Counter::ScratchFallback => "scratch_fallbacks",
            Counter::StreamUpdate => "stream_updates",
            Counter::ShedRequest => "shed_requests",
            Counter::RateLimited => "rate_limited",
            Counter::StarRows => "star_rows",
            Counter::StarBfsPops => "star_bfs_pops",
            Counter::StatesPruned => "states_pruned",
            Counter::GenerationsPruned => "generations_pruned",
        }
    }
}

/// Lock-free latency statistics for one stage.
#[derive(Debug, Default)]
struct StageStats {
    count: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
    hist: [AtomicU64; HIST_BUCKETS],
}

impl StageStats {
    fn record(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
        // Highest set bit of (ns | 1): 0ns lands in bucket 0, overflow
        // saturates into the last bucket.
        let bucket = (63 - (ns | 1).leading_zeros() as usize).min(HIST_BUCKETS - 1);
        self.hist[bucket].fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> StageSnapshot {
        StageSnapshot {
            count: self.count.load(Ordering::Relaxed),
            total_ns: self.total_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
            hist: std::array::from_fn(|i| self.hist[i].load(Ordering::Relaxed)),
        }
    }
}

/// A point-in-time copy of one stage's statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSnapshot {
    /// Spans recorded.
    pub count: u64,
    /// Sum of span durations, nanoseconds.
    pub total_ns: u64,
    /// Longest single span, nanoseconds.
    pub max_ns: u64,
    /// Log2-nanosecond latency histogram (see [`HIST_BUCKETS`]).
    pub hist: [u64; HIST_BUCKETS],
}

impl Default for StageSnapshot {
    fn default() -> Self {
        StageSnapshot {
            count: 0,
            total_ns: 0,
            max_ns: 0,
            hist: [0; HIST_BUCKETS],
        }
    }
}

/// A point-in-time copy of a whole [`Profiler`]: per-stage latency
/// statistics plus the counter registry. Plain data — the serializable
/// `QueryProfile` in `wqe-core` is built from this.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileSnapshot {
    /// One snapshot per [`Stage`], indexed by discriminant
    /// (i.e. in [`Stage::ALL`] order).
    pub stages: [StageSnapshot; Stage::ALL.len()],
    /// One value per [`Counter`], indexed by discriminant.
    pub counters: [u64; Counter::ALL.len()],
}

impl ProfileSnapshot {
    /// The snapshot of one stage.
    pub fn stage(&self, s: Stage) -> &StageSnapshot {
        &self.stages[s as usize]
    }

    /// The value of one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }
}

/// A lock-free per-session profiler: stage spans plus counters, all
/// relaxed atomics, shared through an `Arc` between the session's thread
/// and any pool workers it fans out to.
#[derive(Debug, Default)]
pub struct Profiler {
    stages: [StageStats; Stage::ALL.len()],
    counters: [AtomicU64; Counter::ALL.len()],
}

impl Profiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        Profiler::default()
    }

    /// Records one completed span of `stage` lasting `ns` nanoseconds.
    /// Prefer [`span`] (the RAII guard) over calling this directly.
    pub fn record_span(&self, stage: Stage, ns: u64) {
        self.stages[stage as usize].record(ns);
    }

    /// Adds `n` to a counter.
    pub fn add(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// The current value of a counter.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// Copies every stage and counter into a [`ProfileSnapshot`].
    pub fn snapshot(&self) -> ProfileSnapshot {
        ProfileSnapshot {
            stages: std::array::from_fn(|i| self.stages[i].snapshot()),
            counters: std::array::from_fn(|i| self.counters[i].load(Ordering::Relaxed)),
        }
    }
}

/// Runs `f` against the current profiler without cloning the `Arc`; a
/// no-op (one thread-local load plus a branch) when none is in scope.
/// This is the hot-path entry point for pure counter bumps.
pub fn with_current<F: FnOnce(&Profiler)>(f: F) {
    crate::scope::with_current(|s| {
        if let Some(p) = s.and_then(|s| s.profiler.as_deref()) {
            f(p);
        }
    });
}

/// An RAII span: created by [`span`], records its duration into the owning
/// profiler when dropped (panic-safe).
pub struct SpanGuard {
    profiler: Arc<Profiler>,
    stage: Stage,
    start: Instant,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let ns = self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.profiler.record_span(self.stage, ns);
    }
}

/// Opens a span of `stage` against the current profiler. Returns `None`
/// without touching the clock when no profiler is in scope, so
/// uninstrumented runs pay one thread-local load per call site.
pub fn span(stage: Stage) -> Option<SpanGuard> {
    let profiler = crate::scope::with_current(|s| s.and_then(|s| s.profiler.clone()));
    profiler.map(|profiler| SpanGuard {
        profiler,
        stage,
        start: Instant::now(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enter(profiler: Arc<Profiler>) -> crate::scope::ScopeGuard {
        crate::scope::Scope {
            profiler: Some(profiler),
            ..Default::default()
        }
        .enter()
    }

    #[test]
    fn span_records_into_scoped_profiler() {
        let p = Arc::new(Profiler::new());
        {
            let _scope = enter(Arc::clone(&p));
            let _span = span(Stage::Match).expect("profiler is in scope");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let snap = p.snapshot();
        let m = snap.stage(Stage::Match);
        assert_eq!(m.count, 1);
        assert!(m.total_ns >= 1_000_000, "slept 1ms, got {}ns", m.total_ns);
        assert_eq!(m.max_ns, m.total_ns);
        assert_eq!(m.hist.iter().sum::<u64>(), 1);
        // Every other stage stays empty.
        assert_eq!(snap.stage(Stage::Join).count, 0);
    }

    #[test]
    fn span_without_scope_is_none() {
        assert!(span(Stage::Oracle).is_none());
    }

    #[test]
    fn with_current_is_noop_without_scope() {
        let mut ran = false;
        with_current(|_| ran = true);
        assert!(!ran);
        let p = Arc::new(Profiler::new());
        let _scope = enter(Arc::clone(&p));
        with_current(|prof| prof.add(Counter::OracleDist, 3));
        assert_eq!(p.counter(Counter::OracleDist), 3);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let p = Profiler::new();
        p.record_span(Stage::Oracle, 0); // bucket 0
        p.record_span(Stage::Oracle, 1); // bucket 0
        p.record_span(Stage::Oracle, 2); // bucket 1
        p.record_span(Stage::Oracle, 1024); // bucket 10
        p.record_span(Stage::Oracle, u64::MAX); // saturates into the last
        let s = p.snapshot();
        let o = s.stage(Stage::Oracle);
        assert_eq!(o.count, 5);
        assert_eq!(o.hist[0], 2);
        assert_eq!(o.hist[1], 1);
        assert_eq!(o.hist[10], 1);
        assert_eq!(o.hist[HIST_BUCKETS - 1], 1);
        assert_eq!(o.max_ns, u64::MAX);
    }

    #[test]
    fn scopes_nest() {
        let outer = Arc::new(Profiler::new());
        let inner = Arc::new(Profiler::new());
        let s1 = enter(Arc::clone(&outer));
        {
            let _s2 = enter(Arc::clone(&inner));
            with_current(|p| p.add(Counter::CacheHit, 1));
        }
        with_current(|p| p.add(Counter::CacheMiss, 1));
        assert_eq!(inner.counter(Counter::CacheHit), 1);
        assert_eq!(outer.counter(Counter::CacheHit), 0);
        assert_eq!(outer.counter(Counter::CacheMiss), 1);
        drop(s1);
        assert!(span(Stage::Match).is_none(), "scope popped");
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let p = Arc::new(Profiler::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let p = Arc::clone(&p);
                scope.spawn(move || {
                    let _scope = enter(p);
                    for _ in 0..1000 {
                        with_current(|prof| {
                            prof.add(Counter::PoolTask, 1);
                            prof.record_span(Stage::Join, 100);
                        });
                    }
                });
            }
        });
        let s = p.snapshot();
        assert_eq!(s.counter(Counter::PoolTask), 4000);
        assert_eq!(s.stage(Stage::Join).count, 4000);
        assert_eq!(s.stage(Stage::Join).total_ns, 400_000);
    }

    #[test]
    fn stable_names() {
        for s in Stage::ALL {
            assert_eq!(s.to_string(), s.as_str());
        }
        let names: Vec<&str> = Counter::ALL.iter().map(|c| c.as_str()).collect();
        assert_eq!(
            names,
            [
                "cache_hits",
                "cache_misses",
                "cache_evictions",
                "oracle_dist_calls",
                "oracle_dist_batch_calls",
                "pool_runs",
                "pool_tasks",
                "answer_cache_hits",
                "answer_cache_misses",
                "answer_cache_evictions",
                "snapshot_bytes_mapped",
                "oracle_label_entries_scanned",
                "faults_injected",
                "retries",
                "degraded_serves",
                "scratch_fallbacks",
                "stream_updates",
                "shed_requests",
                "rate_limited",
                "star_rows",
                "star_bfs_pops",
                "states_pruned",
                "generations_pruned",
            ]
        );
    }
}
