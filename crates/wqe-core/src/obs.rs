//! Per-query observability: the serializable [`QueryProfile`] built from
//! the lock-free primitives in [`wqe_pool::obs`].
//!
//! Every report-producing algorithm (`AnsW`, `AnsHeu`, `FMAnsW`,
//! `ApxWhyM`, `AnsWE`) runs inside `Session::run`, which enters the
//! session's [`Profiler`] and governor as one request scope
//! ([`wqe_pool::scope::Scope`]) for the duration of the search, so the
//! instrumented layers below — the matcher and its star cache
//! (`wqe-query`), the distance oracles (`wqe-index`), the worker pool
//! (`wqe-pool`) — record stage spans and counters into it. The profiler
//! is the one ledger of that work: nothing else counts it. When
//! the search finishes, the profiler snapshot plus the governor counters
//! are folded into one [`QueryProfile`] attached to the report
//! (`AnswerReport::profile`), exported as JSON by `paper_experiments
//! --profiles-dir` and the CLI (`--profile`).
//!
//! See DESIGN.md "Observability" for the span taxonomy and the JSON
//! schema.

use crate::governor::Termination;
use serde::{Deserialize, Serialize};

pub use wqe_pool::obs::{
    span, with_current, Counter, ProfileSnapshot, Profiler, SpanGuard, Stage, StageSnapshot,
    HIST_BUCKETS,
};

/// The latency summary of one instrumented stage, in microseconds (the
/// histogram keeps nanosecond resolution).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StageProfile {
    /// Stable stage name (see [`Stage::as_str`]).
    pub stage: String,
    /// Spans recorded.
    pub count: u64,
    /// Sum of span durations, microseconds.
    pub total_us: f64,
    /// Longest single span, microseconds.
    pub max_us: f64,
    /// Log2-nanosecond latency histogram: bucket `i` counts spans whose
    /// duration in nanoseconds has its highest set bit at `i` (see
    /// [`HIST_BUCKETS`]).
    pub hist_log2_ns: Vec<u64>,
}

impl StageProfile {
    fn from_snapshot(stage: Stage, s: &StageSnapshot) -> Self {
        StageProfile {
            stage: stage.as_str().to_string(),
            count: s.count,
            total_us: s.total_ns as f64 / 1e3,
            max_us: s.max_ns as f64 / 1e3,
            hist_log2_ns: s.hist.to_vec(),
        }
    }
}

/// Every counter a query accumulates, from all layers, in one flat
/// registry: the star-view cache, the distance oracles, the worker pool,
/// and the governor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterRegistry {
    /// Star-view cache hits.
    pub cache_hits: u64,
    /// Star-view cache misses.
    pub cache_misses: u64,
    /// Star-view cache evictions.
    pub cache_evictions: u64,
    /// Point distance-oracle calls (`distance_within`). The matcher's
    /// join asks the oracle nothing, so these come from operator
    /// generation's `RfE` check alone — plus, on the live overlay tier,
    /// from the overlay answering a batch pair by pair. A query that
    /// reaches neither reports 0 here; that is not "no distance work".
    pub oracle_dist_calls: u64,
    /// Batched distance-oracle calls (`dist_batch`), from operator
    /// generation's `AddE` witness probes; the matcher's join probes its
    /// star tables instead.
    pub oracle_dist_batch_calls: u64,
    /// PLL label entries scanned by the merge-join/probe kernels across
    /// all point and batched oracle calls — the work metric the batch
    /// grouping and SIMD kernels are judged by.
    pub oracle_label_entries_scanned: u64,
    /// Worker-pool runs.
    pub pool_runs: u64,
    /// Work items completed across all pool runs.
    pub pool_tasks: u64,
    /// Governor: match steps charged by the search (parallelism-invariant).
    pub match_steps: u64,
    /// Governor: BFS node pops observed by the oracle.
    pub oracle_steps: u64,
    /// Governor: peak retained-search-state count.
    pub frontier_peak: u64,
    /// `QueryService` answer-cache hits. Service-level: populated in the
    /// service's stats registry, always zero in per-query profiles.
    pub answer_cache_hits: u64,
    /// `QueryService` answer-cache misses (service-level, see above).
    pub answer_cache_misses: u64,
    /// `QueryService` answer-cache evictions — capacity displacement and
    /// publish-time invalidation both count (service-level, see above).
    pub answer_cache_evictions: u64,
    /// Bytes of durable snapshot mapped (or read) at startup when the
    /// context came from [`crate::EngineCtx::from_snapshot`]
    /// (`crate::ctx::EngineCtx::from_snapshot`); zero for contexts built
    /// from a parsed graph.
    pub snapshot_bytes_mapped: u64,
    /// Faults fired by a scoped `FaultPlan` (zero with no plan).
    pub faults_injected: u64,
    /// Degradation-ladder retries of transient oracle/worker faults.
    pub retries: u64,
    /// Serves completed on a degraded path (pinned fallback oracle,
    /// quarantined snapshot via BFS, or success only after retry).
    pub degraded_serves: u64,
    /// Label batch calls of the oracle that lost the shared-scratch lock
    /// race and allocated a local scratch instead.
    pub scratch_fallbacks: u64,
    /// Incremental anytime-answer events emitted to streaming clients.
    pub stream_updates: u64,
    /// Requests shed by the service (queue-elapsed deadlines, overload).
    pub shed_requests: u64,
    /// Requests refused by the per-tenant rate limiter.
    pub rate_limited: u64,
    /// Star-table rows materialized; a star-cache hit materializes none.
    pub star_rows: u64,
    /// Nodes the star-materializing bounded BFS expanded.
    pub star_bfs_pops: u64,
    /// Evaluated states Lemma 5.5's cl⁺ prune kept off the frontier.
    pub states_pruned: u64,
    /// `NextOp` generation passes withheld only by their cl⁺ condition.
    pub generations_pruned: u64,
}

impl CounterRegistry {
    /// Folds every profiler-backed counter out of a snapshot. The three
    /// governor-sourced fields (`match_steps`, `oracle_steps`,
    /// `frontier_peak`) are not in the profiler; they stay zero here and
    /// are patched in by [`QueryProfile::from_snapshot`].
    pub fn from_snapshot(snapshot: &ProfileSnapshot) -> Self {
        CounterRegistry {
            cache_hits: snapshot.counter(Counter::CacheHit),
            cache_misses: snapshot.counter(Counter::CacheMiss),
            cache_evictions: snapshot.counter(Counter::CacheEviction),
            oracle_dist_calls: snapshot.counter(Counter::OracleDist),
            oracle_dist_batch_calls: snapshot.counter(Counter::OracleDistBatch),
            oracle_label_entries_scanned: snapshot.counter(Counter::OracleLabelEntries),
            pool_runs: snapshot.counter(Counter::PoolRun),
            pool_tasks: snapshot.counter(Counter::PoolTask),
            match_steps: 0,
            oracle_steps: 0,
            frontier_peak: 0,
            answer_cache_hits: snapshot.counter(Counter::AnswerCacheHit),
            answer_cache_misses: snapshot.counter(Counter::AnswerCacheMiss),
            answer_cache_evictions: snapshot.counter(Counter::AnswerCacheEviction),
            snapshot_bytes_mapped: snapshot.counter(Counter::SnapshotBytesMapped),
            faults_injected: snapshot.counter(Counter::FaultInjected),
            retries: snapshot.counter(Counter::Retry),
            degraded_serves: snapshot.counter(Counter::DegradedServe),
            scratch_fallbacks: snapshot.counter(Counter::ScratchFallback),
            stream_updates: snapshot.counter(Counter::StreamUpdate),
            shed_requests: snapshot.counter(Counter::ShedRequest),
            rate_limited: snapshot.counter(Counter::RateLimited),
            star_rows: snapshot.counter(Counter::StarRows),
            star_bfs_pops: snapshot.counter(Counter::StarBfsPops),
            states_pruned: snapshot.counter(Counter::StatesPruned),
            generations_pruned: snapshot.counter(Counter::GenerationsPruned),
        }
    }
}

/// The full per-query stage/counter breakdown attached to a finished
/// [`AnswerReport`](crate::AnswerReport) — the JSON-stable export of the
/// observability layer.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct QueryProfile {
    /// Stable termination-reason name (`complete`, `deadline`, …).
    pub termination: String,
    /// True for every reason except `complete`.
    pub partial: bool,
    /// Wall-clock milliseconds of the run.
    pub elapsed_ms: f64,
    /// Q-Chase steps simulated.
    pub expansions: u64,
    /// One entry per instrumented stage, in pipeline order, always all of
    /// them (zero-count stages included, so the JSON field set is stable).
    pub stages: Vec<StageProfile>,
    /// The aggregated counter registry.
    pub counters: CounterRegistry,
}

impl QueryProfile {
    /// Folds a profiler snapshot and the governor's counters into one
    /// profile. `match_steps` and `frontier_peak` come from the report
    /// (the per-run deltas); the profiler and `oracle_steps` accumulate
    /// over the session's lifetime.
    #[allow(clippy::too_many_arguments)]
    pub fn from_snapshot(
        snapshot: &ProfileSnapshot,
        termination: Termination,
        elapsed_ms: f64,
        expansions: u64,
        match_steps: u64,
        oracle_steps: u64,
        frontier_peak: u64,
    ) -> Self {
        QueryProfile {
            termination: termination.as_str().to_string(),
            partial: termination.is_partial(),
            elapsed_ms,
            expansions,
            stages: Stage::ALL
                .iter()
                .map(|&s| StageProfile::from_snapshot(s, snapshot.stage(s)))
                .collect(),
            counters: CounterRegistry {
                match_steps,
                oracle_steps,
                frontier_peak,
                ..CounterRegistry::from_snapshot(snapshot)
            },
        }
    }

    /// The profile of one stage (always present; count 0 if never hit).
    pub fn stage(&self, s: Stage) -> &StageProfile {
        &self.stages[s as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_has_all_stages_and_serializes() {
        let p = Profiler::new();
        p.record_span(Stage::Match, 2_000);
        p.add(Counter::CacheHit, 3);
        let profile =
            QueryProfile::from_snapshot(&p.snapshot(), Termination::Complete, 1.25, 7, 42, 100, 5);
        assert_eq!(profile.stages.len(), Stage::ALL.len());
        assert_eq!(profile.stage(Stage::Match).count, 1);
        assert!((profile.stage(Stage::Match).total_us - 2.0).abs() < 1e-9);
        assert_eq!(profile.stage(Stage::Merge).count, 0);
        assert_eq!(profile.counters.cache_hits, 3);
        assert_eq!(profile.counters.match_steps, 42);
        assert!(!profile.partial);
        let json = serde_json::to_string(&profile).unwrap();
        let back: QueryProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(back, profile);
        for s in Stage::ALL {
            assert!(json.contains(s.as_str()), "missing stage {s} in {json}");
        }
    }

    #[test]
    fn partial_termination_is_flagged() {
        let snap = ProfileSnapshot::default();
        let p = QueryProfile::from_snapshot(&snap, Termination::Deadline, 10.0, 0, 0, 0, 0);
        assert_eq!(p.termination, "deadline");
        assert!(p.partial);
    }
}
