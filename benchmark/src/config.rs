//! Every size and setting of the benchmark. Nothing here is read from the
//! environment: two runs with the same flags do the same work.

use wqe_core::{CacheConfig, ServiceConfig, WqeConfig};

/// `run_seconds` of `BENCHMARK.json`: how long one run's timed phase is
/// sized to take on the reference host (2 cores).
pub const RUN_SECONDS: u64 = 12;

/// The `--seed` whose answers digests `baseline.json` records.
pub const DEFAULT_SEED: u64 = 1;

/// Seed of the datasets (graphs and question pools). A constant, like a
/// checked-in dataset: `--seed` draws the *traffic* (op order, popularity,
/// update operands, verification sample) from fixed pools, so two seeds
/// measure the same system on the same data and their difference is noise,
/// not a different question mix. Per-seed pools were tried first: with a
/// few hundred heavy-tailed questions the p50 moved 2x between seeds.
pub const DATASET_SEED: u64 = 20_190_630;

/// A per-op timeout: an op slower than this counts as failed.
pub const OP_TIMEOUT_S: f64 = 30.0;

/// Matcher-step limit on the ground-truth queries questions are made from
/// (see `inputs::question_pool`), on the PLL-tier graphs and on the
/// BFS-tier graph, where a step costs a traversal instead of a merge-join.
pub const TRUTH_STEP_LIMIT: usize = 20_000;
pub const TRUTH_STEP_LIMIT_BFS: usize = 1_000;

/// Governor cap on matcher steps per question. Deterministic at any
/// parallelism (charged serially), unlike a wall-clock deadline; it bounds
/// the tail that `max_expansions` alone leaves at tens of seconds on the
/// IMDB-like graph. Answers cut by it are tagged partial and counted in
/// `search.partial_share`.
pub const MATCH_STEP_CAP: u64 = 200_000;

/// The engine configuration every workload shares. No deadline and no time
/// limit: a wall-clock cut would make answers depend on timing.
pub fn engine_config(parallelism: usize) -> WqeConfig {
    WqeConfig {
        budget: 3.0,
        top_k: 3,
        max_expansions: 300,
        time_limit_ms: None,
        deadline_ms: 0.0,
        max_match_steps: MATCH_STEP_CAP,
        parallelism,
        ..Default::default()
    }
}

pub fn service_config(max_inflight: usize, parallelism: usize) -> ServiceConfig {
    ServiceConfig {
        max_inflight,
        queue_cap: 64,
        base_config: engine_config(parallelism),
        cache: CacheConfig::default(),
        ..Default::default()
    }
}

/// Sizes of one run. `full` is what `BENCHMARK.json` measures; `smoke`
/// runs every workload and every check on toy inputs in seconds.
#[derive(Debug, Clone)]
pub struct Scale {
    pub smoke: bool,
    /// `search_cold` graph: IMDB-like.
    pub imdb_scale: f64,
    /// `serve_hot`, `live_mixed`, `cold_start` phase A graph: DBpedia-like.
    pub dbpedia_scale: f64,
    /// `cold_start` phase B graph; above `PLL_NODE_LIMIT`, so BFS tier.
    pub bfs_nodes: u64,
    /// `search_cold` pool: Why, Why-Many, Why-Empty questions.
    pub search_pool: [usize; 3],
    pub serve_pool: usize,
    pub live_pool: usize,
    /// `cold_start` questions per graph; each is asked under `answ` and
    /// `heu` in every cycle.
    pub cold_pool: usize,
    /// How many times set-up is repeated; `setup_s` is the median.
    pub setup_repeats: usize,
    /// `serve_hot` warm-up requests, discarded.
    pub serve_warmup: usize,
    /// Timed work per requested second, fixed so that work counts repeat:
    /// passes over the `search_cold` op list, `serve_hot` requests,
    /// `live_mixed` rounds, `cold_start` cycles.
    pub search_passes_per_s: f64,
    pub serve_requests_per_s: f64,
    pub live_rounds_per_s: f64,
    pub cold_cycles_per_s: f64,
}

impl Scale {
    pub fn full() -> Self {
        Scale {
            smoke: false,
            imdb_scale: 0.12,
            dbpedia_scale: 0.1,
            bfs_nodes: 200_000,
            search_pool: [60, 20, 20],
            serve_pool: 384,
            live_pool: 200,
            cold_pool: 8,
            setup_repeats: 3,
            serve_warmup: 1_000,
            search_passes_per_s: 3.0 / 12.0,
            serve_requests_per_s: 800.0,
            live_rounds_per_s: 66.0 / 12.0,
            cold_cycles_per_s: 7.0 / 12.0,
        }
    }

    pub fn smoke() -> Self {
        Scale {
            smoke: true,
            imdb_scale: 0.024,
            dbpedia_scale: 0.02,
            bfs_nodes: 60_000,
            search_pool: [6, 2, 2],
            serve_pool: 24,
            live_pool: 12,
            cold_pool: 2,
            setup_repeats: 1,
            serve_warmup: 20,
            search_passes_per_s: 1.0,
            serve_requests_per_s: 200.0,
            live_rounds_per_s: 20.0,
            cold_cycles_per_s: 1.0,
        }
    }

    /// Units of timed work for `--seconds`, at least one.
    pub fn units(&self, per_second: f64, seconds: u64) -> usize {
        ((per_second * seconds as f64).round() as usize).max(1)
    }
}

/// The `live_mixed` shape: reads between publishes.
pub const LIVE_READS_PER_ROUND: usize = 50;
