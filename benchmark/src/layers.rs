//! Layer probes: each times one layer's public functions directly, on the
//! workload's own graph and questions, from outside the program. A traced
//! run runs all of them after its replay, so every per-layer metric is a
//! measurement on every workload — what differs between workloads is the
//! input the layer is probed with.

use crate::config::{engine_config, service_config, DATASET_SEED, LIVE_READS_PER_ROUND};
use crate::harness::{median, percentile, sorted, Rng};
use crate::inputs::{Op, PoolQuestion};
use crate::metrics::Metrics;
use crate::run::RunArgs;
use crate::servepath::{body_of, call_direct};
use crate::trace::{Tracer, TracingOracle};
use crate::workloads::{live_mixed, serve_hot};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use wqe_core::obs::Stage;
use wqe_core::{EngineCtx, GraphStore, QueryService, WqeEngine};
use wqe_graph::{Graph, GraphUpdate, NodeId};
use wqe_index::kernel::{active_kernel, merge_join, BatchScratch, Kernel};
use wqe_index::{repair_insertions, BoundedBfsOracle, DistanceOracle, PllIndex, PllParts};
use wqe_pool::WorkerPool;
use wqe_query::{Matcher, StarCache};
use wqe_serve::{http::HttpServer, ServeCtx};
use wqe_store::{write_snapshot, Snapshot};

/// Ops of the engine and matcher passes are capped: the passes exist to
/// attribute time, not to repeat the workload.
const ENGINE_PASS_OPS: usize = 96;
const MATCHER_PASS_QUESTIONS: usize = 48;

/// The BFS-tier inputs of `cold_start`: a snapshot past the PLL limit, a
/// context opened from it, and the questions asked of it.
pub struct Bfs<'a> {
    pub path: &'a Path,
    pub ctx: &'a EngineCtx,
    pub pool: &'a [PoolQuestion],
    pub ops: &'a [Op],
}

pub struct Inputs<'a> {
    /// The workload's primary graph under its default oracle.
    pub ctx: &'a EngineCtx,
    pub pool: &'a [PoolQuestion],
    /// The workload's distinct ops.
    pub ops: &'a [Op],
    /// Engine parallelism the workload runs with.
    pub parallelism: usize,
    pub bfs: Option<Bfs<'a>>,
    /// False for `live_mixed`, whose replay measures the live layer.
    pub live: bool,
    pub args: &'a RunArgs,
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs every probe. Spans of the engine pass go to `tracer`.
pub fn probe_all(inp: &Inputs, tracer: &mut Tracer, violations: &mut Vec<String>) -> Metrics {
    let mut m = Metrics::default();
    let pairs = engine_pass(inp, tracer, &mut m, violations);
    matcher_pass(inp, &mut m);
    let pll = index_probe(inp, &pairs, &mut m);
    if let Err(e) = store_probe(inp, &pll, &mut m) {
        violations.push(format!("store probe: {e}"));
    }
    if let Err(e) = wire_probe(inp, &mut m) {
        violations.push(format!("wire probe: {e}"));
    }
    bfs_probe(inp, &mut m);
    pool_probe(&mut m);
    if inp.live {
        live_probe(inp, &mut m, violations);
    }
    m
}

/// Each distinct op once, directly on the engine, over a context whose
/// oracle is wrapped in a [`TracingOracle`]: `search.*`, `matcher.*` and
/// `oracle.*` from the reports, their profiles and the wrapper. Returns
/// the logged distance pairs.
fn engine_pass(
    inp: &Inputs,
    tracer: &mut Tracer,
    m: &mut Metrics,
    violations: &mut Vec<String>,
) -> Vec<(NodeId, NodeId, u32)> {
    // One wrapped context per graph the workload asks questions of:
    // `cold_start` has two, everything else one.
    let wrap = |ctx: &EngineCtx| {
        let oracle = Arc::new(TracingOracle::new(Arc::clone(ctx.oracle())));
        (
            EngineCtx::new(Arc::clone(ctx.graph()), oracle.clone()),
            oracle,
        )
    };
    let (ctx, oracle) = wrap(inp.ctx);
    let mut ops: Vec<_> = inp.ops.iter().map(|&op| (&ctx, inp.pool, op)).collect();
    let bfs = inp.bfs.as_ref().map(|bfs| (wrap(bfs.ctx), bfs));
    if let Some(((bfs_ctx, _), bfs)) = &bfs {
        ops.extend(bfs.ops.iter().map(|&op| (bfs_ctx, bfs.pool, op)));
    }
    // The same sample whatever the seed, so the pass's work counts can be
    // compared between runs of different seeds.
    Rng::new(DATASET_SEED, 0xe9).shuffle(&mut ops);
    ops.truncate(ENGINE_PASS_OPS);

    let (mut new_us, mut run_ms, mut profile_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut expansions, mut frontier_peak, mut partial) = (0u64, 0usize, 0usize);
    let (mut chase_us, mut merge_us, mut match_us, mut star_us, mut join_us) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    let mut counters = wqe_core::CounterRegistry::default();
    for (i, &(ctx, pool, op)) in ops.iter().enumerate() {
        let request = i as u64 + 1_000_000;
        let question = pool[op.question].why.question.clone();
        let config = op.algo.apply_to(engine_config(inp.parallelism));
        let t = Instant::now();
        let engine = tracer
            .span("search.engine_new", None, request, || {
                WqeEngine::try_new(ctx.clone(), question, config)
            })
            .expect("pool questions are valid");
        new_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let report = tracer
            .span("search.run", None, request, || engine.try_run(op.algo))
            .expect("pool questions run");
        run_ms.push(ms(t));

        profile_ms.push(report.elapsed_ms);
        expansions += report.expansions as u64;
        frontier_peak = frontier_peak.max(report.frontier_peak);
        partial += usize::from(report.termination.is_partial());
        let profile = report.profile.expect("engine sessions carry a profiler");
        chase_us += profile.stage(Stage::Chase).total_us;
        merge_us += profile.stage(Stage::Merge).total_us;
        match_us += profile.stage(Stage::Match).total_us;
        star_us += profile.stage(Stage::StarMaterialize).total_us;
        join_us += profile.stage(Stage::Join).total_us;
        let c = profile.counters;
        counters.cache_hits += c.cache_hits;
        counters.cache_misses += c.cache_misses;
        counters.cache_evictions += c.cache_evictions;
        counters.oracle_dist_calls += c.oracle_dist_calls;
        counters.oracle_dist_batch_calls += c.oracle_dist_batch_calls;
        counters.oracle_label_entries_scanned += c.oracle_label_entries_scanned;
        counters.pool_runs += c.pool_runs;
        counters.pool_tasks += c.pool_tasks;
        counters.match_steps += report.match_steps;
    }
    let run_sorted = sorted(run_ms.clone());
    m.set("search.run_ms_p50", percentile(&run_sorted, 0.5));
    m.set("search.run_ms_p90", percentile(&run_sorted, 0.9));
    m.set("search.engine_new_us_p50", median(&new_us));
    m.set("search.expansions", expansions as f64);
    m.set("search.frontier_peak_max", frontier_peak as f64);
    m.set(
        "search.partial_share",
        partial as f64 / ops.len().max(1) as f64,
    );
    m.set("search.chase_ms", chase_us / 1e3);
    m.set("search.merge_ms", merge_us / 1e3);
    m.set("matcher.match_ms", match_us / 1e3);
    m.set("matcher.star_materialize_ms", star_us / 1e3);
    m.set("matcher.join_ms", join_us / 1e3);
    m.set("matcher.match_steps", counters.match_steps as f64);
    let lookups = (counters.cache_hits + counters.cache_misses).max(1) as f64;
    m.set(
        "matcher.star_cache_hit_ratio",
        counters.cache_hits as f64 / lookups,
    );
    m.set(
        "matcher.star_cache_evictions",
        counters.cache_evictions as f64,
    );
    m.set("pool.runs", counters.pool_runs as f64);
    m.set("pool.tasks", counters.pool_tasks as f64);
    m.set(
        "pool.tasks_per_run",
        counters.pool_tasks as f64 / counters.pool_runs.max(1) as f64,
    );

    let mut total = oracle.counts();
    if let Some(((_, bfs_oracle), _)) = &bfs {
        let c = bfs_oracle.counts();
        total.dist_calls += c.dist_calls;
        total.batch_calls += c.batch_calls;
        total.pairs += c.pairs;
        total.within += c.within;
        total.busy_ns += c.busy_ns;
    }
    m.set("oracle.dist_calls", total.dist_calls as f64);
    m.set("oracle.dist_batch_calls", total.batch_calls as f64);
    m.set("oracle.pairs", total.pairs as f64);
    let batched_pairs = total.pairs - total.dist_calls;
    m.set(
        "oracle.pairs_per_batch",
        batched_pairs as f64 / total.batch_calls.max(1) as f64,
    );
    m.set(
        "oracle.within_ratio",
        total.within as f64 / total.pairs.max(1) as f64,
    );
    m.set("oracle.busy_ms", total.busy_ns as f64 / 1e6);
    m.set(
        "oracle.label_entries_scanned",
        counters.oracle_label_entries_scanned as f64,
    );
    m.set(
        "oracle.entries_per_pair",
        counters.oracle_label_entries_scanned as f64 / total.pairs.max(1) as f64,
    );
    let ratio = median(&run_ms) / median(&profile_ms);
    m.set(
        "trace.run_vs_profile_ratio",
        if ratio.is_finite() { ratio } else { 0.0 },
    );

    // The wrapper sits directly in front of the oracle the program counts
    // in: the two must agree call for call.
    let program = (counters.oracle_dist_calls, counters.oracle_dist_batch_calls);
    if (total.dist_calls, total.batch_calls) != program {
        violations.push(format!(
            "oracle calls seen from outside ({} point, {} batched) differ from the program's \
             counters ({} point, {} batched)",
            total.dist_calls, total.batch_calls, program.0, program.1
        ));
    }
    oracle.pair_log()
}

/// `Matcher::evaluate` on each question's query, once on an empty star
/// cache and once more on the cache that evaluation filled.
fn matcher_pass(inp: &Inputs, m: &mut Metrics) {
    let (mut cold_us, mut warm_us) = (Vec::new(), Vec::new());
    for q in inp.pool.iter().take(MATCHER_PASS_QUESTIONS) {
        let matcher = Matcher::new(Arc::clone(inp.ctx.graph()), Arc::clone(inp.ctx.oracle()))
            .with_shared_cache(Arc::new(StarCache::default_sized()));
        for sink in [&mut cold_us, &mut warm_us] {
            let t = Instant::now();
            std::hint::black_box(matcher.evaluate(&q.why.question.query));
            sink.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    m.set("matcher.evaluate_us_p50", median(&cold_us));
    m.set("matcher.evaluate_us_p50.warm", median(&warm_us));
}

fn label<'a>(
    offsets: &[u32],
    ranks: &'a [u32],
    dists: &'a [u32],
    v: NodeId,
) -> (&'a [u32], &'a [u32]) {
    let (lo, hi) = (offsets[v.index()] as usize, offsets[v.index() + 1] as usize);
    (&ranks[lo..hi], &dists[lo..hi])
}

/// PLL construction and repair, the merge-join and batch-probe kernels on
/// the labels of the pairs the workload really asked about, and those
/// pairs replayed on the bare oracle.
fn index_probe(inp: &Inputs, logged: &[(NodeId, NodeId, u32)], m: &mut Metrics) -> PllIndex {
    let graph = inp.ctx.graph();
    let t = Instant::now();
    let pll = PllIndex::build_with(graph, 0);
    m.set("pll.build_s", t.elapsed().as_secs_f64());
    let stats = pll.stats();
    m.set("pll.label_entries", stats.total_entries as f64);
    m.set("pll.label_bytes", stats.bytes as f64);
    m.set("pll.avg_label_len", stats.avg_label_len);

    // A workload that never asked the oracle anything still gets its
    // kernels probed, on seeded random pairs.
    let mut rng = Rng::new(inp.args.seed, 0x9a1);
    let n = graph.node_count();
    let random: Vec<(NodeId, NodeId, u32)> = (0..10_000)
        .map(|_| (NodeId(rng.below(n) as u32), NodeId(rng.below(n) as u32), 4))
        .collect();
    let pairs = if logged.is_empty() {
        &random[..]
    } else {
        logged
    };

    let bare = inp.ctx.oracle();
    let t = Instant::now();
    for &(u, v, bound) in pairs {
        std::hint::black_box(bare.distance_within(u, v, bound));
    }
    m.set(
        "oracle.replay_ns_per_pair",
        t.elapsed().as_nanos() as f64 / pairs.len() as f64,
    );

    let PllParts {
        out_offsets,
        out_ranks,
        out_dists,
        in_offsets,
        in_ranks,
        in_dists,
    } = pll.to_parts();
    let out_of = |v| label(&out_offsets, &out_ranks, &out_dists, v);
    let in_of = |v| label(&in_offsets, &in_ranks, &in_dists, v);
    let mut entries = 0u64;
    let t = Instant::now();
    for &(u, v, _) in pairs {
        let ((or, od), (ir, id)) = (out_of(u), in_of(v));
        let (d, scanned) = merge_join(or, od, ir, id);
        std::hint::black_box(d);
        entries += scanned;
    }
    let calls = pairs.len() as f64;
    m.set(
        "kernel.merge_join_ns_per_call",
        t.elapsed().as_nanos() as f64 / calls,
    );
    m.set("kernel.entries_per_call", entries as f64 / calls);

    // The batch path: one source table load, then a probe per target.
    let mut by_source = pairs.to_vec();
    by_source.sort_by_key(|&(u, v, _)| (u, v));
    let mut scratch = BatchScratch::new();
    let t = Instant::now();
    for group in by_source.chunk_by(|a, b| a.0 == b.0) {
        let (or, od) = out_of(group[0].0);
        scratch.load_source(or, od);
        for &(_, v, _) in group {
            let (ir, id) = in_of(v);
            std::hint::black_box(scratch.probe(ir, id));
        }
    }
    m.set(
        "kernel.batch_probe_ns_per_pair",
        t.elapsed().as_nanos() as f64 / calls,
    );
    m.set(
        "kernel.active",
        f64::from(u8::from(active_kernel() == Kernel::Avx2)),
    );

    // Incremental repair after one fresh edge, and the graph-side cost of
    // applying that update.
    let (mut apply_ms, mut repair_ms) = (Vec::new(), Vec::new());
    let mut tried = 0;
    while repair_ms.len() < 5 && tried < 200 {
        tried += 1;
        let (u, v) = (NodeId(rng.below(n) as u32), NodeId(rng.below(n) as u32));
        if u == v || graph.has_edge(u, v) {
            continue;
        }
        let update = [GraphUpdate::InsertEdge {
            from: u,
            to: v,
            label: "live".into(),
        }];
        let t = Instant::now();
        let (next, delta) = graph.apply_updates(&update).expect("fresh edge applies");
        apply_ms.push(ms(t));
        let budget = 48 * next.node_count() as u64 + 4_096;
        let t = Instant::now();
        std::hint::black_box(repair_insertions(
            &pll,
            &next,
            &delta.inserted_edges,
            budget,
        ));
        repair_ms.push(ms(t));
    }
    m.set("live.apply_updates_ms", median(&apply_ms));
    m.set("pll.repair_ms_p50", median(&repair_ms));
    pll
}

fn first_answer_ms(path: &Path, pool: &[PoolQuestion], op: Op) -> Result<f64, String> {
    let t = Instant::now();
    let ctx = EngineCtx::from_snapshot(path).map_err(|e| e.to_string())?;
    let service = QueryService::new(ctx, service_config(1, 1));
    let (_, response) = call_direct(&service, pool, op);
    response
        .report()
        .ok_or("first question after open did not complete")?;
    Ok(ms(t))
}

/// The snapshot store on the workload's graph: write, open, decode, and
/// the time from opening a snapshot to the first answer on each oracle
/// tier.
fn store_probe(inp: &Inputs, pll: &PllIndex, m: &mut Metrics) -> Result<(), String> {
    let graph = inp.ctx.graph();
    let dir = inp.args.scratch_dir().map_err(|e| e.to_string())?;
    let path = dir.join("probe.wqs");
    let t = Instant::now();
    let bytes = write_snapshot(&path, graph, Some(pll)).map_err(|e| e.to_string())?;
    m.set("store.write_ms", ms(t));
    m.set("store.bytes", bytes as f64);
    m.set(
        "store.bytes_per_node",
        bytes as f64 / graph.node_count() as f64,
    );

    let mut open_ms = Vec::new();
    let mut snap = None;
    for _ in 0..5 {
        let t = Instant::now();
        snap = Some(Snapshot::open(&path).map_err(|e| e.to_string())?);
        open_ms.push(ms(t));
    }
    let snap = snap.expect("opened five times");
    let open_p50 = median(&open_ms);
    m.set("store.open_ms_p50", open_p50);
    m.set("store.open_mb_per_s", bytes as f64 / 1e6 / (open_p50 / 1e3));
    m.set("store.is_mmap", f64::from(u8::from(snap.is_mmap())));
    let t = Instant::now();
    std::hint::black_box(snap.load_graph().map_err(|e| e.to_string())?);
    m.set("store.load_graph_ms", ms(t));
    drop(snap);

    let mut ctx_ms = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        std::hint::black_box(EngineCtx::from_snapshot(&path).map_err(|e| e.to_string())?);
        ctx_ms.push(ms(t));
    }
    m.set("store.ctx_from_snapshot_ms_p50", median(&ctx_ms));

    m.set(
        "store.ttfa_pll_ms",
        first_answer_ms(&path, inp.pool, inp.ops[0])?,
    );
    let bfs_ms = match &inp.bfs {
        Some(bfs) => first_answer_ms(bfs.path, bfs.pool, bfs.ops[0])?,
        // No snapshot past the PLL limit in this workload: the same graph
        // written without labels opens on the BFS tier.
        None => {
            let unlabeled = dir.join("probe-bfs.wqs");
            write_snapshot(&unlabeled, graph, None).map_err(|e| e.to_string())?;
            first_answer_ms(&unlabeled, inp.pool, inp.ops[0])?
        }
    };
    m.set("store.ttfa_bfs_ms", bfs_ms);
    Ok(())
}

/// One loopback client against a server over the workload's context:
/// `/healthz`, a cached question over HTTP against the same question in
/// process, and the first SSE event of a streamed request.
fn wire_probe(inp: &Inputs, m: &mut Metrics) -> Result<(), String> {
    let graph = Arc::clone(inp.ctx.graph());
    let service = Arc::new(QueryService::new(inp.ctx.clone(), service_config(2, 1)));
    let op = inp.ops[0];
    call_direct(&service, inp.pool, op);
    let mut hit_us = Vec::new();
    for _ in 0..200 {
        let (latency_ms, response) = call_direct(&service, inp.pool, op);
        if !response.cache_hit() {
            return Err("a repeated question missed the answer cache".into());
        }
        hit_us.push(latency_ms * 1e3);
    }
    m.set("service.call_hit_us_p50", median(&hit_us));

    let server = HttpServer::bind(
        ServeCtx {
            service: Arc::clone(&service),
            graph: Arc::clone(&graph),
            store: None,
        },
        "127.0.0.1:0",
    )
    .map_err(|e| e.to_string())?;
    let addr = server.addr();
    let mut non_200 = 0u64;
    let mut timed = |request: &str, first_event_only: bool| -> Result<f64, String> {
        let t = Instant::now();
        let reply =
            serve_hot::exchange(addr, request, first_event_only).map_err(|e| e.to_string())?;
        non_200 += u64::from(reply.status != 200);
        Ok(ms(t))
    };
    let healthz = "GET /v1/healthz HTTP/1.1\r\nHost: b\r\n\r\n";
    let blocking = serve_hot::post(&body_of(&graph, inp.pool, op, false));
    let streamed = serve_hot::post(&body_of(&graph, inp.pool, op, true));
    let (mut healthz_ms, mut http_ms, mut sse_ms) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..40 {
        healthz_ms.push(timed(healthz, false)?);
    }
    for _ in 0..60 {
        http_ms.push(timed(&blocking, false)?);
    }
    for _ in 0..20 {
        sse_ms.push(timed(&streamed, true)?);
    }
    m.set("serve.healthz_ms_p50", median(&healthz_ms));
    m.set(
        "serve.wire_overhead_ms_p50",
        median(&http_ms) - median(&hit_us) / 1e3,
    );
    m.set("serve.sse_first_event_ms_p50", median(&sse_ms));
    m.set("serve.non_200", non_200 as f64);
    Ok(())
}

/// A few questions on a cold bounded-BFS oracle: on `cold_start` the
/// oracle of its large graph, elsewhere one over the workload's graph.
fn bfs_probe(inp: &Inputs, m: &mut Metrics) {
    let (graph, pool, ops): (&Arc<Graph>, _, _) = match &inp.bfs {
        Some(bfs) => (bfs.ctx.graph(), bfs.pool, bfs.ops),
        None => (inp.ctx.graph(), inp.pool, inp.ops),
    };
    let oracle = Arc::new(BoundedBfsOracle::new(Arc::clone(graph), 4));
    let ctx = EngineCtx::new(Arc::clone(graph), oracle.clone());
    let (mut steps, mut span_us) = (0u64, 0.0);
    for &op in ops.iter().take(8) {
        let profile = crate::inputs::direct_answer(&ctx, pool, op)
            .profile
            .expect("engine sessions carry a profiler");
        steps += profile.counters.oracle_steps;
        span_us += profile.stage(Stage::Oracle).total_us;
    }
    m.set("oracle.bfs_steps", steps as f64);
    m.set("oracle.bfs_span_ms", span_us / 1e3);
    m.set("oracle.bfs_cached_sources", oracle.cached_sources() as f64);
}

/// `WorkerPool::map` over trivial items: what a second thread costs when
/// there is nothing to win.
fn pool_probe(m: &mut Metrics) {
    let items: Vec<u64> = (0..64).collect();
    let per_call_us = |threads| {
        let pool = WorkerPool::new(threads);
        let calls: Vec<f64> = (0..200)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(pool.map(&items, |i, x| x + i as u64));
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        median(&calls)
    };
    m.set("pool.map_overhead_us", per_call_us(2) - per_call_us(1));
}

/// One cycle of `live_mixed`'s sequence on the workload's graph and
/// questions.
fn live_probe(inp: &Inputs, m: &mut Metrics, violations: &mut Vec<String>) {
    let graph = inp.ctx.graph();
    let rounds = live_mixed::plan(
        graph,
        inp.pool.len(),
        live_mixed::KIND_CYCLE.len(),
        LIVE_READS_PER_ROUND / 5,
        inp.args.seed,
    );
    let store = Arc::new(GraphStore::new(Arc::clone(graph)));
    let service = QueryService::with_store(Arc::clone(&store), service_config(1, 1));
    let outcome = live_mixed::run_sequence(&store, &service, inp.pool, &rounds, None, None);
    if outcome.failed_publishes + outcome.reads.failed > 0 {
        violations.push(format!(
            "live probe: {} publishes and {} reads failed",
            outcome.failed_publishes, outcome.reads.failed
        ));
    }
    m.extend(outcome.layer_metrics());
    m.set("live.pin_ns", pin_ns(&store));
}

/// Median cost of pinning the head epoch.
pub fn pin_ns(store: &GraphStore) -> f64 {
    let samples: Vec<f64> = (0..1_000)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(store.pin());
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}
