//! `live_mixed`: cached reads beside publishes on a live `GraphStore`.
//!
//! One in-process client runs one interleaved sequence: 50 reads, then one
//! publish, repeated. Reads are Zipf(1.0) over a pool that fits the answer
//! cache. Publishes follow a fixed cycle of batch kinds — about 60% two
//! fresh edge inserts, 25% `SetAttr`, 15% edge delete — so the sequence of
//! index tiers (repair, overlay, rebuild) is the same for every seed; the
//! seed draws the reads.

use crate::config::{service_config, Scale, DATASET_SEED, LIVE_READS_PER_ROUND, TRUTH_STEP_LIMIT};
use crate::harness::{median, Rng, Zipf};
use crate::inputs::{dbpedia_graph, direct_answer, question_pool, Op, PoolQuestion, Quality};
use crate::metrics::Metrics;
use crate::run::{check_digest, end_to_end, write_trace, RunArgs, RunResult, SetupClock};
use crate::servepath::{body_of, call_direct, call_served, ReadLog};
use crate::trace::Tracer;
use crate::{layers, replay};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;
use wqe_core::{EngineCtx, GraphStore, OracleTier, QueryService};
use wqe_graph::{AttrValue, Graph, GraphUpdate, NodeId};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchKind {
    Insert,
    SetAttr,
    Delete,
}

use BatchKind::{Delete as D, Insert as I, SetAttr as A};

/// 18 inserts, 8 attribute writes, 4 deletes (60% / 27% / 13%), in blocks
/// of six that follow the store's tier policy: the insert that opens a
/// block finds a fresh PLL index and is repaired; the attribute write or
/// delete after it starts an overlay chain; the chain's fifth link, at the
/// block's end, is cut by a rebuild. So each block visits every tier, and
/// what a tier costs is sampled once per block whatever the seed.
pub const BLOCK: usize = 6;
pub const KIND_CYCLE: [BatchKind; 5 * BLOCK] = [
    I, A, I, I, D, I, //
    I, A, I, A, I, I, //
    I, D, I, A, I, I, //
    I, A, A, I, D, I, //
    I, A, I, I, A, D, //
];

pub struct Round {
    /// Pool indices to read before the publish.
    pub reads: Vec<usize>,
    pub batch: Vec<GraphUpdate>,
}

/// The op sequence: a pure function of the seed, the graph and the sizes.
/// The seed draws the reads. The update operands are drawn from the
/// dataset seed: which nodes a batch touches decides which cached answers
/// and star tables it evicts, so operands that changed with the seed would
/// make every seed a different mix of hits and recomputation.
pub fn plan(graph: &Graph, pool_len: usize, rounds: usize, reads: usize, seed: u64) -> Vec<Round> {
    let mut read_rng = Rng::new(seed, 0x11fe);
    let mut rng = Rng::new(DATASET_SEED, 0x11fe);
    // Popularity rank is pool order: which questions are hot belongs to
    // the dataset, the draws belong to the seed.
    let zipf = Zipf::new(pool_len, 1.0);
    let n = graph.node_count() as u32;
    let mut inserted: HashSet<(u32, u32)> = HashSet::new();
    let mut deleted: HashSet<(u32, u32)> = HashSet::new();
    let mut rewritten: HashSet<(u32, u32)> = HashSet::new();
    let fresh_edge = |rng: &mut Rng, inserted: &mut HashSet<(u32, u32)>| loop {
        let (u, v) = (rng.below(n as usize) as u32, rng.below(n as usize) as u32);
        if u != v && !graph.has_edge(NodeId(u), NodeId(v)) && inserted.insert((u, v)) {
            return GraphUpdate::InsertEdge {
                from: NodeId(u),
                to: NodeId(v),
                label: "live".into(),
            };
        }
    };
    (0..rounds)
        .map(|r| {
            let reads = (0..reads).map(|_| zipf.sample(&mut read_rng)).collect();
            let batch = match KIND_CYCLE[r % KIND_CYCLE.len()] {
                BatchKind::Insert => vec![
                    fresh_edge(&mut rng, &mut inserted),
                    fresh_edge(&mut rng, &mut inserted),
                ],
                BatchKind::SetAttr => loop {
                    let node = NodeId(rng.below(n as usize) as u32);
                    let attrs = &graph.node(node).attrs;
                    if attrs.is_empty() {
                        continue;
                    }
                    let (attr, old) = &attrs[rng.below(attrs.len())];
                    if !rewritten.insert((node.0, attr.0)) {
                        continue;
                    }
                    // A value the attribute does not have now, of its type.
                    let bump = 1 + rng.below(50) as i64;
                    let value = match old {
                        AttrValue::Int(x) => AttrValue::Int(x + bump),
                        AttrValue::Float(x) => AttrValue::float(x + bump as f64).expect("finite"),
                        AttrValue::Str(s) => AttrValue::Str(format!("{s}-{bump}")),
                        AttrValue::Bool(b) => AttrValue::Bool(!b),
                    };
                    break vec![GraphUpdate::SetAttr {
                        node,
                        attr: graph.schema().attr_name(*attr).to_string(),
                        value: Some(value),
                    }];
                },
                BatchKind::Delete => loop {
                    let from = NodeId(rng.below(n as usize) as u32);
                    let outs = graph.out_neighbors(from);
                    if outs.is_empty() {
                        continue;
                    }
                    let to = outs[rng.below(outs.len())].0;
                    if deleted.insert((from.0, to.0)) {
                        break vec![GraphUpdate::DeleteEdge { from, to }];
                    }
                },
            };
            Round { reads, batch }
        })
        .collect()
}

/// What one run of the sequence observed.
#[derive(Default)]
pub struct Outcome {
    pub reads: ReadLog,
    pub timed_wall_s: f64,
    /// Wall-clock seconds of each round: its reads and its publish.
    pub round_s: Vec<f64>,
    pub publishes: Vec<(OracleTier, f64)>,
    pub failed_publishes: u64,
    pub star_evicted: u64,
    /// Per publish: share of the answer cache that outlived it.
    pub carried: Vec<f64>,
    pub read_after_publish_ms: Vec<f64>,
    pub read_overlay_ms: Vec<f64>,
    pub read_pll_ms: Vec<f64>,
}

impl Outcome {
    pub fn tier_count(&self, tier: OracleTier) -> usize {
        self.publishes.iter().filter(|(t, _)| *t == tier).count()
    }

    fn tier_p50_ms(&self, tier: OracleTier) -> f64 {
        let ms: Vec<f64> = self
            .publishes
            .iter()
            .filter(|(t, _)| *t == tier)
            .map(|(_, ms)| *ms)
            .collect();
        median(&ms)
    }

    pub fn publish_mean_ms(&self) -> f64 {
        let total: f64 = self.publishes.iter().map(|(_, ms)| ms).sum();
        total / self.publishes.len().max(1) as f64
    }

    /// The `live.*` layer metrics, and the cache's carry-over ratio.
    pub fn layer_metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        m.set("live.publish_mean_ms", self.publish_mean_ms());
        let tiers = [
            (
                OracleTier::RepairedPll,
                "live.publish_ms_p50.repaired-pll",
                "live.publishes.repaired-pll",
            ),
            (
                OracleTier::Overlay,
                "live.publish_ms_p50.overlay",
                "live.publishes.overlay",
            ),
            (
                OracleTier::RebuiltPll,
                "live.publish_ms_p50.rebuilt-pll",
                "live.publishes.rebuilt-pll",
            ),
        ];
        for (tier, p50, count) in tiers {
            m.set(p50, self.tier_p50_ms(tier));
            m.set(count, self.tier_count(tier) as f64);
        }
        m.set(
            "live.star_evicted_per_publish",
            self.star_evicted as f64 / self.publishes.len().max(1) as f64,
        );
        m.set(
            "live.read_ms_p50.after_publish",
            median(&self.read_after_publish_ms),
        );
        m.set("live.read_ms_p50.overlay", median(&self.read_overlay_ms));
        m.set("live.read_ms_p50.pll", median(&self.read_pll_ms));
        let carried = self.carried.iter().sum::<f64>() / self.carried.len().max(1) as f64;
        m.set("service.cache_carried_ratio", carried);
        m
    }
}

/// Runs the sequence against a store and the service over it. With
/// `bodies`, reads take the in-process serve path (traced runs), recorded
/// as spans when a tracer is given.
pub fn run_sequence(
    store: &GraphStore,
    service: &QueryService,
    pool: &[PoolQuestion],
    rounds: &[Round],
    bodies: Option<&[String]>,
    mut tracer: Option<&mut Tracer>,
) -> Outcome {
    let mut out = Outcome::default();
    let mut on_overlay = false;
    let mut request_id = 0u64;
    let started = Instant::now();
    for round in rounds {
        let round_started = Instant::now();
        for (i, &question) in round.reads.iter().enumerate() {
            let op = Op::answ(question);
            let (latency_ms, response) = match bodies {
                Some(bodies) => {
                    request_id += 1;
                    // Specs resolve against the head graph, as the HTTP
                    // handler resolves them.
                    let graph = Arc::clone(store.pin().ctx().graph());
                    let body = &bodies[question];
                    let (ms, response, out_len) =
                        call_served(service, &graph, body, tracer.as_deref_mut(), request_id);
                    out.reads.bytes_in += body.len() as u64;
                    out.reads.bytes_out += out_len as u64;
                    (ms, response)
                }
                None => call_direct(service, pool, op),
            };
            out.reads.record(question, latency_ms, &response, None);
            if i == 0 && !out.publishes.is_empty() {
                out.read_after_publish_ms.push(latency_ms);
            }
            if on_overlay {
                out.read_overlay_ms.push(latency_ms);
            } else {
                out.read_pll_ms.push(latency_ms);
            }
        }
        let before = service.stats();
        let t = Instant::now();
        let published = match tracer.as_deref_mut() {
            Some(tr) => tr.span("live.publish", None, 0, || store.apply(&round.batch)),
            None => store.apply(&round.batch),
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match published {
            Ok(report) if !report.no_op => {
                out.publishes.push((report.tier, ms));
                out.star_evicted += report.star_evicted;
                on_overlay = report.tier == OracleTier::Overlay;
                let evicted = service.stats().counters.answer_cache_evictions
                    - before.counters.answer_cache_evictions;
                if before.cache_len > 0 {
                    let share = 1.0 - evicted as f64 / before.cache_len as f64;
                    out.carried.push(share.max(0.0));
                }
            }
            // The plan never repeats an edge or rewrites a value with
            // itself; a no-op or a rejection means the plan is wrong.
            _ => out.failed_publishes += 1,
        }
        out.round_s.push(round_started.elapsed().as_secs_f64());
    }
    out.timed_wall_s = started.elapsed().as_secs_f64();
    out
}

struct Prepared {
    graph: Arc<Graph>,
    store: Arc<GraphStore>,
    pool: Vec<PoolQuestion>,
}

/// One set-up: the graph, the store over it (which builds the PLL index),
/// and the question pool. Returns the seconds the index build took.
///
/// `quality` is fed from direct engine runs at the initial epoch, once per
/// question per set-up: the timed answers mostly come from the cache.
fn prepare(scale: &Scale, quality: &mut Quality) -> (Prepared, f64) {
    let graph = dbpedia_graph(scale.dbpedia_scale);
    let t = Instant::now();
    let store = Arc::new(GraphStore::new(Arc::clone(&graph)));
    let index_build_s = t.elapsed().as_secs_f64();
    let head = store.pin();
    let pool = question_pool(head.ctx(), [scale.live_pool, 0, 0], TRUTH_STEP_LIMIT);
    for question in 0..pool.len() {
        let op = Op::answ(question);
        quality.observe(&pool, op, &direct_answer(head.ctx(), &pool, op));
    }
    drop(head);
    (Prepared { graph, store, pool }, index_build_s)
}

fn service_over(store: &Arc<GraphStore>) -> QueryService {
    QueryService::with_store(Arc::clone(store), service_config(1, 1))
}

/// Final-epoch parity: every pool question, asked of the service at the
/// head epoch, answers as a direct engine run on a context built fresh
/// from the head graph.
fn final_epoch_parity(
    store: &GraphStore,
    service: &QueryService,
    pool: &[PoolQuestion],
    violations: &mut Vec<String>,
) {
    let head = Arc::clone(store.pin().ctx().graph());
    let fresh = EngineCtx::with_default_oracle(head);
    for question in 0..pool.len() {
        let op = Op::answ(question);
        let reference = direct_answer(&fresh, pool, op);
        let (_, served) = call_direct(service, pool, op);
        let served = served.report().map(|r| r.fingerprint());
        if served.as_deref() != Some(reference.fingerprint().as_str()) {
            violations.push(format!(
                "live_mixed question {question}: served answer at the final epoch differs from a fresh build"
            ));
        }
    }
}

pub fn run(args: &RunArgs) -> RunResult {
    let scale = &args.scale;
    let rounds_n = scale.units(scale.live_rounds_per_s, args.seconds);
    if args.trace {
        return run_traced(args, rounds_n);
    }
    let mut clock = SetupClock::new(args.started);
    let mut quality = Quality::default();
    let p = clock.repeat(scale.setup_repeats, || prepare(scale, &mut quality));
    let rounds = plan(
        &p.graph,
        p.pool.len(),
        rounds_n,
        LIVE_READS_PER_ROUND,
        args.seed,
    );
    let service = service_over(&p.store);
    // Warm-up: every question once, so the timed reads start on the full
    // cache a long-running service would have.
    for question in 0..p.pool.len() {
        call_direct(&service, &p.pool, Op::answ(question));
    }
    let first_timed_op = Instant::now();
    let outcome = run_sequence(&p.store, &service, &p.pool, &rounds, None, None);

    let mut result = RunResult::default();
    final_epoch_parity(&p.store, &service, &p.pool, &mut result.violations);
    if !scale.smoke {
        for tier in [
            OracleTier::RepairedPll,
            OracleTier::Overlay,
            OracleTier::RebuiltPll,
        ] {
            // The unit test pins ten of each at the default length; a run
            // of another length only has to reach each tier.
            let wanted = if args.is_baseline_shape() { 10 } else { 1 };
            if outcome.tier_count(tier) < wanted {
                result.violations.push(format!(
                    "live_mixed reached tier {} only {} times",
                    tier.name(),
                    outcome.tier_count(tier)
                ));
            }
        }
    }
    let digest = outcome.reads.digest.hex();
    check_digest(args, "live_mixed", &digest, &mut result.violations);
    let counters = service.stats().counters;
    eprintln!(
        "live_mixed: {} reads ({} cache hits, {} evictions), {} publishes (mean {:.2} ms; repaired {}, overlay {}, rebuilt {}), wall {:.2} s",
        outcome.reads.attempted(),
        outcome.reads.cache_hits,
        counters.answer_cache_evictions,
        outcome.publishes.len(),
        outcome.publish_mean_ms(),
        outcome.tier_count(OracleTier::RepairedPll),
        outcome.tier_count(OracleTier::Overlay),
        outcome.tier_count(OracleTier::RebuiltPll),
        outcome.timed_wall_s,
    );
    // A block of six rounds visits every tier the same number of times,
    // so blocks are equal units of work.
    let block_rates: Vec<f64> = outcome
        .round_s
        .chunks_exact(BLOCK)
        .map(|block| (BLOCK * LIVE_READS_PER_ROUND) as f64 / block.iter().sum::<f64>())
        .collect();
    result.metrics = end_to_end(
        &outcome.reads.pooled(),
        &block_rates,
        clock.setup_s(first_timed_op),
        clock.index_build_s(),
        &quality,
    );
    result.attempted = outcome.reads.attempted() + rounds.len() as u64;
    result.failed = outcome.reads.failed + outcome.failed_publishes;
    result.answers_digest = Some(digest);
    result
}

fn run_traced(args: &RunArgs, rounds_n: usize) -> RunResult {
    let scale = &args.scale;
    // Each of the two replays runs half the rounds, on its own store: a
    // publish cannot be taken back.
    let rounds_n = (rounds_n / 2).max(KIND_CYCLE.len().min(rounds_n));
    let (p, _) = prepare(scale, &mut Quality::default());
    let rounds = plan(
        &p.graph,
        p.pool.len(),
        rounds_n,
        LIVE_READS_PER_ROUND,
        args.seed,
    );
    let ops: Vec<Op> = (0..p.pool.len()).map(Op::answ).collect();
    let bodies: Vec<String> = ops
        .iter()
        .map(|&op| body_of(&p.graph, &p.pool, op, false))
        .collect();

    let replay_once = |tracer: Option<&mut Tracer>| {
        let store = Arc::new(GraphStore::new(Arc::clone(&p.graph)));
        let service = service_over(&store);
        for &op in &ops {
            call_direct(&service, &p.pool, op);
        }
        let outcome = run_sequence(&store, &service, &p.pool, &rounds, Some(&bodies), tracer);
        (outcome, service.stats(), layers::pin_ns(&store))
    };
    let (plain, _, _) = replay_once(None);
    let mut tracer = Tracer::default();
    let (traced, stats, pin_ns) = replay_once(Some(&mut tracer));

    let mut result = RunResult::default();
    let mut m = replay::metrics(
        &plain.reads,
        plain.timed_wall_s,
        &traced.reads,
        traced.timed_wall_s,
        (&stats).into(),
        &tracer,
    );
    m.extend(traced.layer_metrics());
    m.set("live.pin_ns", pin_ns);
    let ctx = EngineCtx::with_default_oracle(Arc::clone(&p.graph));
    let probes = layers::Inputs {
        ctx: &ctx,
        pool: &p.pool,
        ops: &ops,
        parallelism: 1,
        bfs: None,
        live: false,
        args,
    };
    m.extend(layers::probe_all(
        &probes,
        &mut tracer,
        &mut result.violations,
    ));
    write_trace(args, "live_mixed", &tracer, &mut result.violations);
    result.metrics = m;
    result.attempted = plain.reads.attempted() + traced.reads.attempted();
    result.failed =
        plain.reads.failed + traced.reads.failed + plain.failed_publishes + traced.failed_publishes;
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RUN_SECONDS;

    fn small_graph() -> Arc<Graph> {
        dbpedia_graph(Scale::smoke().dbpedia_scale)
    }

    #[test]
    fn plan_is_a_pure_function_of_the_seed() {
        let g = small_graph();
        let describe = |seed| {
            plan(&g, 12, 40, 5, seed)
                .iter()
                .map(|r| format!("{:?}{:?}", r.reads, r.batch))
                .collect::<Vec<_>>()
        };
        assert_eq!(describe(3), describe(3));
        assert_ne!(describe(3), describe(4));
        let inserts = KIND_CYCLE
            .iter()
            .filter(|k| **k == BatchKind::Insert)
            .count();
        let attrs = KIND_CYCLE
            .iter()
            .filter(|k| **k == BatchKind::SetAttr)
            .count();
        assert_eq!((inserts, attrs), (18, 8));
    }

    #[test]
    fn default_sequence_reaches_every_tier_ten_times() {
        // The real store on a small graph: tiers depend on batch kinds and
        // the store's policy, not on graph size.
        let full = Scale::full();
        let rounds_n = full.units(full.live_rounds_per_s, RUN_SECONDS);
        let g = small_graph();
        let store = Arc::new(GraphStore::new(Arc::clone(&g)));
        let service = service_over(&store);
        let rounds = plan(&g, 1, rounds_n, 0, 5);
        let outcome = run_sequence(&store, &service, &[], &rounds, None, None);
        assert_eq!(outcome.failed_publishes, 0);
        assert_eq!(outcome.publishes.len(), rounds_n);
        for tier in [
            OracleTier::RepairedPll,
            OracleTier::Overlay,
            OracleTier::RebuiltPll,
        ] {
            assert!(
                outcome.tier_count(tier) >= 10,
                "{} reached {} times in {rounds_n} rounds",
                tier.name(),
                outcome.tier_count(tier)
            );
        }
    }
}
