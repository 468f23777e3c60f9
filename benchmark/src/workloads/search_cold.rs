//! `search_cold`: every op computed from nothing.
//!
//! One in-process client sends a mix of Why (`answ` and `heu`), Why-Many
//! and Why-Empty questions on the IMDB-like graph to a `QueryService`
//! with one worker and the product's default intra-query pool
//! (`parallelism 0`). Every op of a pass is distinct, every pass gets a
//! fresh service, and the star cache is emptied before every op, so no
//! cache answers across ops: search, matcher and oracle do all the work,
//! and what an op costs does not depend on which ops ran before it.

use crate::config::{service_config, Scale, TRUTH_STEP_LIMIT};
use crate::harness::Rng;
use crate::inputs::{
    direct_answer, imdb_graph, mixed_ops, question_pool, Op, PoolQuestion, Quality,
};
use crate::replay::ServiceTotals;
use crate::run::{check_digest, end_to_end, write_trace, RunArgs, RunResult, SetupClock};
use crate::servepath::{body_of, call_direct, call_served, ReadLog};
use crate::trace::{Tracer, TracingOracle};
use crate::{layers, replay};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use wqe_core::{EngineCtx, QueryService};
use wqe_graph::Graph;
use wqe_index::DistanceOracle;
use wqe_query::StarCache;

struct Prepared {
    graph: Arc<Graph>,
    ctx: EngineCtx,
    pool: Vec<PoolQuestion>,
    ops: Vec<Op>,
}

fn prepare(scale: &Scale) -> (Prepared, f64) {
    let graph = imdb_graph(scale.imdb_scale);
    let t = Instant::now();
    let ctx = EngineCtx::with_default_oracle(Arc::clone(&graph));
    let index_build_s = t.elapsed().as_secs_f64();
    let pool = question_pool(&ctx, scale.search_pool, TRUTH_STEP_LIMIT);
    let ops = mixed_ops(&pool);
    (
        Prepared {
            graph,
            ctx,
            pool,
            ops,
        },
        index_build_s,
    )
}

/// A service over the shared index with an empty answer cache, and the
/// star cache its context shares with it: what one pass runs against.
fn cold_service(
    graph: &Arc<Graph>,
    oracle: Arc<dyn DistanceOracle>,
) -> (QueryService, Arc<StarCache>) {
    let ctx = EngineCtx::new(Arc::clone(graph), oracle);
    let stars = Arc::clone(ctx.star_cache());
    (QueryService::new(ctx, service_config(1, 0)), stars)
}

/// The op order of one pass.
fn pass_order(ops: &[Op], seed: u64, pass: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..ops.len()).collect();
    Rng::new(seed, 0xc01d + pass as u64).shuffle(&mut order);
    order
}

pub fn run(args: &RunArgs) -> RunResult {
    let scale = &args.scale;
    let passes = scale.units(scale.search_passes_per_s, args.seconds);
    if args.trace {
        return run_traced(args);
    }
    let mut clock = SetupClock::new(args.started);
    let p = clock.repeat(scale.setup_repeats, || prepare(scale));

    // A seeded tenth of the ops is answered directly on the engine first:
    // the reference for the parity check, and the warm-up.
    let mut sample: Vec<usize> = (0..p.ops.len()).collect();
    Rng::new(args.seed, 0x5a3).shuffle(&mut sample);
    sample.truncate(p.ops.len().div_ceil(10));
    let expected: HashMap<usize, String> = sample
        .into_iter()
        .map(|i| (i, direct_answer(&p.ctx, &p.pool, p.ops[i]).fingerprint()))
        .collect();

    let mut reads = ReadLog::default();
    let mut quality = Quality::default();
    let mut result = RunResult::default();
    let mut first_pass: Vec<String> = vec![String::new(); p.ops.len()];
    let mut pass_rates = Vec::new();
    let first_timed_op = Instant::now();
    for pass in 0..passes {
        let pass_started = Instant::now();
        let (service, stars) = cold_service(&p.graph, Arc::clone(p.ctx.oracle()));
        for i in pass_order(&p.ops, args.seed, pass) {
            stars.clear();
            let (latency_ms, response) = call_direct(&service, &p.pool, p.ops[i]);
            reads.record(
                i,
                latency_ms,
                &response,
                expected.get(&i).map(String::as_str),
            );
            let Some(report) = response.report() else {
                continue;
            };
            quality.observe(&p.pool, p.ops[i], report);
            let fingerprint = report.fingerprint();
            if pass == 0 {
                first_pass[i] = fingerprint;
            } else if first_pass[i] != fingerprint {
                result
                    .violations
                    .push(format!("op {i} answered differently in pass {pass}"));
            }
        }
        pass_rates.push(p.ops.len() as f64 / pass_started.elapsed().as_secs_f64());
        if service.stats().counters.answer_cache_hits != 0 {
            result
                .violations
                .push("a cold pass hit the answer cache".into());
        }
    }
    let wall_s = first_timed_op.elapsed().as_secs_f64();
    eprintln!(
        "search_cold: {} ops in {passes} pass(es), {wall_s:.2} s, {} checked against the engine directly",
        reads.attempted(),
        expected.len() * passes,
    );
    let digest = reads.digest.hex();
    check_digest(args, "search_cold", &digest, &mut result.violations);
    result.metrics = end_to_end(
        &reads.per_op(),
        &pass_rates,
        clock.setup_s(first_timed_op),
        clock.index_build_s(),
        &quality,
    );
    result.attempted = reads.attempted();
    result.failed = reads.failed;
    result.answers_digest = Some(digest);
    result
}

fn run_traced(args: &RunArgs) -> RunResult {
    let (p, _) = prepare(&args.scale);
    // Half a pass per replay: the two replays together cost one pass.
    let mut order = pass_order(&p.ops, args.seed, 0);
    order.truncate(p.ops.len().div_ceil(2));
    let bodies: Vec<String> = p
        .ops
        .iter()
        .map(|&op| body_of(&p.graph, &p.pool, op, false))
        .collect();
    let replay_once = |oracle, mut tracer: Option<&mut Tracer>| {
        let (service, stars) = cold_service(&p.graph, oracle);
        let mut log = ReadLog::default();
        let t = Instant::now();
        for &i in &order {
            stars.clear();
            let (latency_ms, response, out_len) = call_served(
                &service,
                &p.graph,
                &bodies[i],
                tracer.as_deref_mut(),
                i as u64,
            );
            log.bytes_in += bodies[i].len() as u64;
            log.bytes_out += out_len as u64;
            log.record(i, latency_ms, &response, None);
        }
        (
            log,
            t.elapsed().as_secs_f64(),
            ServiceTotals::from(&service.stats()),
        )
    };
    let (plain, plain_wall_s, _) = replay_once(Arc::clone(p.ctx.oracle()), None);
    let mut tracer = Tracer::default();
    let traced_oracle = Arc::new(TracingOracle::new(Arc::clone(p.ctx.oracle())));
    let (traced, traced_wall_s, totals) = replay_once(traced_oracle, Some(&mut tracer));

    let mut result = RunResult::default();
    if plain.digest.hex() != traced.digest.hex() {
        result
            .violations
            .push("the traced replay answered differently from the plain one".into());
    }
    let mut m = replay::metrics(
        &plain,
        plain_wall_s,
        &traced,
        traced_wall_s,
        totals,
        &tracer,
    );
    let probes = layers::Inputs {
        ctx: &p.ctx,
        pool: &p.pool,
        ops: &p.ops,
        parallelism: 0,
        bfs: None,
        live: true,
        args,
    };
    m.extend(layers::probe_all(
        &probes,
        &mut tracer,
        &mut result.violations,
    ));
    write_trace(args, "search_cold", &tracer, &mut result.violations);
    result.metrics = m;
    result.attempted = plain.attempted() + traced.attempted();
    result.failed = plain.failed + traced.failed;
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_order_is_a_seeded_permutation() {
        let ops: Vec<Op> = (0..40).map(Op::answ).collect();
        let a = pass_order(&ops, 3, 0);
        assert_eq!(a, pass_order(&ops, 3, 0));
        assert_ne!(a, pass_order(&ops, 3, 1), "passes differ");
        assert_ne!(a, pass_order(&ops, 4, 0), "seeds differ");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..40).collect::<Vec<_>>());
    }
}
