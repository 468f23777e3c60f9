//! Datasets and question pools. Everything is generated from
//! [`DATASET_SEED`]; the run's `--seed` only chooses among and orders what
//! is made here.

use crate::config::{engine_config, DATASET_SEED};
use crate::harness::median;
use crate::spec_render;
use std::collections::BTreeMap;
use std::sync::Arc;
use wqe_core::{relative_closeness, Algorithm, AnswerReport, EngineCtx, WqeEngine, WqeError};
use wqe_datagen::{
    generate_query, generate_why, generate_why_empty, generate_why_many, GeneratedWhy,
    QueryGenConfig, TopologyKind, WhyGenConfig,
};
use wqe_graph::Graph;
use wqe_query::Matcher;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Why,
    WhyMany,
    WhyEmpty,
}

/// One generated question with its hidden ground truth.
pub struct PoolQuestion {
    pub kind: Kind,
    pub why: GeneratedWhy,
}

/// One operation of a workload: a pool question under an algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub question: usize,
    pub algo: Algorithm,
}

impl Op {
    /// A question under the default algorithm, `answ`.
    pub fn answ(question: usize) -> Op {
        Op {
            question,
            algo: Algorithm::AnsW,
        }
    }
}

pub fn imdb_graph(scale: f64) -> Arc<Graph> {
    Arc::new(wqe_datagen::imdb_like(scale, DATASET_SEED))
}

pub fn dbpedia_graph(scale: f64) -> Arc<Graph> {
    Arc::new(wqe_datagen::dbpedia_like(scale, DATASET_SEED))
}

/// Generates `counts` = [Why, Why-Many, Why-Empty] questions on the
/// context's graph: 2–4 pattern edges with star, tree and cyclic shapes
/// rotating. Questions that the spec format cannot carry unchanged are
/// skipped, so every pool can also be served over the wire. Ground-truth
/// queries whose own evaluation takes more than `truth_step_limit` matcher
/// steps are not turned into questions: one such question costs seconds
/// and would be most of a run.
///
/// Panics when the graph cannot supply the pool: a short pool would make
/// the workload a different workload.
pub fn question_pool(
    ctx: &EngineCtx,
    counts: [usize; 3],
    truth_step_limit: usize,
) -> Vec<PoolQuestion> {
    const SHAPES: [TopologyKind; 3] =
        [TopologyKind::Star, TopologyKind::Tree, TopologyKind::Cyclic];
    let graph = ctx.graph();
    let oracle = ctx.oracle();
    let matcher = Matcher::new(Arc::clone(graph), Arc::clone(oracle));
    let kinds = [Kind::Why, Kind::WhyMany, Kind::WhyEmpty];
    let mut pool = Vec::new();
    for (kind, wanted) in kinds.into_iter().zip(counts) {
        let mut made = 0;
        let mut attempt = 0u64;
        while made < wanted {
            attempt += 1;
            assert!(
                attempt <= 400 * wanted as u64 + 400,
                "cannot generate {wanted} {kind:?} questions on this graph"
            );
            let seed = DATASET_SEED
                .wrapping_mul(kind as u64 + 1)
                .wrapping_add(attempt);
            let qcfg = QueryGenConfig {
                edges: 2 + (attempt % 3) as usize,
                topology: SHAPES[(attempt % 3) as usize],
                seed,
                ..Default::default()
            };
            let Some(truth) = generate_query(graph, &qcfg) else {
                continue;
            };
            if matcher.evaluate(&truth.query).steps > truth_step_limit {
                continue;
            }
            let wcfg = WhyGenConfig {
                seed: seed.wrapping_mul(31),
                ..Default::default()
            };
            let generated = match kind {
                Kind::Why => generate_why(graph, oracle, &truth, &wcfg),
                Kind::WhyMany => generate_why_many(graph, oracle, &truth, &wcfg),
                Kind::WhyEmpty => generate_why_empty(graph, oracle, &truth, &wcfg),
            };
            let Some(why) = generated else {
                continue;
            };
            if !spec_render::round_trips(graph, &why.question) {
                continue;
            }
            pool.push(PoolQuestion { kind, why });
            made += 1;
        }
    }
    pool
}

/// The `search_cold` op list: each Why question under `answ` and `heu`,
/// Why-Many under `whymany`, Why-Empty under `whyempty`.
pub fn mixed_ops(pool: &[PoolQuestion]) -> Vec<Op> {
    let mut ops = Vec::new();
    for (question, q) in pool.iter().enumerate() {
        let algos: &[Algorithm] = match q.kind {
            Kind::Why => &[Algorithm::AnsW, Algorithm::AnsHeu],
            Kind::WhyMany => &[Algorithm::WhyMany],
            Kind::WhyEmpty => &[Algorithm::WhyEmpty],
        };
        ops.extend(algos.iter().map(|&algo| Op { question, algo }));
    }
    ops
}

/// Answers one op directly on the engine, bypassing service, cache and
/// wire.
pub fn try_direct_answer(
    ctx: &EngineCtx,
    pool: &[PoolQuestion],
    op: Op,
) -> Result<AnswerReport, WqeError> {
    let config = op.algo.apply_to(engine_config(1));
    WqeEngine::try_new(ctx.clone(), pool[op.question].why.question.clone(), config)?
        .try_run(op.algo)
}

/// [`try_direct_answer`] as the reference every served answer is compared
/// with: a reference that cannot be computed is a broken benchmark.
pub fn direct_answer(ctx: &EngineCtx, pool: &[PoolQuestion], op: Op) -> AnswerReport {
    try_direct_answer(ctx, pool, op)
        .unwrap_or_else(|e| panic!("reference run of {op:?} failed: {e}"))
}

/// What the answers say about quality, over a set of reports: the anytime
/// convergence of the `answ` runs and the closeness to the hidden truth.
/// An op observed several times counts once, at its median.
#[derive(Debug, Default)]
pub struct Quality {
    t90_ms: BTreeMap<(usize, &'static str), Vec<f64>>,
    delta: BTreeMap<(usize, &'static str), f64>,
}

impl Quality {
    pub fn observe(&mut self, pool: &[PoolQuestion], op: Op, report: &AnswerReport) {
        let key = (op.question, op.algo.as_str());
        if let Some(best) = &report.best {
            let truth = &pool[op.question].why.truth_answers;
            self.delta
                .insert(key, relative_closeness(&best.matches, truth));
        }
        if op.algo != Algorithm::AnsW {
            return;
        }
        // Time until the best-so-far closeness first reached 90% of the
        // final one (paper Exp-3).
        let Some(last) = report.trace.last() else {
            return;
        };
        let reached = report
            .trace
            .iter()
            .find(|p| p.closeness >= 0.9 * last.closeness)
            .unwrap_or(last);
        self.t90_ms
            .entry(key)
            .or_default()
            .push(reached.elapsed_us as f64 / 1e3);
    }

    pub fn anytime_t90_ms(&self) -> f64 {
        let per_op: Vec<f64> = self.t90_ms.values().map(|ms| median(ms)).collect();
        median(&per_op)
    }

    pub fn answer_delta_mean(&self) -> f64 {
        self.delta.values().sum::<f64>() / self.delta.len().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Scale, TRUTH_STEP_LIMIT};

    #[test]
    fn pools_are_reproducible_and_complete() {
        let scale = Scale::smoke();
        let ctx = EngineCtx::with_default_oracle(dbpedia_graph(scale.dbpedia_scale));
        let a = question_pool(&ctx, [4, 2, 2], TRUTH_STEP_LIMIT);
        let b = question_pool(&ctx, [4, 2, 2], TRUTH_STEP_LIMIT);
        assert_eq!(a.len(), 8);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.why.question.query, y.why.question.query);
            assert_eq!(x.why.question.exemplar, y.why.question.exemplar);
            assert!(spec_render::round_trips(ctx.graph(), &x.why.question));
        }
        assert_eq!(mixed_ops(&a).len(), 4 * 2 + 2 + 2);
    }

    #[test]
    fn direct_answers_are_deterministic() {
        let scale = Scale::smoke();
        let ctx = EngineCtx::with_default_oracle(imdb_graph(scale.imdb_scale));
        let pool = question_pool(&ctx, [2, 1, 1], TRUTH_STEP_LIMIT);
        let mut quality = Quality::default();
        for op in mixed_ops(&pool) {
            let first = direct_answer(&ctx, &pool, op);
            assert_eq!(
                first.fingerprint(),
                direct_answer(&ctx, &pool, op).fingerprint()
            );
            quality.observe(&pool, op, &first);
        }
        assert!((0.0..=1.0).contains(&quality.answer_delta_mean()));
    }
}
