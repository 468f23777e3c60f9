//! `ApxWhyM` (§6.1, Fig. 9): fixed-parameter approximation for Why-Many
//! questions — refine `Q` to remove as many irrelevant matches as possible
//! within the budget.
//!
//! The algorithm reduces operator selection to **budgeted maximum weighted
//! coverage** (the Theorem 6.1 reduction): each seed refinement `o` covers
//! the answer elements it eliminates — irrelevant matches weigh `+λ`,
//! relevant matches `−cl(v, E)` — and the greedy ratio-selection compared
//! against the best single operator yields the `½(1 − 1/e)` guarantee
//! (Khuller–Moss–Naor). Each seed's coverage is materialized with **one**
//! evaluation; marginal gains during the greedy loop are pure set
//! arithmetic, which is what makes `ApxWhyM` markedly faster than running
//! the general `AnsW` search (Fig. 12(a)).

use crate::answ::{AnswerReport, RewriteResult};
use crate::opsgen::{generate_refinements, op_key, rank, ScoredOp};
use crate::session::{Session, WhyQuestion};
use std::collections::HashSet;
use wqe_graph::NodeId;
use wqe_pool::WorkerPool;
use wqe_query::{AtomicOp, PatternQuery};

/// Maximum number of seed operators retained from `SeedRf` (bounds the
/// `O(|seeds|)` coverage evaluations).
const MAX_SEEDS: usize = 48;

/// One seed with its materialized coverage.
struct Seed {
    op: AtomicOp,
    cost: f64,
    /// Answer elements removed by applying the op alone (sorted: weight
    /// sums must run in a fixed order, or float ties break unpredictably).
    covers: Vec<NodeId>,
}

/// Element weight in the coverage instance: removing an irrelevant match
/// gains `λ`, removing a relevant match loses its closeness.
fn element_weight(session: &Session, v: NodeId) -> f64 {
    if session.rep.contains(v) {
        -session.rep.cl(v)
    } else {
        session.config.closeness.lambda
    }
}

/// `ApxWhyM`, driven by [`Session::run`]. The rewrite contains
/// **refinement operators only**.
pub(crate) fn search(session: &Session, question: &WhyQuestion) -> AnswerReport {
    let mut report = AnswerReport::default();
    let budget = session.config.budget;

    // Line 1: Q(G) and the irrelevant set.
    let base = session.evaluate(&question.query);
    report.count(&base);
    let base_matches: HashSet<NodeId> = base.outcome.matches.iter().copied().collect();

    // Line 2 (SeedRf): picky refinement seeds, each materialized once.
    // Generation iterates hash maps, so impose the pickiness order (ties on
    // the op key) before truncating — otherwise both the retained seed set
    // and every downstream tie-break would vary run to run.
    let mut scored: Vec<(String, ScoredOp)> = generate_refinements(session, &question.query, &base)
        .into_iter()
        .map(|s| (op_key(&s.op), s))
        .collect();
    rank(&mut scored, |s| s.pickiness);
    scored.truncate(MAX_SEEDS);
    // Seeds are applied and filtered here, evaluated on `parallelism`
    // workers, and merged in seed order, so coverage does not depend on
    // the worker count.
    let applied: Vec<(AtomicOp, f64, PatternQuery)> = scored
        .into_iter()
        .filter_map(|(_, s)| {
            let cost = s.op.cost(session.graph());
            if cost > budget + 1e-9 {
                return None;
            }
            let mut q = question.query.clone();
            s.op.apply(&mut q).ok()?;
            Some((s.op, cost, q))
        })
        .collect();
    let evals = WorkerPool::new(session.config.parallelism)
        .map(&applied, |_, (_, _, q)| session.evaluate(q));
    let mut seeds: Vec<Seed> = Vec::with_capacity(applied.len());
    for ((op, cost, _), eval) in applied.into_iter().zip(evals) {
        report.count(&eval);
        let after: HashSet<NodeId> = eval.outcome.matches.iter().copied().collect();
        let mut covers: Vec<NodeId> = base_matches.difference(&after).copied().collect();
        covers.sort_unstable();
        if covers.is_empty() {
            continue;
        }
        seeds.push(Seed { op, cost, covers });
    }

    let set_weight =
        |covered: &[NodeId]| -> f64 { covered.iter().map(|&v| element_weight(session, v)).sum() };

    // Line 3: O2 = the single best operator.
    let o2: Option<&Seed> = seeds
        .iter()
        .filter(|s| set_weight(&s.covers) > 0.0)
        .max_by(|a, b| set_weight(&a.covers).total_cmp(&set_weight(&b.covers)));
    let o2_ops: Vec<AtomicOp> = o2.map(|s| vec![s.op.clone()]).unwrap_or_default();

    // Lines 4-8: greedy ratio selection on the coverage instance — pure
    // set arithmetic, no re-evaluation.
    let mut o1: Vec<AtomicOp> = Vec::new();
    let mut o1_cost = 0.0;
    let mut covered: HashSet<NodeId> = HashSet::new();
    let mut pool: Vec<usize> = (0..seeds.len()).collect();
    while !pool.is_empty() && o1_cost < budget {
        let mut best: Option<(usize, f64)> = None; // (pool idx, ratio)
        for (pi, &si) in pool.iter().enumerate() {
            let s = &seeds[si];
            let marginal: f64 = s
                .covers
                .iter()
                .filter(|v| !covered.contains(v))
                .map(|&v| element_weight(session, v))
                .sum();
            let ratio = marginal / s.cost;
            if best.is_none_or(|(_, br)| ratio > br) {
                best = Some((pi, ratio));
            }
        }
        let Some((pi, ratio)) = best else { break };
        let si = pool.swap_remove(pi);
        if ratio <= 0.0 {
            break; // nothing positive left
        }
        let s = &seeds[si];
        if o1_cost + s.cost <= budget + 1e-9 {
            o1.push(s.op.clone());
            o1_cost += s.cost;
            covered.extend(s.covers.iter().copied());
        }
    }

    // Lines 9-11: evaluate the two candidates exactly, return the better.
    let finish = |ops: &[AtomicOp], report: &mut AnswerReport| -> Option<RewriteResult> {
        if ops.is_empty() {
            return None;
        }
        let mut q = question.query.clone();
        for op in ops {
            op.apply(&mut q).ok()?;
        }
        let eval = session.evaluate(&q);
        report.count(&eval);
        Some(RewriteResult {
            cost: wqe_query::sequence_cost(ops, session.graph()),
            query: q,
            ops: ops.to_vec(),
            closeness: eval.closeness,
            matches: eval.outcome.matches,
            satisfies: eval.satisfies,
        })
    };
    let cand1 = finish(&o1, &mut report);
    let cand2 = finish(&o2_ops, &mut report);
    let mut best = RewriteResult {
        query: question.query.clone(),
        ops: Vec::new(),
        cost: 0.0,
        closeness: base.closeness,
        matches: base.outcome.matches.clone(),
        satisfies: base.satisfies,
    };
    for cand in [cand1, cand2].into_iter().flatten() {
        if cand.closeness > best.closeness {
            best = cand;
        }
    }
    report.best = Some(best);
    report
}

/// The set of irrelevant matches a Why-Many rewrite eliminated (for
/// reporting): `IM(Q) \ IM(Q')`.
pub fn eliminated_irrelevant(
    session: &Session,
    question: &WhyQuestion,
    result: &RewriteResult,
) -> Vec<NodeId> {
    let base = session.evaluate(&question.query);
    let after: HashSet<NodeId> = result.matches.iter().copied().collect();
    base.relevance
        .im
        .iter()
        .copied()
        .filter(|v| !after.contains(v))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Algorithm;
    use crate::paper::{paper_exemplar, paper_query};
    use crate::session::{Session, WqeConfig};
    use wqe_graph::product::product_graph;
    use wqe_query::OpClass;

    /// A Why-Many setup: relax the paper query's price so it returns many
    /// matches including irrelevant ones, then ask to refine.
    fn why_many_question(g: &wqe_graph::Graph) -> WhyQuestion {
        let mut q = paper_query(g);
        let s = g.schema();
        let price = s.attr_id("Price").unwrap();
        // Loosen the price literal so P1..P5 (minus sensor-less P3) match.
        let old = wqe_query::Literal::new(price, wqe_graph::CmpOp::Ge, 840);
        let new = wqe_query::Literal::new(price, wqe_graph::CmpOp::Ge, 750);
        q.replace_literal(q.focus(), &old, new).unwrap();
        WhyQuestion {
            query: q,
            exemplar: paper_exemplar(g),
        }
    }

    #[test]
    fn removes_irrelevant_matches() {
        let pg = product_graph();
        let g = &pg.graph;
        let ctx = crate::ctx::EngineCtx::with_default_oracle(std::sync::Arc::new(g.clone()));
        let wq = why_many_question(g);
        let session = Session::new(
            ctx.clone(),
            &wq,
            WqeConfig {
                budget: 3.0,
                ..Default::default()
            },
        );
        let base = session.evaluate(&wq.query);
        assert!(
            !base.relevance.im.is_empty(),
            "setup has irrelevant matches"
        );
        let report = session.run(Algorithm::WhyMany, &wq).unwrap();
        let best = report.best.expect("result");
        // Refinement-only rewrite.
        assert!(best.ops.iter().all(|o| o.class() == OpClass::Refine));
        assert!(best.cost <= 3.0 + 1e-9);
        // Closeness must improve over the original.
        assert!(
            best.closeness >= base.closeness,
            "{} >= {}",
            best.closeness,
            base.closeness
        );
        let eliminated = eliminated_irrelevant(&session, &wq, &best);
        assert!(!eliminated.is_empty(), "some IM removed");
    }

    #[test]
    fn noop_when_no_irrelevant_matches() {
        let pg = product_graph();
        let g = &pg.graph;
        let ctx = crate::ctx::EngineCtx::with_default_oracle(std::sync::Arc::new(g.clone()));
        // The optimal rewrite Q' has IM = ∅ — nothing to refine.
        let mut q = paper_query(g);
        for op in crate::paper::paper_optimal_ops(g) {
            op.apply(&mut q).unwrap();
        }
        let wq = WhyQuestion {
            query: q,
            exemplar: paper_exemplar(g),
        };
        let session = Session::new(ctx.clone(), &wq, WqeConfig::default());
        let report = session.run(Algorithm::WhyMany, &wq).unwrap();
        let best = report.best.unwrap();
        assert!(best.ops.is_empty(), "no refinement needed");
    }

    #[test]
    fn evaluation_count_is_linear_in_seeds() {
        // The coverage greedy must not re-evaluate unions: expansions are
        // bounded by 1 (base) + |seeds| + 2 (final candidates).
        let pg = product_graph();
        let g = &pg.graph;
        let ctx = crate::ctx::EngineCtx::with_default_oracle(std::sync::Arc::new(g.clone()));
        let wq = why_many_question(g);
        let session = Session::new(
            ctx.clone(),
            &wq,
            WqeConfig {
                budget: 3.0,
                ..Default::default()
            },
        );
        let report = session.run(Algorithm::WhyMany, &wq).unwrap();
        assert!(
            report.expansions <= 1 + MAX_SEEDS + 2,
            "expansions {} exceed linear bound",
            report.expansions
        );
    }
}
