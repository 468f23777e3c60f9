//! `AnsHeu` (§5.5): Q-Chase with breadth-first *beam* search — a faster,
//! tunable anytime variant of `AnsW` that never backtracks.
//!
//! At each level the frontier holds at most `k` query rewrites; each rewrite
//! proposes at most `k` picky operators *per operator class* (≤ 8k total);
//! the children are merged and the global top-`k` by closeness survive.
//! `AnsHeuB` replaces picky scores with pseudo-random ones (the Exp-3
//! ablation isolating the value of picky generation).

use crate::answ::{AnswerReport, RewriteResult, TracePoint};
use crate::chase::{Chase, Rewrite};
use crate::error::WqeError;
use crate::opsgen::{next_ops, ScoredOp};
use crate::session::{EvalResult, Session, WhyQuestion};
use std::time::Instant;
use wqe_query::AtomicOp;

/// A tiny deterministic xorshift generator — enough to randomize operator
/// order without pulling a dependency into the core crate.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed.max(1))
    }
    fn next_f64(&mut self) -> f64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        (x >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The class bucket an operator falls into (Table 1's eight classes).
fn class_bucket(op: &AtomicOp) -> usize {
    match op {
        AtomicOp::RmL { .. } => 0,
        AtomicOp::RmE { .. } => 1,
        AtomicOp::RxL { .. } => 2,
        AtomicOp::RxE { .. } => 3,
        AtomicOp::AddL { .. } => 4,
        AtomicOp::AddE { .. } | AtomicOp::AddNodeEdge { .. } => 5,
        AtomicOp::RfL { .. } => 6,
        AtomicOp::RfE { .. } => 7,
    }
}

/// Keeps at most `k` operators per class, preserving order.
fn cap_per_class(ops: Vec<ScoredOp>, k: usize) -> Vec<ScoredOp> {
    let mut counts = [0usize; 8];
    ops.into_iter()
        .filter(|s| {
            let b = class_bucket(&s.op);
            counts[b] += 1;
            counts[b] <= k
        })
        .collect()
}

/// Beam-search Q-Chase, driven by [`Session::run`]: picky operator
/// selection, or pseudo-random selection seeded by `seed` (`AnsHeuB`). The
/// beam width is [`WqeConfig::beam_width`](crate::session::WqeConfig::beam_width).
pub(crate) fn search(
    session: &Session,
    question: &WhyQuestion,
    start: Instant,
    seed: Option<u64>,
) -> Result<AnswerReport, WqeError> {
    let k = session.config.beam_width.max(1);
    let mut report = AnswerReport::default();
    let mut chase = Chase::new(session, start);
    let mut rng = seed.map(XorShift::new);

    let mut best: Option<RewriteResult> = None;
    let mut best_satisfying_cl = f64::NEG_INFINITY;

    let Some((root, root_eval)) = chase.root(question, &mut report)? else {
        return Ok(report);
    };
    consider(
        &root,
        &root_eval,
        start,
        &mut best,
        &mut best_satisfying_cl,
        &mut report,
    );
    let mut frontier = vec![(root, root_eval)];

    while !frontier.is_empty() {
        if chase.stop(&mut report, best_satisfying_cl) {
            break;
        }
        // ---- Gather: propose this level's children serially. Operator
        // generation prunes against the closeness threshold *frozen at level
        // start*, so the gathered set is a pure function of the frontier and
        // never depends on evaluation interleaving (thread count).
        let level_cl = best_satisfying_cl;
        let chase_span = crate::obs::span(crate::obs::Stage::Chase);
        let mut cands: Vec<Rewrite> = Vec::new();
        'gather: for (state, eval) in &frontier {
            let mut ops = next_ops(session, &state.query, eval, state.phase, level_cl);
            if let Some(rng) = rng.as_mut() {
                // AnsHeuB: shuffle by random scores.
                let mut scored: Vec<(f64, ScoredOp)> =
                    ops.into_iter().map(|o| (rng.next_f64(), o)).collect();
                scored.sort_by(|a, b| b.0.total_cmp(&a.0));
                ops = scored.into_iter().map(|(_, o)| o).collect();
            }
            for sop in cap_per_class(ops, k) {
                let Some(child) = chase.child(state, &sop.op) else {
                    continue;
                };
                cands.push(child);
                if report.expansions + cands.len() >= session.config.max_expansions
                    || !chase.time_ok()
                {
                    break 'gather;
                }
            }
        }

        drop(chase_span);

        // Retained-state accounting: every gathered signature stays in the
        // visited set for the rest of the search, so its size is the beam
        // search's memory footprint. Gather is serial, so this trip is
        // deterministic at any thread count.
        if let Some(t) = session.governor.note_frontier(chase.visited()) {
            report.termination = t;
            break;
        }

        // ---- Evaluate the whole level on the governed pool, then merge
        // the completed slots serially in gather order so `best`/trace
        // updates are deterministic.
        let (evals, halted) = chase.evaluate(&cands)?;
        let merge_span = crate::obs::span(crate::obs::Stage::Merge);
        let mut children: Vec<(Rewrite, EvalResult)> = Vec::with_capacity(cands.len());
        for (cand, eval) in cands.into_iter().zip(evals) {
            let Some(eval) = eval else { continue };
            let within_cap = chase.commit(&eval, &mut report);
            consider(
                &cand,
                &eval,
                start,
                &mut best,
                &mut best_satisfying_cl,
                &mut report,
            );
            children.push((cand, eval));
            if !within_cap {
                break;
            }
        }
        if let Some(t) = halted {
            report.termination = t;
        }
        // Beam: keep the global top-k children ranked by the optimistic
        // bound cl⁺ first, closeness second, cost third. Ranking by raw
        // closeness alone (the paper's phrasing) dead-ends under the
        // normal form: a cheap refinement that shrinks the answer to the
        // few current RM nodes scores above every relax-phase child, yet
        // can never relax again. cl⁺ is exactly the closeness such a state
        // can still reach by refining (Lemma 5.5(2)), so it is the sound
        // beam objective; the anytime best is still tracked by closeness.
        children.sort_by(|(a, ea), (b, eb)| {
            eb.upper_bound
                .total_cmp(&ea.upper_bound)
                .then(eb.closeness.total_cmp(&ea.closeness))
                .then(a.cost.total_cmp(&b.cost))
        });
        children.truncate(k);
        frontier = children;
        drop(merge_span);
    }

    report.optimal_reached = best_satisfying_cl >= session.cl_star - 1e-12;
    if let Some(b) = &best {
        if b.satisfies {
            report.top_k = vec![b.clone()];
        }
    }
    report.best = best;
    Ok(report)
}

fn consider(
    rewrite: &Rewrite,
    eval: &EvalResult,
    start: Instant,
    best: &mut Option<RewriteResult>,
    best_satisfying_cl: &mut f64,
    report: &mut AnswerReport,
) {
    let candidate = rewrite.result(eval);
    let better = match best.as_ref() {
        None => true,
        Some(b) => {
            // Prefer satisfying rewrites; among equals, higher closeness.
            (candidate.satisfies && !b.satisfies)
                || (candidate.satisfies == b.satisfies && candidate.closeness > b.closeness)
        }
    };
    if better {
        *best = Some(candidate);
        if eval.satisfies && eval.closeness > *best_satisfying_cl {
            *best_satisfying_cl = eval.closeness;
            report.trace.push(TracePoint {
                elapsed_us: start.elapsed().as_micros() as u64,
                closeness: eval.closeness,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Algorithm;
    use crate::paper::paper_question;
    use crate::session::{Session, WqeConfig};
    use wqe_graph::product::product_graph;

    fn run(beam: usize, algorithm: Algorithm) -> AnswerReport {
        let pg = product_graph();
        let g = &pg.graph;
        let ctx = crate::ctx::EngineCtx::with_default_oracle(std::sync::Arc::new(g.clone()));
        let wq = paper_question(g);
        let session = Session::new(
            ctx.clone(),
            &wq,
            WqeConfig {
                budget: 4.0,
                beam_width: beam,
                ..WqeConfig::default()
            },
        );
        session.run(algorithm, &wq).unwrap()
    }

    #[test]
    fn beam_finds_good_rewrite() {
        let report = run(3, Algorithm::AnsHeu);
        let best = report.best.expect("found");
        assert!(best.satisfies, "beam should find a satisfying rewrite");
        assert!(best.closeness >= 0.5 - 1e-9, "cl = {}", best.closeness);
    }

    #[test]
    fn wider_beam_no_worse() {
        let narrow = run(1, Algorithm::AnsHeu);
        let wide = run(5, Algorithm::AnsHeu);
        let cl = |r: &AnswerReport| r.best.as_ref().map(|b| b.closeness).unwrap_or(-1.0);
        assert!(cl(&wide) >= cl(&narrow) - 1e-9);
    }

    #[test]
    fn random_selection_is_deterministic_per_seed() {
        let a = run(2, Algorithm::AnsHeuB(42));
        let b = run(2, Algorithm::AnsHeuB(42));
        let cl = |r: &AnswerReport| r.best.as_ref().map(|x| x.closeness);
        assert_eq!(cl(&a), cl(&b));
    }

    #[test]
    fn narrower_beam_explores_less() {
        let narrow = run(1, Algorithm::AnsHeu);
        let wide = run(5, Algorithm::AnsHeu);
        assert!(narrow.expansions <= wide.expansions);
        // A beam of width k simulates at most 8k chase steps per level and
        // at most B levels (every operator costs >= 1), plus the root.
        let k = 1;
        let b = 4;
        assert!(narrow.expansions <= 1 + 8 * k * (b + 1) * (b + 1));
    }

    #[test]
    fn respects_budget() {
        let report = run(3, Algorithm::AnsHeu);
        if let Some(b) = report.best {
            assert!(b.cost <= 4.0 + 1e-9);
        }
    }
}
