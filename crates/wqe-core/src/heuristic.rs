//! `AnsHeu` (§5.5): Q-Chase with breadth-first *beam* search — a faster,
//! tunable anytime variant of `AnsW` that never backtracks.
//!
//! At each level the frontier holds at most `k` query rewrites; each rewrite
//! proposes at most `k` picky operators *per operator class* (≤ 8k total);
//! the children are merged and the global top-`k` by closeness survive.
//! `AnsHeuB` replaces picky scores with pseudo-random ones (the Exp-3
//! ablation isolating the value of picky generation).

use crate::answ::{AnswerReport, RewriteResult, TracePoint};
use crate::chase::Phase;
use crate::error::WqeError;
use crate::governor::{self, Termination};
use crate::opsgen::{next_ops, ScoredOp};
use crate::session::{EvalResult, Session, WhyQuestion};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;
use wqe_pool::WorkerPool;
use wqe_query::{AtomicOp, OpClass, PatternQuery};

/// Operator-selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Selection {
    /// Rank by pickiness (the real `AnsHeu`).
    Picky,
    /// Pseudo-random ranking with the given seed (`AnsHeuB`).
    Random(u64),
}

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

struct BeamState {
    query: PatternQuery,
    ops: Vec<AtomicOp>,
    cost: f64,
    eval: EvalResult,
    phase: Phase,
}

/// A gathered-but-unevaluated beam child, shipped to the worker pool.
struct BeamCandidate {
    query: PatternQuery,
    ops: Vec<AtomicOp>,
    cost: f64,
    phase: Phase,
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

/// Runs beam-search Q-Chase. `beam` overrides the session's configured
/// width when `Some`.
///
/// # Panics
///
/// Re-raises a worker panic after containment (see [`try_ans_heu`]).
pub fn ans_heu(
    session: &Session,
    question: &WhyQuestion,
    beam: Option<usize>,
    selection: Selection,
) -> AnswerReport {
    try_ans_heu(session, question, beam, selection).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible beam-search Q-Chase: runs under the session's governor and maps
/// a contained worker panic to [`WqeError::WorkerPanicked`].
pub fn try_ans_heu(
    session: &Session,
    question: &WhyQuestion,
    beam: Option<usize>,
    selection: Selection,
) -> Result<AnswerReport, WqeError> {
    let start = Instant::now();
    let gov = Arc::clone(&session.governor);
    let steps_before = gov.steps();
    let _gov_scope = governor::enter(Arc::clone(&gov));
    let _obs_scope = session.obs_scope();
    let mut termination = Termination::Complete;
    let k = beam.unwrap_or(session.config.beam_width).max(1);
    let budget = session.config.budget;
    let mut report = AnswerReport::default();
    let mut visited: HashSet<String> = HashSet::new();
    let mut rng = match selection {
        Selection::Random(seed) => Some(XorShift::new(seed)),
        Selection::Picky => None,
    };

    let mut best: Option<RewriteResult> = None;
    let mut best_satisfying_cl = f64::NEG_INFINITY;

    let pool = WorkerPool::new(session.config.parallelism);

    let (mut root_slots, root_halt) =
        pool.map_governed(std::slice::from_ref(&question.query), &gov, |_, q| {
            session.evaluate(q)
        })?;
    let Some(root_eval) = root_slots.pop().flatten() else {
        report.termination = root_halt.unwrap_or(Termination::Cancelled);
        report.match_steps = gov.steps() - steps_before;
        report.frontier_peak = gov.frontier_peak();
        report.elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
        report.profile = Some(session.query_profile(
            report.termination,
            report.elapsed_ms,
            report.expansions as u64,
            report.match_steps,
            report.frontier_peak as u64,
        ));
        return Ok(report);
    };
    if let Some(t) = gov.charge_steps(root_eval.outcome.steps as u64) {
        termination = t;
    }
    report.truncated |= root_eval.outcome.truncated;
    visited.insert(question.query.signature());
    report.expansions += 1;
    consider(
        session,
        &question.query,
        &[],
        0.0,
        &root_eval,
        &start,
        &mut best,
        &mut best_satisfying_cl,
        &mut report,
    );

    let mut frontier = vec![BeamState {
        query: question.query.clone(),
        ops: Vec::new(),
        cost: 0.0,
        eval: root_eval,
        phase: Phase::Relax,
    }];

    let time_ok = |start: &Instant| -> bool {
        session
            .config
            .time_limit_ms
            .is_none_or(|ms| start.elapsed().as_millis() < ms as u128)
    };

    while !frontier.is_empty() {
        if termination.is_partial() {
            break;
        }
        if let Some(t) = gov.check() {
            termination = t;
            break;
        }
        if !time_ok(&start) {
            termination = Termination::Deadline;
            break;
        }
        if report.expansions >= session.config.max_expansions {
            termination = Termination::StepCap;
            break;
        }
        if best_satisfying_cl >= session.cl_star - 1e-12 {
            break;
        }
        // ---- Gather: propose this level's children serially. Operator
        // generation prunes against the closeness threshold *frozen at level
        // start*, so the gathered set is a pure function of the frontier and
        // never depends on evaluation interleaving (thread count).
        let level_cl = best_satisfying_cl;
        let chase_span = crate::obs::span(crate::obs::Stage::Chase);
        let mut cands: Vec<BeamCandidate> = Vec::new();
        'gather: for state in &frontier {
            let mut ops = next_ops(session, &state.query, &state.eval, state.phase, level_cl);
            if let Some(rng) = rng.as_mut() {
                // AnsHeuB: shuffle by random scores.
                let mut scored: Vec<(f64, ScoredOp)> =
                    ops.into_iter().map(|o| (rng.next_f64(), o)).collect();
                scored.sort_by(|a, b| b.0.total_cmp(&a.0));
                ops = scored.into_iter().map(|(_, o)| o).collect();
            }
            let ops = cap_per_class(ops, k);
            for sop in ops {
                if state.cost + sop.op.cost(session.graph()) > budget + 1e-9 {
                    continue;
                }
                // Canonicity (§4): skip ops that would relax and refine the
                // same component along one sequence.
                let mut extended = state.ops.clone();
                extended.push(sop.op.clone());
                if !wqe_query::is_canonical(&extended) {
                    continue;
                }
                let mut nq = state.query.clone();
                if sop.op.apply(&mut nq).is_err() {
                    continue;
                }
                if !visited.insert(nq.signature()) {
                    continue;
                }
                let mut nops = state.ops.clone();
                nops.push(sop.op.clone());
                let cost = state.cost + sop.op.cost(session.graph());
                let phase = match sop.op.class() {
                    OpClass::Relax => state.phase,
                    OpClass::Refine => Phase::Refine,
                };
                cands.push(BeamCandidate {
                    query: nq,
                    ops: nops,
                    cost,
                    phase,
                });
                if report.expansions + cands.len() >= session.config.max_expansions
                    || !time_ok(&start)
                {
                    break 'gather;
                }
            }
        }

        drop(chase_span);

        // Retained-state accounting: every gathered signature stays in
        // `visited` for the rest of the search, so its size is the beam
        // search's memory footprint. Gather is serial, so this trip is
        // deterministic at any thread count.
        if let Some(t) = gov.note_frontier(visited.len()) {
            termination = t;
            break;
        }

        // ---- Evaluate the whole level on the governed pool, then merge
        // the completed slots serially in gather order so `best`/trace
        // updates are deterministic. A halt leaves later slots `None`; a
        // worker panic surfaces as a typed error.
        let (evals, halted) = pool.map_governed(&cands, &gov, |_, c| session.evaluate(&c.query))?;
        let merge_span = crate::obs::span(crate::obs::Stage::Merge);
        let mut children: Vec<BeamState> = Vec::with_capacity(cands.len());
        for (cand, eval) in cands.into_iter().zip(evals) {
            let Some(eval) = eval else { continue };
            report.truncated |= eval.outcome.truncated;
            report.expansions += 1;
            let stepped = gov.charge_steps(eval.outcome.steps as u64);
            consider(
                session,
                &cand.query,
                &cand.ops,
                cand.cost,
                &eval,
                &start,
                &mut best,
                &mut best_satisfying_cl,
                &mut report,
            );
            children.push(BeamState {
                query: cand.query,
                ops: cand.ops,
                cost: cand.cost,
                eval,
                phase: cand.phase,
            });
            if let Some(t) = stepped {
                termination = t;
                break;
            }
        }
        if let Some(t) = halted {
            termination = t;
        }
        // Beam: keep the global top-k children ranked by the optimistic
        // bound cl⁺ first, closeness second, cost third. Ranking by raw
        // closeness alone (the paper's phrasing) dead-ends under the
        // normal form: a cheap refinement that shrinks the answer to the
        // few current RM nodes scores above every relax-phase child, yet
        // can never relax again. cl⁺ is exactly the closeness such a state
        // can still reach by refining (Lemma 5.5(2)), so it is the sound
        // beam objective; the anytime best is still tracked by closeness.
        children.sort_by(|a, b| {
            b.eval
                .upper_bound
                .total_cmp(&a.eval.upper_bound)
                .then(b.eval.closeness.total_cmp(&a.eval.closeness))
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
    report.termination = termination;
    report.match_steps = gov.steps() - steps_before;
    report.frontier_peak = gov.frontier_peak();
    report.elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
    report.profile = Some(session.query_profile(
        report.termination,
        report.elapsed_ms,
        report.expansions as u64,
        report.match_steps,
        report.frontier_peak as u64,
    ));
    Ok(report)
}

#[allow(clippy::too_many_arguments)]
fn consider(
    _session: &Session,
    q: &PatternQuery,
    ops: &[AtomicOp],
    cost: f64,
    eval: &EvalResult,
    start: &Instant,
    best: &mut Option<RewriteResult>,
    best_satisfying_cl: &mut f64,
    report: &mut AnswerReport,
) {
    let candidate = RewriteResult {
        query: q.clone(),
        ops: ops.to_vec(),
        cost,
        closeness: eval.closeness,
        matches: eval.outcome.matches.clone(),
        satisfies: eval.satisfies,
    };
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
    use crate::paper::paper_question;
    use crate::session::{Session, WqeConfig};
    use wqe_graph::product::product_graph;

    fn run(beam: usize, selection: Selection) -> AnswerReport {
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
        ans_heu(&session, &wq, None, selection)
    }

    #[test]
    fn beam_finds_good_rewrite() {
        let report = run(3, Selection::Picky);
        let best = report.best.expect("found");
        assert!(best.satisfies, "beam should find a satisfying rewrite");
        assert!(best.closeness >= 0.5 - 1e-9, "cl = {}", best.closeness);
    }

    #[test]
    fn wider_beam_no_worse() {
        let narrow = run(1, Selection::Picky);
        let wide = run(5, Selection::Picky);
        let cl = |r: &AnswerReport| r.best.as_ref().map(|b| b.closeness).unwrap_or(-1.0);
        assert!(cl(&wide) >= cl(&narrow) - 1e-9);
    }

    #[test]
    fn random_selection_is_deterministic_per_seed() {
        let a = run(2, Selection::Random(42));
        let b = run(2, Selection::Random(42));
        let cl = |r: &AnswerReport| r.best.as_ref().map(|x| x.closeness);
        assert_eq!(cl(&a), cl(&b));
    }

    #[test]
    fn narrower_beam_explores_less() {
        let narrow = run(1, Selection::Picky);
        let wide = run(5, Selection::Picky);
        assert!(narrow.expansions <= wide.expansions);
        // A beam of width k simulates at most 8k chase steps per level and
        // at most B levels (every operator costs >= 1), plus the root.
        let k = 1;
        let b = 4;
        assert!(narrow.expansions <= 1 + 8 * k * (b + 1) * (b + 1));
    }

    #[test]
    fn respects_budget() {
        let report = run(3, Selection::Picky);
        if let Some(b) = report.best {
            assert!(b.cost <= 4.0 + 1e-9);
        }
    }
}
