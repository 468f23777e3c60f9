//! Q-Chase (§4): chasing a query with the constraints an exemplar poses on
//! its answers.
//!
//! A Q-Chase step applies one atomic operator and re-derives the exemplar
//! bookkeeping `(T_i, C_i)` — which tuple patterns currently have
//! representatives among the answers. A sequence is *canonical* when no
//! literal/edge is both relaxed and refined, and in *normal form* when all
//! relaxations precede all refinements (Lemma 4.1 shows every canonical
//! sequence has an equivalent normal form; `wqe_query::normalize` is the
//! constructive transformation). This module provides the step/sequence
//! records used for lineage, the canonicity and normal-form checks, and
//! `search`, the one round loop `AnsW` and `AnsHeu` run.
//!
//! ## The round loop
//!
//! `search` evaluates and records the root, then repeats: the stop
//! ladder (`Chase::stop`), a `Frontier::gather` of at most
//! `max_expansions − expansions` unvisited children, one evaluation of the
//! whole batch on the governed pool, and a serial merge that commits each
//! completed evaluation in the policy's `Frontier::order`, records it and
//! offers it to `Frontier::keep`. Step and frontier caps are charged in
//! the merge and nowhere else, so their trips are a function of the
//! trajectory, never of worker scheduling. The frontier policy is the only
//! difference between the algorithms: best-first with backtracking
//! (`crate::answ::BestFirst`) or a beam without it
//! (`crate::heuristic::Beam`).

use crate::answ::{AnswerReport, RewriteResult, TracePoint};
use crate::error::WqeError;
use crate::exemplar::compute_representation;
use crate::governor::Termination;
use crate::session::{AnswerUpdate, EvalResult, Session, WhyQuestion};
use std::collections::HashSet;
use std::time::Instant;
use wqe_graph::NodeId;
use wqe_pool::WorkerPool;
use wqe_query::{is_canonical, is_normal_form, sequence_cost, AtomicOp, OpClass, PatternQuery};

/// Which phase of a normal-form sequence a state is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Only relaxations (or nothing) applied so far.
    Relax,
    /// At least one refinement applied; only refinements may follow.
    Refine,
}

/// A node of the Q-Chase tree: the rewrite `Q ⊕ O`, the operator sequence
/// `O` (canonical, in normal form), its cost and its phase.
pub(crate) struct Rewrite {
    pub(crate) query: PatternQuery,
    pub(crate) ops: Vec<AtomicOp>,
    pub(crate) cost: f64,
    pub(crate) phase: Phase,
}

impl Rewrite {
    /// The reportable form of this rewrite under its evaluation.
    pub(crate) fn result(&self, eval: &EvalResult) -> RewriteResult {
        RewriteResult {
            query: self.query.clone(),
            ops: self.ops.clone(),
            cost: self.cost,
            closeness: eval.closeness,
            matches: eval.outcome.matches.clone(),
            satisfies: eval.satisfies,
        }
    }
}

/// A frontier policy: which frontier nodes a round expands, in which order
/// their children commit, and which children stay.
pub(crate) trait Frontier {
    /// How many satisfying rewrites the search ranks: its top-k width.
    fn top_k(&self) -> usize;

    /// Draws at most `room` (≥ 1) unvisited children from the frontier.
    /// Operator generation prunes against `threshold`, the k-th best
    /// satisfying closeness at the start of the round.
    fn gather(&mut self, chase: &mut Chase<'_>, room: usize, threshold: f64) -> Vec<Rewrite>;

    /// The order in which the completed slots of `evals` commit.
    fn order(&self, batch: &[Rewrite], evals: &[Option<EvalResult>]) -> Vec<usize>;

    /// Offers a committed rewrite to the frontier, with the k-th best
    /// satisfying closeness after recording it. Returns the retained-state
    /// count the governor caps when the rewrite stays, `None` when pruned.
    fn keep(
        &mut self,
        chase: &Chase<'_>,
        rewrite: Rewrite,
        eval: EvalResult,
        threshold: f64,
    ) -> Option<usize>;
}

/// The k-th best satisfying closeness, or −∞ while fewer than `k` are known.
fn kth_best(top: &[RewriteResult], k: usize) -> f64 {
    if top.len() >= k {
        top.last().map_or(f64::NEG_INFINITY, |r| r.closeness)
    } else {
        f64::NEG_INFINITY
    }
}

/// Runs the Q-Chase search under `frontier`, driven by [`Session::run`].
pub(crate) fn search<F: Frontier>(
    session: &Session,
    question: &WhyQuestion,
    start: Instant,
    mut frontier: F,
) -> Result<AnswerReport, WqeError> {
    let k = frontier.top_k();
    let mut chase = Chase::new(session, start);
    let mut report = AnswerReport::default();
    // The highest-closeness rewrite seen: the answer when none satisfies.
    let mut fallback: Option<RewriteResult> = None;
    let Some((root, eval)) = chase.root(question, &mut report)? else {
        return Ok(report);
    };
    chase.record(&root, &eval, &mut report, &mut fallback, k);
    // The root seeds the frontier; only kept children are noted against
    // `max_frontier_states`.
    frontier.keep(&chase, root, eval, kth_best(&report.top_k, k));

    'search: while !chase.stop(&mut report) {
        let room = session.config.max_expansions - report.expansions;
        let chase_span = crate::obs::span(crate::obs::Stage::Chase);
        let batch = frontier.gather(&mut chase, room, kth_best(&report.top_k, k));
        drop(chase_span);
        if batch.is_empty() {
            break; // the frontier is exhausted
        }
        let (evals, halted) = chase.evaluate(&batch)?;
        let _merge_span = crate::obs::span(crate::obs::Stage::Merge);
        let order = frontier.order(&batch, &evals);
        let mut slots: Vec<Option<(Rewrite, EvalResult)>> = batch
            .into_iter()
            .zip(evals)
            .map(|(c, e)| e.map(|e| (c, e)))
            .collect();
        for i in order {
            let (rewrite, eval) = slots[i].take().expect("each slot committed once");
            let within_cap = chase.commit(&eval, &mut report);
            chase.record(&rewrite, &eval, &mut report, &mut fallback, k);
            if !within_cap {
                break 'search;
            }
            let threshold = kth_best(&report.top_k, k);
            let retained = frontier.keep(&chase, rewrite, eval, threshold);
            if let Some(t) = retained.and_then(|n| session.governor.note_frontier(n)) {
                report.termination = t;
                break 'search;
            }
        }
        if let Some(t) = halted {
            report.termination = t;
            break;
        }
    }

    report.optimal_reached = report
        .top_k
        .first()
        .is_some_and(|r| r.closeness >= session.cl_star - 1e-12);
    report.best = report.top_k.first().cloned().or(fallback);
    Ok(report)
}

/// The Q-Chase search state every frontier policy shares: the run's clock
/// and worker pool, the visited set, the stop ladder, the answer record and
/// the one-step child constructor.
pub(crate) struct Chase<'s> {
    session: &'s Session,
    start: Instant,
    pool: WorkerPool,
    visited: HashSet<String>,
}

impl<'s> Chase<'s> {
    /// A search over `session` whose clock started at `start`.
    fn new(session: &'s Session, start: Instant) -> Self {
        Chase {
            session,
            start,
            pool: WorkerPool::new(session.config.parallelism),
            visited: HashSet::new(),
        }
    }

    /// The session searched.
    pub(crate) fn session(&self) -> &'s Session {
        self.session
    }

    /// Rewrites generated so far — the retained-state count of a search
    /// that keeps no arena.
    pub(crate) fn visited(&self) -> usize {
        self.visited.len()
    }

    /// Evaluates `batch` on the governed pool. Results come back in batch
    /// order whatever the worker scheduling; a halt (cancel/deadline)
    /// leaves later slots `None`, a worker panic is a typed error.
    fn evaluate(
        &self,
        batch: &[Rewrite],
    ) -> Result<(Vec<Option<EvalResult>>, Option<Termination>), WqeError> {
        let session = self.session;
        Ok(self
            .pool
            .map_governed(batch, |_, r| session.evaluate(&r.query))?)
    }

    /// The root of the tree, the original query (Fig. 5 lines 2-3). It goes
    /// through the governed pool like any batch, so a panic in it is a
    /// typed error and a halt that lands first leaves no root (`None`).
    fn root(
        &mut self,
        question: &WhyQuestion,
        report: &mut AnswerReport,
    ) -> Result<Option<(Rewrite, EvalResult)>, WqeError> {
        let root = Rewrite {
            query: question.query.clone(),
            ops: Vec::new(),
            cost: 0.0,
            phase: Phase::Relax,
        };
        let (mut slots, _) = self.evaluate(std::slice::from_ref(&root))?;
        let Some(eval) = slots.pop().flatten() else {
            return Ok(None);
        };
        self.visited.insert(root.query.signature());
        self.commit(&eval, report);
        Ok(Some((root, eval)))
    }

    /// Commits one evaluation: counts it and charges its match steps. Call
    /// from serial merge code only, so step-cap trips are a function of the
    /// trajectory. `false` (with the report tagged) once the cap tripped.
    fn commit(&self, eval: &EvalResult, report: &mut AnswerReport) -> bool {
        report.count(eval);
        match self
            .session
            .governor
            .charge_steps(eval.outcome.steps as u64)
        {
            Some(t) => {
                report.termination = t;
                false
            }
            None => true,
        }
    }

    /// Records one committed rewrite. The highest-closeness rewrite seen
    /// (first seen on ties) becomes `fallback`; a satisfying one enters the
    /// `k`-best list `report.top_k`, stably, so ties keep the first seen.
    /// The visited set admits each rewrite once, so the list never holds
    /// one twice. A rise of the best satisfying closeness is a trace point
    /// and a streamed [`AnswerUpdate`]. This runs on the coordinating
    /// thread only (root and serial merge), so the update sequence — seq,
    /// closeness, cost, ops — is parallelism-invariant; `elapsed_us` is
    /// its one wall-clock field.
    fn record(
        &self,
        rewrite: &Rewrite,
        eval: &EvalResult,
        report: &mut AnswerReport,
        fallback: &mut Option<RewriteResult>,
        k: usize,
    ) {
        let result = rewrite.result(eval);
        if fallback
            .as_ref()
            .is_none_or(|b| result.closeness > b.closeness)
        {
            *fallback = Some(result.clone());
        }
        if !eval.satisfies {
            return;
        }
        let prev_best = report.top_k.first().map(|r| r.closeness);
        report.top_k.push(result);
        report
            .top_k
            .sort_by(|a, b| b.closeness.total_cmp(&a.closeness));
        report.top_k.truncate(k);
        let best = &report.top_k[0];
        if prev_best.is_none_or(|p| best.closeness > p) {
            let elapsed_us = self.start.elapsed().as_micros() as u64;
            report.trace.push(TracePoint {
                elapsed_us,
                closeness: best.closeness,
            });
            self.session.emit_progress(&AnswerUpdate {
                seq: report.trace.len() as u64 - 1,
                elapsed_us,
                closeness: best.closeness,
                cost: best.cost,
                ops: best.ops.len(),
                satisfies: best.satisfies,
            });
        }
    }

    /// The loop-head stop ladder: an already-tagged stop, a governor trip,
    /// the `time_limit_ms` clock, `max_expansions`, then the theoretical
    /// optimum — the one stop that stays [`Termination::Complete`].
    /// Returns whether to stop, with the report tagged.
    fn stop(&self, report: &mut AnswerReport) -> bool {
        if report.termination.is_partial() {
            return true;
        }
        let config = &self.session.config;
        let late = config
            .time_limit_ms
            .is_some_and(|ms| self.start.elapsed().as_millis() >= ms as u128);
        let halt = self
            .session
            .governor
            .check()
            .or_else(|| late.then_some(Termination::Deadline))
            .or_else(|| {
                (report.expansions >= config.max_expansions).then_some(Termination::StepCap)
            });
        match halt {
            Some(t) => {
                report.termination = t;
                true
            }
            None => report
                .top_k
                .first()
                .is_some_and(|r| r.closeness >= self.session.cl_star - 1e-12),
        }
    }

    /// One Q-Chase step (Fig. 5 line 8): `parent ⊕ op`, or `None` when the
    /// op overruns the budget, would relax and refine the same literal slot
    /// or edge (canonicity, §4), does not apply, or reaches a rewrite
    /// already visited. A refinement moves the child into the refine phase.
    pub(crate) fn child(&mut self, parent: &Rewrite, op: &AtomicOp) -> Option<Rewrite> {
        let cost = parent.cost + op.cost(self.session.graph());
        if cost > self.session.config.budget + 1e-9 {
            return None;
        }
        let mut ops = parent.ops.clone();
        ops.push(op.clone());
        if !is_canonical(&ops) {
            return None;
        }
        let mut query = parent.query.clone();
        op.apply(&mut query).ok()?;
        if !self.visited.insert(query.signature()) {
            return None;
        }
        let phase = match op.class() {
            OpClass::Relax => parent.phase,
            OpClass::Refine => Phase::Refine,
        };
        Some(Rewrite {
            query,
            ops,
            cost,
            phase,
        })
    }
}

/// One recorded Q-Chase step `(Q_i, E_i) --v,t,l--> (Q_{i+1}, E_{i+1})`.
#[derive(Debug, Clone)]
pub struct ChaseStep {
    /// The operator `o` applied (the paper's empty operator is represented
    /// by omitting the step).
    pub op: AtomicOp,
    /// `c(o)`.
    pub cost: f64,
    /// Focus matches gained (`v` entries added to `Q_{i+1}(G)`).
    pub added: Vec<NodeId>,
    /// Focus matches lost.
    pub removed: Vec<NodeId>,
    /// Tuple-pattern indices newly covered by the answers (`t` added to
    /// `T_{i+1}`).
    pub tuples_activated: Vec<usize>,
    /// Tuple-pattern indices that lost all their representatives.
    pub tuples_deactivated: Vec<usize>,
    /// `cl(Q_{i+1}(G), E)`.
    pub closeness_after: f64,
}

/// A replayed, fully annotated Q-Chase sequence.
#[derive(Debug, Clone, Default)]
pub struct ChaseSequence {
    /// The steps in order.
    pub steps: Vec<ChaseStep>,
}

impl ChaseSequence {
    /// Replays `ops` from `q0`, evaluating each intermediate rewrite and
    /// recording the answer/exemplar deltas. Fails (returns `None`) if some
    /// operator is inapplicable where it occurs.
    pub fn replay(session: &Session, q0: &PatternQuery, ops: &[AtomicOp]) -> Option<Self> {
        let mut q = q0.clone();
        let mut prev = session.evaluate(&q);
        let mut prev_covered = covered_tuples(session, &prev.outcome.matches);
        let mut steps = Vec::with_capacity(ops.len());
        for op in ops {
            // Cooperative governor check between step applications: a
            // cancelled or deadline-expired session stops replaying. Only
            // `halt()` is polled — the step counter belongs to the search
            // that produced the sequence, and charging replay against it
            // would make replays fail under caps the search survived.
            if session.governor.halt().is_some() {
                return None;
            }
            let cost = op.cost(session.graph());
            op.apply(&mut q).ok()?;
            let next = session.evaluate(&q);
            let next_covered = covered_tuples(session, &next.outcome.matches);
            let added: Vec<NodeId> = next
                .outcome
                .matches
                .iter()
                .copied()
                .filter(|v| !prev.outcome.is_match(*v))
                .collect();
            let removed: Vec<NodeId> = prev
                .outcome
                .matches
                .iter()
                .copied()
                .filter(|v| !next.outcome.is_match(*v))
                .collect();
            let tuples_activated = next_covered
                .iter()
                .enumerate()
                .filter(|&(i, &c)| c && !prev_covered[i])
                .map(|(i, _)| i)
                .collect();
            let tuples_deactivated = prev_covered
                .iter()
                .enumerate()
                .filter(|&(i, &c)| c && !next_covered[i])
                .map(|(i, _)| i)
                .collect();
            steps.push(ChaseStep {
                op: op.clone(),
                cost,
                added,
                removed,
                tuples_activated,
                tuples_deactivated,
                closeness_after: next.closeness,
            });
            prev = next;
            prev_covered = next_covered;
        }
        Some(ChaseSequence { steps })
    }

    /// Total sequence cost `c(ρ)`.
    pub fn cost(&self) -> f64 {
        self.steps.iter().map(|s| s.cost).sum()
    }

    /// The operators of the sequence.
    pub fn ops(&self) -> Vec<AtomicOp> {
        self.steps.iter().map(|s| s.op.clone()).collect()
    }

    /// Canonicity check (§4).
    pub fn is_canonical(&self) -> bool {
        is_canonical(&self.ops())
    }

    /// Normal-form check (§4).
    pub fn is_normal_form(&self) -> bool {
        is_normal_form(&self.ops())
    }

    /// The invariant behind the step rules of §4: relaxations never remove
    /// matches, refinements never add matches.
    pub fn respects_monotonicity(&self) -> bool {
        self.steps.iter().all(|s| match s.op.class() {
            OpClass::Relax => s.removed.is_empty(),
            OpClass::Refine => s.added.is_empty(),
        })
    }
}

/// Which tuples of the session exemplar have a representative among
/// `answers` (the `T_i` bookkeeping of a chase state).
pub fn covered_tuples(session: &Session, answers: &[NodeId]) -> Vec<bool> {
    let rep = compute_representation(
        session.graph(),
        &session.exemplar,
        answers.iter().copied(),
        session.config.closeness.theta,
    );
    rep.per_tuple.iter().map(|s| !s.is_empty()).collect()
}

/// Checks whether a terminal sequence's result answers the why-question
/// (Theorem 4.3's "if" direction): cost within budget and `Q_k(G) ⊨ E`.
pub fn is_answer(
    session: &Session,
    q0: &PatternQuery,
    ops: &[AtomicOp],
) -> Option<(PatternQuery, bool)> {
    let mut q = q0.clone();
    for op in ops {
        op.apply(&mut q).ok()?;
    }
    if sequence_cost(ops, session.graph()) > session.config.budget + 1e-9 {
        return Some((q, false));
    }
    let eval = session.evaluate(&q);
    let ok = eval.satisfies;
    Some((q, ok))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::EngineCtx;
    use crate::paper::{paper_optimal_ops, paper_question};
    use crate::session::{WhyQuestion, WqeConfig};
    use std::sync::Arc;
    use wqe_graph::product::{product_graph, ProductGraph};

    /// The Fig. 1 graph, its why-question and a session over it at `budget`.
    fn fig1(budget: f64) -> (ProductGraph, WhyQuestion, Session) {
        let pg = product_graph();
        let wq = paper_question(&pg.graph);
        let ctx = EngineCtx::with_default_oracle(Arc::new(pg.graph.clone()));
        let config = WqeConfig {
            budget,
            ..Default::default()
        };
        let session = Session::new(ctx, &wq, config);
        (pg, wq, session)
    }

    #[test]
    fn replay_paper_rewrite() {
        let (pg, wq, session) = fig1(4.0);
        // Normal form of {o1, o2, o3}: relax first (o3 RxL, o2 RmE), then
        // refine (o1 AddL).
        let ops = paper_optimal_ops(&pg.graph);
        let seq = ChaseSequence::replay(&session, &wq.query, &ops).expect("applicable");
        assert!(seq.is_canonical());
        assert!(seq.is_normal_form());
        assert!(seq.respects_monotonicity());
        // Final closeness 1/2 (Example 3.1), cost 1.33 + 1.2(RmE b=2,D... ) + 1.
        let last = seq.steps.last().unwrap();
        assert!((last.closeness_after - 0.5).abs() < 1e-9);
        // Relax steps added P3/P4; refine step removed P1/P2.
        assert!(seq.steps[2].removed.contains(&pg.phones[0]));
        assert!(seq.steps[2].removed.contains(&pg.phones[1]));
    }

    #[test]
    fn is_answer_checks_budget_and_satisfaction() {
        let (pg, wq, session) = fig1(4.0);
        let ops = paper_optimal_ops(&pg.graph);
        let (_, ok) = is_answer(&session, &wq.query, &ops).unwrap();
        assert!(ok, "Q' answers the why-question");
    }

    #[test]
    fn tuple_activation_tracked() {
        let (pg, wq, session) = fig1(WqeConfig::default().budget);
        // Relaxing price to >= 790 introduces P3 (t1 representative exists
        // already via P5? t1 needs storage > some t2 match — t2 has no match
        // in Q(G), so initially NO tuple is covered).
        let ops = &paper_optimal_ops(&pg.graph)[..1];
        let seq = ChaseSequence::replay(&session, &wq.query, ops).unwrap();
        let step = &seq.steps[0];
        // P3 and P4 prices are 790/795 but P3 lacks a sensor; P4 gains.
        assert!(step.added.contains(&pg.phones[3]));
        // t2 (index 1) becomes covered by P4's arrival.
        assert!(step.tuples_activated.contains(&1));
    }
}
