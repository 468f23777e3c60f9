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
//! records used for lineage, the validity checks behind Theorem 4.3, and
//! `Chase`, the search machinery `AnsW` and `AnsHeu` share.

use crate::answ::{AnswerReport, RewriteResult};
use crate::error::WqeError;
use crate::exemplar::compute_representation;
use crate::governor::Termination;
use crate::session::{EvalResult, Session, WhyQuestion};
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

/// The Q-Chase search state `AnsW` and `AnsHeu` share: the run's clock and
/// worker pool, the visited set, the loop-head stop ladder and the one-step
/// child constructor. The two algorithms differ only in which frontier
/// nodes they expand and which children they keep.
pub(crate) struct Chase<'s> {
    session: &'s Session,
    start: Instant,
    pool: WorkerPool,
    visited: HashSet<String>,
}

impl<'s> Chase<'s> {
    /// A search over `session` whose clock started at `start`.
    pub(crate) fn new(session: &'s Session, start: Instant) -> Self {
        Chase {
            session,
            start,
            pool: WorkerPool::new(session.config.parallelism),
            visited: HashSet::new(),
        }
    }

    /// Rewrites generated so far — the retained-state count of a search
    /// that keeps no arena.
    pub(crate) fn visited(&self) -> usize {
        self.visited.len()
    }

    /// Evaluates `batch` on the governed pool. Results come back in batch
    /// order whatever the worker scheduling; a halt (cancel/deadline)
    /// leaves later slots `None`, a worker panic is a typed error.
    pub(crate) fn evaluate(
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
    pub(crate) fn root(
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
    pub(crate) fn commit(&self, eval: &EvalResult, report: &mut AnswerReport) -> bool {
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

    /// Whether the `time_limit_ms` clock still allows work.
    pub(crate) fn time_ok(&self) -> bool {
        self.session
            .config
            .time_limit_ms
            .is_none_or(|ms| self.start.elapsed().as_millis() < ms as u128)
    }

    /// The loop-head stop ladder: an already-tagged stop, a governor trip,
    /// the clock, `max_expansions`, then the theoretical optimum — the one
    /// stop that stays [`Termination::Complete`]. Returns whether to stop,
    /// with the report tagged.
    pub(crate) fn stop(&self, report: &mut AnswerReport, best_closeness: f64) -> bool {
        if report.termination.is_partial() {
            return true;
        }
        let session = self.session;
        let halt = session
            .governor
            .check()
            .or_else(|| (!self.time_ok()).then_some(Termination::Deadline))
            .or_else(|| {
                (report.expansions >= session.config.max_expansions).then_some(Termination::StepCap)
            });
        match halt {
            Some(t) => {
                report.termination = t;
                true
            }
            None => best_closeness >= session.cl_star - 1e-12,
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
    use crate::paper::paper_question;
    use crate::session::{WhyQuestion, WqeConfig};
    use wqe_graph::product::product_graph;
    use wqe_query::{AtomicOp, Literal, QNodeId};

    #[test]
    fn replay_paper_rewrite() {
        let pg = product_graph();
        let g = &pg.graph;
        let ctx = crate::ctx::EngineCtx::with_default_oracle(std::sync::Arc::new(g.clone()));
        let wq: WhyQuestion = paper_question(g);
        let session = Session::new(
            ctx.clone(),
            &wq,
            WqeConfig {
                budget: 4.0,
                ..Default::default()
            },
        );
        let s = g.schema();
        let price = s.attr_id("Price").unwrap();
        let discount = s.attr_id("Discount").unwrap();
        let focus = wq.query.focus();
        let carrier = QNodeId(1);
        let sensor = QNodeId(2);
        // Normal form of {o1, o2, o3}: relax first (o3 RxL, o2 RmE), then
        // refine (o1 AddL).
        let ops = vec![
            AtomicOp::RxL {
                node: focus,
                old: Literal::new(price, wqe_graph::CmpOp::Ge, 840),
                new: Literal::new(price, wqe_graph::CmpOp::Ge, 790),
            },
            AtomicOp::RmE {
                from: focus,
                to: sensor,
                bound: 2,
            },
            AtomicOp::AddL {
                node: carrier,
                lit: Literal::new(discount, wqe_graph::CmpOp::Eq, 25),
            },
        ];
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
        let pg = product_graph();
        let g = &pg.graph;
        let ctx = crate::ctx::EngineCtx::with_default_oracle(std::sync::Arc::new(g.clone()));
        let wq = paper_question(g);
        let session = Session::new(
            ctx.clone(),
            &wq,
            WqeConfig {
                budget: 4.0,
                ..Default::default()
            },
        );
        let s = g.schema();
        let price = s.attr_id("Price").unwrap();
        let discount = s.attr_id("Discount").unwrap();
        let focus = wq.query.focus();
        let ops = vec![
            AtomicOp::RxL {
                node: focus,
                old: Literal::new(price, wqe_graph::CmpOp::Ge, 840),
                new: Literal::new(price, wqe_graph::CmpOp::Ge, 790),
            },
            AtomicOp::RmE {
                from: focus,
                to: QNodeId(2),
                bound: 2,
            },
            AtomicOp::AddL {
                node: QNodeId(1),
                lit: Literal::new(discount, wqe_graph::CmpOp::Eq, 25),
            },
        ];
        let (_, ok) = is_answer(&session, &wq.query, &ops).unwrap();
        assert!(ok, "Q' answers the why-question");
    }

    #[test]
    fn tuple_activation_tracked() {
        let pg = product_graph();
        let g = &pg.graph;
        let ctx = crate::ctx::EngineCtx::with_default_oracle(std::sync::Arc::new(g.clone()));
        let wq = paper_question(g);
        let session = Session::new(ctx.clone(), &wq, WqeConfig::default());
        let s = g.schema();
        let price = s.attr_id("Price").unwrap();
        let focus = wq.query.focus();
        // Relaxing price to >= 790 introduces P3 (t1 representative exists
        // already via P5? t1 needs storage > some t2 match — t2 has no match
        // in Q(G), so initially NO tuple is covered).
        let ops = vec![AtomicOp::RxL {
            node: focus,
            old: Literal::new(price, wqe_graph::CmpOp::Ge, 840),
            new: Literal::new(price, wqe_graph::CmpOp::Ge, 790),
        }];
        let seq = ChaseSequence::replay(&session, &wq.query, &ops).unwrap();
        let step = &seq.steps[0];
        // P3 and P4 prices are 790/795 but P3 lacks a sensor; P4 gains.
        assert!(step.added.contains(&pg.phones[3]));
        // t2 (index 1) becomes covered by P4's arrival.
        assert!(step.tuples_activated.contains(&1));
    }
}
