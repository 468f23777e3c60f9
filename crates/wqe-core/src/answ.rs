//! Algorithm `AnsW` (§5.1, Fig. 5): anytime best-first simulation of the
//! Q-Chase tree with backtracking, normal-form enforcement, cl⁺ pruning
//! (Lemma 5.5), and optional top-k suggestion (§6.2). This module holds
//! the report types every search returns and `BestFirst`, `AnsW`'s
//! frontier policy for the round loop in [`crate::chase`].
//!
//! Configuration reproduces the paper's ablations:
//! * `AnsW`   — caching + pruning (the default [`crate::session::WqeConfig`]);
//! * `AnsWnc` — `caching = false`;
//! * `AnsWb`  — `caching = false, pruning = false`.
//!
//! ## Batched frontier expansion
//!
//! Each round draws up to `FRONTIER_BATCH` children from the priority
//! queue, in exactly the order a serial search would pop them. Their
//! evaluations fan out over a worker pool sized by
//! [`WqeConfig::parallelism`](crate::session::WqeConfig::parallelism), and
//! the results merge back serially, stably sorted on
//! `(cost, closeness, operator-sequence key)`. The search trajectory is a
//! function of the batch width alone — the thread count never changes
//! `best`, `top_k`, or `optimal_reached`, only wall-clock.

use crate::chase::{Chase, Frontier, Phase, Rewrite};
use crate::governor::Termination;
use crate::opsgen::{next_ops, ScoredOp};
use crate::session::{EvalResult, Session};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use wqe_graph::NodeId;
use wqe_query::{AtomicOp, PatternQuery};

/// One suggested query rewrite with everything needed to present it.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct RewriteResult {
    /// The rewritten query `Q' = Q ⊕ O`.
    pub query: PatternQuery,
    /// The operator sequence `O` (normal form).
    pub ops: Vec<AtomicOp>,
    /// `c(O)`.
    pub cost: f64,
    /// `cl(Q'(G), E)`.
    pub closeness: f64,
    /// `Q'(G)`.
    pub matches: Vec<NodeId>,
    /// `Q'(G) ⊨ E`?
    pub satisfies: bool,
}

/// A point on the anytime curve: best closeness seen by `elapsed_us`.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TracePoint {
    /// Microseconds since the search started.
    pub elapsed_us: u64,
    /// Best (satisfying) closeness discovered so far.
    pub closeness: f64,
}

/// The full report of one `AnsW` run.
#[derive(Debug, Clone, Default)]
pub struct AnswerReport {
    /// The best rewrite (satisfying `E` when any exists, otherwise the
    /// highest-closeness rewrite seen).
    pub best: Option<RewriteResult>,
    /// Top-k satisfying rewrites, best first (§6.2).
    pub top_k: Vec<RewriteResult>,
    /// Anytime trace (Exp-3).
    pub trace: Vec<TracePoint>,
    /// Q-Chase steps simulated (rewrite evaluations).
    pub expansions: usize,
    /// Wall-clock milliseconds.
    pub elapsed_ms: f64,
    /// Whether the theoretically optimal closeness `cl*` was attained.
    pub optimal_reached: bool,
    /// True when any evaluation hit the matcher's step budget: closeness
    /// values may then under-count matches and the verdicts are
    /// conservative. Raise `Matcher::with_step_limit` when set.
    pub truncated: bool,
    /// Why the search stopped. Anything but [`Termination::Complete`] means
    /// `best` / `top_k` are best-so-far, not exhaustive.
    pub termination: Termination,
    /// Matcher join steps charged against the governor by this run (the
    /// quantity `max_match_steps` caps). Parallelism-invariant.
    pub match_steps: u64,
    /// Peak retained-search-state count observed by the governor (the
    /// quantity `max_frontier_states` caps).
    pub frontier_peak: usize,
    /// The per-query stage/counter breakdown (see [`crate::obs`]).
    /// [`Session::run`] sets it; `None` only on a report built by hand.
    pub profile: Option<crate::obs::QueryProfile>,
}

impl AnswerReport {
    /// Counts one rewrite evaluation: an expansion, and its truncation.
    pub(crate) fn count(&mut self, eval: &EvalResult) {
        self.expansions += 1;
        self.truncated |= eval.outcome.truncated;
    }

    /// A bit-exact fingerprint of the report's *answers*: best and top-k
    /// closeness/cost (as raw `f64` bits), operator sequences, match sets,
    /// satisfaction verdicts, and the termination reason. Two reports
    /// fingerprint equal iff a client could not tell them apart — timing,
    /// trace, and profile are deliberately excluded. This is the equality
    /// the determinism suites assert and the HTTP front-end exposes so
    /// streamed-vs-blocking parity can be checked over the wire.
    pub fn fingerprint(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        fn push(out: &mut String, r: &RewriteResult) {
            let _ = write!(
                out,
                "[{:x}/{:x}/{:?}/{:?}/{}]",
                r.closeness.to_bits(),
                r.cost.to_bits(),
                r.ops,
                r.matches,
                r.satisfies
            );
        }
        match &self.best {
            None => out.push_str("none"),
            Some(b) => push(&mut out, b),
        }
        for r in &self.top_k {
            push(&mut out, r);
        }
        out.push('|');
        out.push_str(self.termination.as_str());
        out
    }
}

/// Ordered f64 wrapper for the priority queue (total order, no panic).
#[derive(PartialEq)]
struct OrdF64(f64);
impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// A frontier node: the rewrite, its evaluation, and its operator queue
/// (generated lazily at the first visit, drawn in order).
struct State {
    rewrite: Rewrite,
    eval: EvalResult,
    op_queue: Option<Vec<ScoredOp>>,
    next_op: usize,
}

/// How many frontier children `AnsW` pops and evaluates per round: the
/// work a round exposes to the pool. The search trajectory is a function
/// of this width and never of the thread count.
pub(crate) const FRONTIER_BATCH: usize = 8;

/// `AnsW`'s frontier: a max-heap on (closeness, lowest cost first, oldest
/// first) over an arena of every kept state.
pub(crate) struct BestFirst {
    arena: Vec<State>,
    heap: BinaryHeap<(OrdF64, Reverse<OrdF64>, Reverse<usize>)>,
    top_k: usize,
}

impl BestFirst {
    /// The frontier `session`'s config asks for: `top_k` answers.
    pub(crate) fn new(session: &Session) -> Self {
        BestFirst {
            arena: Vec::new(),
            heap: BinaryHeap::new(),
            top_k: session.config.top_k.max(1),
        }
    }
}

impl Frontier for BestFirst {
    fn top_k(&self) -> usize {
        self.top_k
    }

    /// Up to [`FRONTIER_BATCH`] children, in exactly the order the serial
    /// search would pop them: the top state's next applicable operator
    /// (Fig. 5 line 8), its queue built at the first visit; an exhausted
    /// state is popped (backtracking, line 7).
    fn gather(&mut self, chase: &mut Chase<'_>, room: usize, threshold: f64) -> Vec<Rewrite> {
        let session = chase.session();
        let width = FRONTIER_BATCH.min(room);
        let mut batch = Vec::new();
        while batch.len() < width {
            let Some(&(_, _, Reverse(idx))) = self.heap.peek() else {
                break;
            };
            let st = &mut self.arena[idx];
            let queue = st.op_queue.get_or_insert_with(|| {
                next_ops(
                    session,
                    &st.rewrite.query,
                    &st.eval,
                    st.rewrite.phase,
                    threshold,
                )
            });
            let child = queue[st.next_op..].iter().find_map(|sop| {
                st.next_op += 1;
                chase.child(&st.rewrite, &sop.op)
            });
            match child {
                Some(child) => batch.push(child),
                None => {
                    self.heap.pop();
                }
            }
        }
        batch
    }

    /// Stable on (cost asc, closeness desc, operator-sequence key), so the
    /// heap, trace and top-k evolve identically for any thread count.
    fn order(&self, batch: &[Rewrite], evals: &[Option<EvalResult>]) -> Vec<usize> {
        let op_keys: Vec<String> = batch.iter().map(|c| format!("{:?}", c.ops)).collect();
        let mut order: Vec<usize> = (0..batch.len()).filter(|&i| evals[i].is_some()).collect();
        order.sort_by(|&a, &b| {
            let (ea, eb) = (evals[a].as_ref().unwrap(), evals[b].as_ref().unwrap());
            batch[a]
                .cost
                .total_cmp(&batch[b].cost)
                .then_with(|| eb.closeness.total_cmp(&ea.closeness))
                .then_with(|| op_keys[a].cmp(&op_keys[b]))
        });
        order
    }

    /// Prunes (line 9, Lemma 5.5(2)): in the refinement phase cl⁺ only
    /// shrinks, so a subtree whose bound is below the k-th best is dead;
    /// each drop counts one [`crate::obs::Counter::StatesPruned`].
    /// Otherwise the state joins the arena, whose size the governor caps.
    fn keep(
        &mut self,
        chase: &Chase<'_>,
        rewrite: Rewrite,
        eval: EvalResult,
        threshold: f64,
    ) -> Option<usize> {
        if chase.session().config.pruning
            && rewrite.phase == Phase::Refine
            && eval.upper_bound <= threshold + 1e-12
        {
            crate::obs::with_current(|p| p.add(crate::obs::Counter::StatesPruned, 1));
            return None;
        }
        self.heap.push((
            OrdF64(eval.closeness),
            Reverse(OrdF64(rewrite.cost)),
            Reverse(self.arena.len()),
        ));
        self.arena.push(State {
            rewrite,
            eval,
            op_queue: None,
            next_op: 0,
        });
        Some(self.arena.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::paper_question;
    use crate::session::{Session, WqeConfig};
    use wqe_graph::product::product_graph;

    fn run(config: WqeConfig) -> (wqe_graph::product::ProductGraph, AnswerReport) {
        let pg = product_graph();
        let report = {
            let g = &pg.graph;
            let ctx = crate::ctx::EngineCtx::with_default_oracle(std::sync::Arc::new(g.clone()));
            let wq = paper_question(g);
            let session = Session::new(ctx.clone(), &wq, config);
            session.run(crate::Algorithm::AnsW, &wq).unwrap()
        };
        (pg, report)
    }

    #[test]
    fn finds_optimal_rewrite_on_paper_scenario() {
        let (pg, report) = run(WqeConfig {
            budget: 4.0,
            ..WqeConfig::default()
        });
        let best = report.best.expect("a rewrite is found");
        // Optimal rewrite: Q'(G) = {P3, P4, P5}, closeness 1/2 = cl*.
        assert_eq!(best.matches, vec![pg.phones[2], pg.phones[3], pg.phones[4]]);
        assert!(
            (best.closeness - 0.5).abs() < 1e-9,
            "cl = {}",
            best.closeness
        );
        assert!(best.satisfies);
        assert!(report.optimal_reached);
        assert!(best.cost <= 4.0 + 1e-9);
        // The sequence is canonical and in normal form (Theorem 4.3 path).
        assert!(wqe_query::is_canonical(&best.ops));
        assert!(wqe_query::is_normal_form(&best.ops));
    }

    #[test]
    fn budget_limits_quality() {
        // With B = 1 only one cheap operator fits; the optimum (cost > 3)
        // is unreachable, so closeness < cl*.
        let (_pg, report) = run(WqeConfig {
            budget: 1.0,
            ..WqeConfig::default()
        });
        if let Some(best) = &report.best {
            assert!(best.cost <= 1.0 + 1e-9);
            assert!(best.closeness < 0.5);
        }
        assert!(!report.optimal_reached);
    }

    #[test]
    fn anytime_trace_monotone() {
        let (_pg, report) = run(WqeConfig {
            budget: 4.0,
            ..WqeConfig::default()
        });
        for w in report.trace.windows(2) {
            assert!(w[1].closeness >= w[0].closeness);
            assert!(w[1].elapsed_us >= w[0].elapsed_us);
        }
        assert!(!report.trace.is_empty());
    }

    #[test]
    fn ablations_reach_same_closeness() {
        // AnsWnc and AnsWb are slower but equally effective on this graph.
        let (_, full) = run(WqeConfig {
            budget: 4.0,
            ..WqeConfig::default()
        });
        let (_, nc) = run(WqeConfig {
            budget: 4.0,
            caching: false,
            ..WqeConfig::default()
        });
        let (_, b) = run(WqeConfig {
            budget: 4.0,
            caching: false,
            pruning: false,
            ..WqeConfig::default()
        });
        let cl = |r: &AnswerReport| r.best.as_ref().map(|x| x.closeness).unwrap_or(-1.0);
        assert!((cl(&full) - 0.5).abs() < 1e-9);
        assert!((cl(&nc) - 0.5).abs() < 1e-9);
        assert!((cl(&b) - 0.5).abs() < 1e-9);
        // The unpruned variant explores at least as many rewrites.
        assert!(b.expansions >= full.expansions);
    }

    #[test]
    fn top_k_returns_distinct_rewrites() {
        let (_pg, report) = run(WqeConfig {
            budget: 4.0,
            top_k: 3,
            ..WqeConfig::default()
        });
        assert!(!report.top_k.is_empty());
        let sigs: std::collections::HashSet<String> =
            report.top_k.iter().map(|r| r.query.signature()).collect();
        assert_eq!(sigs.len(), report.top_k.len());
        for w in report.top_k.windows(2) {
            assert!(w[0].closeness >= w[1].closeness);
        }
        for r in &report.top_k {
            assert!(r.satisfies);
        }
    }

    #[test]
    fn expansion_cap_respected() {
        let (_pg, report) = run(WqeConfig {
            budget: 4.0,
            max_expansions: 3,
            ..WqeConfig::default()
        });
        assert!(report.expansions <= 3);
    }
}
