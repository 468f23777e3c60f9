//! The exploratory-search loop of Fig. 3: *query → response → examples →
//! suggestion → refined query*, iterated across search sessions.
//!
//! Each [`Explorer::session`] call takes the user's current exemplar (new
//! examples picked from answers or differential tables), runs a bounded
//! anytime search, adopts the best rewrite as the new current query, and
//! records the step. The per-session time cost is the paper's *system
//! response time* (§4 "Interpretation of Q-Chase").

use crate::ctx::EngineCtx;
use crate::engine::Algorithm;
use crate::exemplar::Exemplar;
use crate::explain::DifferentialTable;
use crate::session::{Session, WhyQuestion, WqeConfig};
use wqe_graph::NodeId;
use wqe_query::{AtomicOp, PatternQuery};

/// One completed search session.
#[derive(Debug, Clone)]
pub struct SessionRecord {
    /// The query at the start of the session.
    pub query_before: PatternQuery,
    /// Operators the adopted rewrite applied (empty = no improvement).
    pub ops: Vec<AtomicOp>,
    /// Closeness of the adopted query's answers to the session exemplar.
    pub closeness: f64,
    /// The adopted query's answers.
    pub matches: Vec<NodeId>,
    /// The system response time, milliseconds.
    pub response_ms: f64,
    /// Lineage for the applied operators.
    pub lineage: Option<DifferentialTable>,
}

/// An interactive exploration handle.
pub struct Explorer {
    ctx: EngineCtx,
    config: WqeConfig,
    current: PatternQuery,
    history: Vec<SessionRecord>,
}

impl Explorer {
    /// Starts exploring from an initial query.
    pub fn new(ctx: EngineCtx, initial: PatternQuery, config: WqeConfig) -> Self {
        Explorer {
            ctx,
            config,
            current: initial,
            history: Vec::new(),
        }
    }

    /// Sets the intra-session parallelism (worker threads used for batched
    /// frontier evaluation and subgraph matching). `0` means one worker per
    /// available core; `1` runs serially. Thread count never changes which
    /// rewrites a session adopts — only how fast it responds.
    pub fn with_parallelism(mut self, threads: usize) -> Self {
        self.config.parallelism = threads;
        self
    }

    /// The current query.
    pub fn current_query(&self) -> &PatternQuery {
        &self.current
    }

    /// The session log so far.
    pub fn history(&self) -> &[SessionRecord] {
        &self.history
    }

    /// Evaluates the current query (no rewriting).
    pub fn answers(&self) -> Vec<NodeId> {
        let wq = WhyQuestion {
            query: self.current.clone(),
            exemplar: Exemplar::new(),
        };
        let session = Session::new(self.ctx.clone(), &wq, self.config.clone());
        session.evaluate(&self.current).outcome.matches
    }

    /// Runs one search session against `exemplar` with `algorithm` —
    /// typically `AnsHeu` for a fast interactive response, `AnsW` for the
    /// exact anytime search — adopting the suggested rewrite when it
    /// improves closeness. Returns the session record.
    ///
    /// # Panics
    ///
    /// Re-raises a panic contained during the search (see
    /// [`Session::run`]).
    pub fn session(&mut self, exemplar: &Exemplar, algorithm: Algorithm) -> &SessionRecord {
        let question = WhyQuestion {
            query: self.current.clone(),
            exemplar: exemplar.clone(),
        };
        let config = algorithm.apply_to(self.config.clone());
        let session = Session::new(self.ctx.clone(), &question, config);
        let before = session.evaluate(&self.current);
        let report = session
            .run(algorithm, &question)
            .unwrap_or_else(|e| panic!("{e}"));
        let record = match report.best {
            Some(best) if best.closeness > before.closeness + 1e-12 => {
                let lineage = DifferentialTable::build(&session, &self.current, &best.ops);

                SessionRecord {
                    query_before: std::mem::replace(&mut self.current, best.query),
                    ops: best.ops,
                    closeness: best.closeness,
                    matches: best.matches,
                    response_ms: report.elapsed_ms,
                    lineage,
                }
            }
            _ => SessionRecord {
                query_before: self.current.clone(),
                ops: Vec::new(),
                closeness: before.closeness,
                matches: before.outcome.matches,
                response_ms: report.elapsed_ms,
                lineage: None,
            },
        };
        self.history.push(record);
        self.history.last().expect("just pushed")
    }

    /// Reverts the most recent adopted rewrite. Returns whether anything
    /// was undone.
    pub fn undo(&mut self) -> bool {
        match self.history.pop() {
            Some(rec) => {
                self.current = rec.query_before;
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::{paper_exemplar, paper_query};
    use std::sync::Arc;
    use wqe_graph::product::product_graph;

    fn ctx_for(g: &wqe_graph::Graph) -> EngineCtx {
        EngineCtx::with_default_oracle(Arc::new(g.clone()))
    }

    #[test]
    fn session_adopts_improving_rewrite() {
        let pg = product_graph();
        let g = &pg.graph;
        let mut explorer = Explorer::new(
            ctx_for(g),
            paper_query(g),
            WqeConfig {
                budget: 4.0,
                ..Default::default()
            },
        );
        assert_eq!(explorer.answers().len(), 3);
        let ex = paper_exemplar(g);
        let rec = explorer.session(&ex, Algorithm::AnsW);
        assert!(!rec.ops.is_empty());
        assert!((rec.closeness - 0.5).abs() < 1e-9);
        assert!(rec.lineage.is_some());
        // The adopted query answers {P3, P4, P5}.
        assert_eq!(
            explorer.answers(),
            vec![pg.phones[2], pg.phones[3], pg.phones[4]]
        );
    }

    #[test]
    fn non_improving_session_keeps_query() {
        let pg = product_graph();
        let g = &pg.graph;
        let mut explorer = Explorer::new(
            ctx_for(g),
            paper_query(g),
            WqeConfig {
                budget: 4.0, // enough to reach cl* in the first session
                beam_width: 2,
                ..Default::default()
            },
        );
        let ex = paper_exemplar(g);
        // First session reaches the optimum; a second cannot improve.
        explorer.session(&ex, Algorithm::AnsW);
        let sig_before = explorer.current_query().signature();
        let rec = explorer.session(&ex, Algorithm::AnsHeu);
        assert!(rec.ops.is_empty());
        assert_eq!(explorer.current_query().signature(), sig_before);
    }

    #[test]
    fn undo_restores() {
        let pg = product_graph();
        let g = &pg.graph;
        let initial = paper_query(g);
        let sig0 = initial.signature();
        let mut explorer = Explorer::new(
            ctx_for(g),
            initial,
            WqeConfig {
                budget: 4.0,
                ..Default::default()
            },
        );
        explorer.session(&paper_exemplar(g), Algorithm::AnsW);
        assert_ne!(explorer.current_query().signature(), sig0);
        assert!(explorer.undo());
        assert_eq!(explorer.current_query().signature(), sig0);
        assert!(!explorer.undo());
    }
}
