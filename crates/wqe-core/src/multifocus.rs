//! Multiple focus nodes (Appendix B): a why-question whose pattern carries
//! several foci `u_1..u_k`, each with its own exemplar.
//!
//! Per the appendix, `E` is the union of the per-focus exemplars (each
//! `rep(E_i, V)` computed independently), `Q(G)` extends to the family
//! `{Q(u_i, G)}`, and the algorithms extend directly. This module realizes
//! that construction: one session per focus over the same pattern, answered
//! jointly, with the combined closeness reported as the sum of per-focus
//! closenesses (each normalized by its own `|V_{u_i}|`).

use crate::answ::AnswerReport;
use crate::ctx::EngineCtx;
use crate::engine::Algorithm;
use crate::error::WqeError;
use crate::exemplar::Exemplar;
use crate::session::{Session, WhyQuestion, WqeConfig};
use wqe_query::{PatternQuery, QNodeId};

/// A why-question with several foci.
#[derive(Debug, Clone)]
pub struct MultiFocusQuestion {
    /// The shared pattern.
    pub query: PatternQuery,
    /// `(focus node, its exemplar)` pairs. Every node must be live in the
    /// pattern.
    pub foci: Vec<(QNodeId, Exemplar)>,
}

/// Per-focus outcome of a multi-focus answer.
#[derive(Debug)]
pub struct FocusAnswer {
    /// The focus this answer is for.
    pub focus: QNodeId,
    /// The per-focus report (rewrites, closeness, trace).
    pub report: AnswerReport,
    /// `cl*` for this focus.
    pub cl_star: f64,
}

/// The combined result.
#[derive(Debug)]
pub struct MultiFocusAnswer {
    /// One entry per focus, in input order.
    pub per_focus: Vec<FocusAnswer>,
}

impl MultiFocusAnswer {
    /// Combined closeness: the sum of the best per-focus closenesses.
    pub fn combined_closeness(&self) -> f64 {
        self.per_focus
            .iter()
            .filter_map(|f| f.report.best.as_ref().map(|b| b.closeness))
            .sum()
    }

    /// Combined theoretical optimum.
    pub fn combined_cl_star(&self) -> f64 {
        self.per_focus.iter().map(|f| f.cl_star).sum()
    }
}

/// Answers a multi-focus question by running `AnsW` once per focus on the
/// refocused pattern.
pub fn answer_multi_focus(
    ctx: &EngineCtx,
    question: &MultiFocusQuestion,
    config: WqeConfig,
) -> Result<MultiFocusAnswer, WqeError> {
    let mut per_focus = Vec::with_capacity(question.foci.len());
    for (focus, exemplar) in &question.foci {
        let refocused = question.query.refocus(*focus)?;
        let wq = WhyQuestion {
            query: refocused,
            exemplar: exemplar.clone(),
        };
        let session = Session::try_new(ctx.clone(), &wq, config.clone())?;
        let cl_star = session.cl_star;
        let report = session.run(Algorithm::AnsW, &wq)?;
        per_focus.push(FocusAnswer {
            focus: *focus,
            report,
            cl_star,
        });
    }
    Ok(MultiFocusAnswer { per_focus })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exemplar::TuplePattern;
    use crate::paper::{paper_exemplar, paper_query, CARRIER, FOCUS};
    use wqe_graph::product::{attrs, product_graph};

    #[test]
    fn two_foci_answered_jointly() {
        let pg = product_graph();
        let g = &pg.graph;
        let s = g.schema();
        let ctx = crate::ctx::EngineCtx::with_default_oracle(std::sync::Arc::new(g.clone()));

        // Focus 1: the cellphone (the paper's exemplar). Focus 2: the
        // carrier, wanting 25%-discount carriers.
        let discount = s.attr_id(attrs::DISCOUNT).unwrap();
        let mut carrier_ex = Exemplar::new();
        carrier_ex.add_tuple(TuplePattern::new().constant(discount, 25i64));

        let question = MultiFocusQuestion {
            query: paper_query(g),
            foci: vec![(FOCUS, paper_exemplar(g)), (CARRIER, carrier_ex)],
        };
        let result = answer_multi_focus(
            &ctx,
            &question,
            WqeConfig {
                budget: 4.0,
                ..Default::default()
            },
        )
        .expect("valid foci");
        assert_eq!(result.per_focus.len(), 2);
        // The cellphone focus reaches the known optimum 1/2.
        let phone = &result.per_focus[0];
        assert!((phone.report.best.as_ref().unwrap().closeness - 0.5).abs() < 1e-9);
        // The carrier focus finds discount carriers among matches.
        let carrier = &result.per_focus[1];
        let best = carrier.report.best.as_ref().unwrap();
        assert!(best.closeness > 0.0);
        assert!(result.combined_closeness() > 0.5);
        assert!(result.combined_cl_star() >= result.combined_closeness() - 1e-9);
    }

    #[test]
    fn worker_panic_is_an_error_not_an_unwind() {
        use wqe_pool::fault::{FaultPlan, FaultSite};
        use wqe_pool::scope::Scope;
        let pg = product_graph();
        let g = &pg.graph;
        let ctx = crate::ctx::EngineCtx::with_default_oracle(std::sync::Arc::new(g.clone()));
        let question = MultiFocusQuestion {
            query: paper_query(g),
            foci: vec![(FOCUS, paper_exemplar(g))],
        };
        // The first pool item — the root evaluation — panics, once.
        let plan = FaultPlan::new(1)
            .arm(FaultSite::PoolWorker, 1)
            .with_budget(FaultSite::PoolWorker, 1);
        let _scope = Scope {
            faults: Some(std::sync::Arc::new(plan)),
            ..Scope::default()
        }
        .enter();
        match answer_multi_focus(&ctx, &question, WqeConfig::default()) {
            Err(WqeError::WorkerPanicked { .. }) => {}
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }

    #[test]
    fn dead_focus_rejected() {
        let pg = product_graph();
        let g = &pg.graph;
        let ctx = crate::ctx::EngineCtx::with_default_oracle(std::sync::Arc::new(g.clone()));
        let mut q = paper_query(g);
        // Remove the sensor branch; its node dies.
        q.remove_edge(FOCUS, crate::paper::SENSOR).unwrap();
        let question = MultiFocusQuestion {
            query: q,
            foci: vec![(crate::paper::SENSOR, Exemplar::new())],
        };
        assert!(answer_multi_focus(&ctx, &question, WqeConfig::default()).is_err());
    }
}
