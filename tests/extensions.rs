//! Integration coverage for the extension surfaces: multi-focus questions
//! (Appendix B), the Explorer loop (Fig. 3), top-k suggestion (§6.2), and
//! the ranking metrics, all exercised through the public facade.

use std::sync::Arc;
use wqe::core::explorer::Explorer;
use wqe::core::metrics::{ndcg_at, PrecisionRecall};
use wqe::core::multifocus::{answer_multi_focus, MultiFocusQuestion};
use wqe::core::paper::{paper_exemplar, paper_query, CARRIER, FOCUS};
use wqe::core::{Algorithm, EngineCtx, Exemplar, Session, TuplePattern, WqeConfig};
use wqe::graph::product::{attrs, product_graph};
use wqe::index::PllIndex;

#[test]
fn multifocus_combined_report() {
    let g = Arc::new(product_graph().graph);
    let ctx = EngineCtx::new(Arc::clone(&g), Arc::new(PllIndex::build(&g)));
    let discount = g.schema().attr_id(attrs::DISCOUNT).unwrap();
    let mut carrier_ex = Exemplar::new();
    carrier_ex.add_tuple(TuplePattern::new().constant(discount, 25i64));

    let result = answer_multi_focus(
        &ctx,
        &MultiFocusQuestion {
            query: paper_query(&g),
            foci: vec![(FOCUS, paper_exemplar(&g)), (CARRIER, carrier_ex)],
        },
        WqeConfig {
            budget: 4.0,
            ..Default::default()
        },
    )
    .expect("valid multi-focus question");
    assert_eq!(result.per_focus.len(), 2);
    // Both foci produced satisfying rewrites, and the combined closeness
    // stays below the combined theoretical optimum.
    for f in &result.per_focus {
        assert!(f.report.best.is_some(), "focus u{} unanswered", f.focus.0);
    }
    assert!(result.combined_closeness() <= result.combined_cl_star() + 1e-9);
}

#[test]
fn explorer_session_history_and_metrics() {
    let pg = product_graph();
    let g = Arc::new(pg.graph.clone());
    let ctx = EngineCtx::new(Arc::clone(&g), Arc::new(PllIndex::build(&g)));
    let mut explorer = Explorer::new(
        ctx,
        paper_query(&g),
        WqeConfig {
            budget: 4.0,
            ..Default::default()
        },
    );
    let rec = explorer
        .session(&paper_exemplar(&g), Algorithm::AnsHeu)
        .clone();
    assert_eq!(explorer.history().len(), 1);
    // Judge the adopted answers against the known desired set {P3, P4, P5}.
    let desired = vec![pg.phones[2], pg.phones[3], pg.phones[4]];
    let pr = PrecisionRecall::of(&rec.matches, &desired);
    assert_eq!(pr.precision, 1.0);
    assert_eq!(pr.recall, 1.0);
    assert_eq!(pr.f1(), 1.0);
}

#[test]
fn top_k_ranking_is_ndcg_optimal_for_oracle_gains() {
    // AnsW ranks by closeness; with gains equal to δ against the known
    // truth, the presented order must be nDCG-optimal on the paper graph.
    let pg = product_graph();
    let g = Arc::new(pg.graph.clone());
    let ctx = EngineCtx::new(Arc::clone(&g), Arc::new(PllIndex::build(&g)));
    let wq = wqe::core::WhyQuestion {
        query: paper_query(&g),
        exemplar: paper_exemplar(&g),
    };
    let session = Session::new(
        ctx,
        &wq,
        WqeConfig {
            budget: 4.0,
            top_k: 3,
            ..Default::default()
        },
    );
    let report = session.run(Algorithm::AnsW, &wq).unwrap();
    assert!(report.top_k.len() >= 2);
    let truth = vec![pg.phones[2], pg.phones[3], pg.phones[4]];
    let gains: Vec<f64> = report
        .top_k
        .iter()
        .map(|r| wqe::core::relative_closeness(&r.matches, &truth))
        .collect();
    let score = ndcg_at(&gains, 3).expect("some relevant rewrite");
    assert!(
        (score - 1.0).abs() < 1e-9,
        "nDCG@3 = {score}, gains {gains:?}"
    );
}
