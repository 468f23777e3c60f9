//! End-to-end verification of every number in the paper's worked examples
//! (Examples 1.1–5.4) across all workspace crates.

use std::sync::Arc;
use wqe::core::engine::{Algorithm, WqeEngine};
use wqe::core::paper::{paper_exemplar, paper_optimal_ops, paper_query, CARRIER, FOCUS, SENSOR};
use wqe::core::session::{WhyQuestion, WqeConfig};
use wqe::core::{compute_representation, relative_closeness, EngineCtx};
use wqe::graph::product::product_graph;
use wqe::index::PllIndex;
use wqe::query::{sequence_cost, Matcher};

#[test]
fn example_1_1_original_answers() {
    let pg = product_graph();
    let g = Arc::new(pg.graph.clone());
    let matcher = Matcher::new(Arc::clone(&g), Arc::new(PllIndex::build(&g)));
    let out = matcher.evaluate(&paper_query(&g));
    // "The system returns three CellPhones ... S9+ (P1), Note8 (P2), S8+ (P5)".
    assert_eq!(out.matches, vec![pg.phones[0], pg.phones[1], pg.phones[4]]);
}

#[test]
fn example_2_3_rewrite_answers_why_question() {
    let pg = product_graph();
    let g = Arc::new(pg.graph.clone());
    let matcher = Matcher::new(Arc::clone(&g), Arc::new(PllIndex::build(&g)));
    let mut q = paper_query(&g);
    for op in paper_optimal_ops(&g) {
        op.apply(&mut q).expect("applicable");
    }
    // "Q'(G) = {P3, P4, P5} |= E".
    let out = matcher.evaluate(&q);
    assert_eq!(out.matches, vec![pg.phones[2], pg.phones[3], pg.phones[4]]);
    let rep = compute_representation(&g, &paper_exemplar(&g), g.node_ids(), 1.0);
    let expected: std::collections::HashSet<_> = [pg.phones[2], pg.phones[3], pg.phones[4]]
        .into_iter()
        .collect();
    assert_eq!(rep.nodes, expected);
}

#[test]
fn example_3_1_costs_and_closeness() {
    let pg = product_graph();
    let g = &pg.graph;
    // c(O) for {o3, o2, o1} = (1 + 50/150) + (1 + 2/3) + 1 = 4.
    let ops = paper_optimal_ops(g);
    assert!((sequence_cost(&ops, g) - 4.0).abs() < 1e-9);
}

#[test]
fn answ_reaches_theoretical_optimum() {
    let pg = product_graph();
    let g = Arc::new(pg.graph.clone());
    let ctx = EngineCtx::with_default_oracle(Arc::clone(&g));
    let engine = WqeEngine::new(
        ctx,
        WhyQuestion {
            query: paper_query(&g),
            exemplar: paper_exemplar(&g),
        },
        WqeConfig {
            budget: 4.0,
            ..Default::default()
        },
    );
    let report = engine.run(Algorithm::AnsW);
    assert!(report.optimal_reached, "cl* = 1/2 is attainable at B = 4");
    let best = report.best.unwrap();
    assert!((best.closeness - 0.5).abs() < 1e-9);
    assert!(best.satisfies);
    // The true answers are exactly recovered: δ = 1 against {P3, P4, P5}.
    let truth = vec![pg.phones[2], pg.phones[3], pg.phones[4]];
    assert!((relative_closeness(&best.matches, &truth) - 1.0).abs() < 1e-9);
}

#[test]
fn all_algorithms_agree_on_the_paper_scenario() {
    let g = Arc::new(product_graph().graph);
    let ctx = EngineCtx::with_default_oracle(Arc::clone(&g));
    let engine = WqeEngine::new(
        ctx,
        WhyQuestion {
            query: paper_query(&g),
            exemplar: paper_exemplar(&g),
        },
        WqeConfig {
            budget: 4.0,
            ..Default::default()
        },
    );
    let exact = engine.run(Algorithm::AnsW).best.unwrap().closeness;
    let heu = engine.run(Algorithm::AnsHeu).best.unwrap().closeness;
    let fm = engine.run(Algorithm::FMAnsW).best.unwrap().closeness;
    assert!(exact >= heu - 1e-9);
    assert!(heu >= fm - 1e-9);
    assert!((exact - 0.5).abs() < 1e-9);
    assert!(
        (heu - 0.5).abs() < 1e-9,
        "beam 3 also finds the optimum here"
    );
}

#[test]
fn operator_node_constants_match_query_layout() {
    let pg = product_graph();
    let g = &pg.graph;
    let q = paper_query(g);
    assert_eq!(q.focus(), FOCUS);
    assert!(q.edge_between(FOCUS, CARRIER).is_some());
    assert!(q.edge_between(FOCUS, SENSOR).is_some());
    assert_eq!(q.edge_between(FOCUS, SENSOR).unwrap().bound, 2);
}
