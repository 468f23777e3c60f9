//! Quickstart: answer the paper's running why-question on the product
//! knowledge graph (Fig. 1) and print the suggested rewrite.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;
use wqe::core::engine::{Algorithm, WqeEngine};
use wqe::core::paper::paper_question;
use wqe::core::session::WqeConfig;
use wqe::core::EngineCtx;
use wqe::graph::product::product_graph;

fn main() {
    // 1. A graph: cellphones, carriers, sensors (Fig. 2).
    let g = Arc::new(product_graph().graph);
    println!("graph: {:?}\n", g.stats());

    // 2. The why-question: the query found {P1, P2, P5}, but the user's
    //    exemplar describes cheaper phones with bigger storage.
    let question = paper_question(&g);
    println!("original query Q:\n{}", question.query.display(g.schema()));

    // 3. A shared context: the graph plus a distance index (edge-to-path
    //    matching needs one), both behind `Arc`s.
    let ctx = EngineCtx::with_default_oracle(Arc::clone(&g));

    // 4. Answer it with AnsW.
    let engine = WqeEngine::new(
        ctx,
        question,
        WqeConfig {
            budget: 4.0,
            ..Default::default()
        },
    );
    let original = engine.evaluate_original();
    println!(
        "Q(G) = {:?}  (closeness {:.3})",
        original.outcome.matches, original.closeness
    );

    let report = engine.run(Algorithm::AnsW);
    let best = report.best.expect("a rewrite is found");
    println!(
        "\nsuggested rewrite Q' (cost {:.2}, closeness {:.3}):",
        best.cost, best.closeness
    );
    println!("{}", best.query.display(g.schema()));
    println!("operators:");
    for op in &best.ops {
        println!("  {}", op.display(g.schema()));
    }
    println!("Q'(G) = {:?}", best.matches);

    // 5. Lineage: why did each answer change?
    let name_attr = g.schema().attr_id("Name").unwrap();
    if let Some(table) = engine.explain(&best) {
        println!("\nexplanation:");
        print!(
            "{}",
            table.render(g.schema(), |v| {
                g.attr(v, name_attr)
                    .map(|n| n.to_string())
                    .unwrap_or_else(|| format!("node {}", v.0))
            })
        );
    }
}
