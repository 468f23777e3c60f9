//! Product search walk-through — the full Example 1.1/1.2 scenario,
//! including relevance classification, top-3 rewrites, and Why-Many.
//!
//! ```text
//! cargo run --release --example product_search
//! ```

use std::sync::Arc;
use wqe::core::engine::{Algorithm, WqeEngine};
use wqe::core::paper::{paper_exemplar, paper_query};
use wqe::core::session::{WhyQuestion, WqeConfig};
use wqe::core::EngineCtx;
use wqe::graph::product::{attrs, product_graph};
use wqe::graph::NodeId;

fn main() {
    let g = Arc::new(product_graph().graph);
    let name_attr = g.schema().attr_id(attrs::NAME).unwrap();
    let name = |v: NodeId| {
        g.attr(v, name_attr)
            .map(|n| n.to_string())
            .unwrap_or_else(|| format!("node {}", v.0))
    };

    // The user searches for Samsung cellphones >= $840 with a carrier and
    // a sensor within two hops.
    let question = WhyQuestion {
        query: paper_query(&g),
        exemplar: paper_exemplar(&g),
    };
    let ctx = EngineCtx::with_default_oracle(Arc::clone(&g));
    let engine = WqeEngine::new(
        ctx.clone(),
        question,
        WqeConfig {
            budget: 4.0,
            top_k: 3,
            ..Default::default()
        },
    );

    // What the original query returns, classified against the exemplar.
    let eval = engine.evaluate_original();
    println!("Q(G):");
    for &v in &eval.outcome.matches {
        println!("  {}", name(v));
    }
    println!("\nrelevance w.r.t. the exemplar (rep(E,V)):");
    let sets = &eval.relevance;
    let show = |label: &str, vs: &[NodeId]| {
        println!(
            "  {label}: [{}]",
            vs.iter().map(|&v| name(v)).collect::<Vec<_>>().join(", ")
        );
    };
    show("relevant matches   (RM)", &sets.rm);
    show("irrelevant matches (IM)", &sets.im);
    show("relevant candidates(RC)", &sets.rc);
    show("irrelevant cands   (IC)", &sets.ic(&engine.session().v_uo));
    println!(
        "\ncl(Q(G), E) = {:.3};  theoretical optimum cl* = {:.3}",
        eval.closeness,
        engine.session().cl_star
    );

    // Top-3 rewrites.
    let report = engine.run(Algorithm::AnsW);
    println!("\ntop-{} rewrites:", report.top_k.len());
    for (i, r) in report.top_k.iter().enumerate() {
        println!(
            "  #{}: closeness {:.3}, cost {:.2}, answers [{}]",
            i + 1,
            r.closeness,
            r.cost,
            r.matches
                .iter()
                .map(|&v| name(v))
                .collect::<Vec<_>>()
                .join(", ")
        );
        for op in &r.ops {
            println!("       {}", op.display(g.schema()));
        }
    }

    // Why-Many on a deliberately loose query: too many phones match.
    println!("\n--- why so many? ---");
    let mut loose = paper_query(&g);
    let price = g.schema().attr_id(attrs::PRICE).unwrap();
    loose
        .replace_literal(
            loose.focus(),
            &wqe::query::Literal::new(price, wqe::graph::CmpOp::Ge, 840),
            wqe::query::Literal::new(price, wqe::graph::CmpOp::Ge, 750),
        )
        .unwrap();
    let many_engine = WqeEngine::new(
        ctx,
        WhyQuestion {
            query: loose,
            exemplar: paper_exemplar(&g),
        },
        WqeConfig {
            budget: 3.0,
            ..Default::default()
        },
    );
    let before = many_engine.evaluate_original();
    println!(
        "loose query matches {} phones, {} irrelevant",
        before.outcome.matches.len(),
        before.relevance.im.len()
    );
    let wm = many_engine.run(Algorithm::WhyMany);
    if let Some(best) = wm.best {
        println!(
            "ApxWhyM refines to {} matches (closeness {:.3}) with:",
            best.matches.len(),
            best.closeness
        );
        for op in &best.ops {
            println!("  {}", op.display(g.schema()));
        }
    }
}
