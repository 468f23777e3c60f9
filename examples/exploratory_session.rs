//! Multi-round exploratory search with the [`Explorer`] API (Fig. 3):
//! a simulated user starts from a vague query over an Offshore-leaks-like
//! graph, inspects the answers, names example entities she actually wants,
//! and iterates. Each round prints the system response time and the
//! lineage of the adopted rewrite.
//!
//! ```text
//! cargo run --release --example exploratory_session
//! ```

use std::sync::Arc;
use wqe::core::explorer::Explorer;
use wqe::core::session::WqeConfig;
use wqe::core::{Algorithm, EngineCtx};
use wqe::datagen::{exemplar_from, generate_query, offshore_like, QueryGenConfig};

fn main() {
    let g = Arc::new(offshore_like(0.1, 99));
    println!("graph: {:?}", g.stats());
    let ctx = EngineCtx::with_default_oracle(Arc::clone(&g));
    let oracle = Arc::clone(ctx.oracle());

    // A hidden "intention": the answers of a target query the user cannot
    // articulate. Her starting query is a single-node sketch of it. Scan a
    // few seeds for an intention with a meaty answer set.
    let matcher = wqe::query::Matcher::new(Arc::clone(&g), Arc::clone(&oracle));
    let (target, wanted) = (31..200u64)
        .filter_map(|seed| {
            let t = generate_query(
                &g,
                &QueryGenConfig {
                    edges: 2,
                    predicates_per_node: 1,
                    seed,
                    ..Default::default()
                },
            )?;
            let answers = matcher.evaluate(&t.query).matches;
            (answers.len() >= 5).then_some((t, answers))
        })
        .next()
        .expect("an intention with >= 5 answers");
    println!("hidden intention matches {} entities\n", wanted.len());

    // Start from just the focus node with no constraints.
    let start = {
        let focus_label = target.query.node(target.query.focus()).unwrap().label;
        wqe::query::PatternQuery::new(focus_label, 4)
    };
    let mut explorer = Explorer::new(
        ctx,
        start,
        WqeConfig {
            budget: 3.0,
            time_limit_ms: Some(1500),
            ..Default::default()
        },
    );

    for round in 1..=4 {
        let answers = explorer.answers();
        // The simulated user marks up to `2 * round` desired entities she
        // recognizes (drawn from the hidden intention).
        let examples: Vec<_> = wanted.iter().copied().take(2 * round).collect();
        if examples.is_empty() {
            break;
        }
        let exemplar = exemplar_from(&g, &examples, 3);
        let rec = explorer.session(&exemplar, Algorithm::AnsHeu);
        let hit = rec.matches.iter().filter(|v| wanted.contains(v)).count();
        println!(
            "round {round}: |answers| {} -> {} ({} of {} wanted), {} ops, {:.1} ms",
            answers.len(),
            rec.matches.len(),
            hit,
            wanted.len(),
            rec.ops.len(),
            rec.response_ms
        );
        for op in &rec.ops {
            println!("    {}", op.display(g.schema()));
        }
        if let Some(table) = &rec.lineage {
            let lines = table.render(g.schema(), |v| format!("n{}", v.0));
            for line in lines.lines().take(3) {
                println!("    lineage: {line}");
            }
        }
    }

    println!(
        "\nfinal query:\n{}",
        explorer.current_query().display(g.schema())
    );
    println!("sessions recorded: {}", explorer.history().len());
}
