//! Exploratory graph search (Fig. 3's loop) on an IMDB-shaped synthetic
//! graph: a hidden target query plays the user's intention; each session
//! disturbs, asks a why-question with examples, and refines.
//!
//! ```text
//! cargo run --release --example movie_exploration
//! ```

use std::sync::Arc;
use wqe::core::engine::{Algorithm, WqeEngine};
use wqe::core::relative_closeness;
use wqe::core::session::WqeConfig;
use wqe::core::EngineCtx;
use wqe::datagen::{generate_query, generate_why, imdb_like, QueryGenConfig, WhyGenConfig};

fn main() {
    // A mid-sized IMDB-like graph (movies, people, ratings...).
    let g = Arc::new(imdb_like(0.08, 42));
    println!("graph: {:?}\n", g.stats());
    let ctx = EngineCtx::with_default_oracle(Arc::clone(&g));
    let oracle = Arc::clone(ctx.oracle());

    let mut sessions = 0;
    let mut recovered = 0.0;
    for seed in 0..20u64 {
        // The "user's intention": a hidden ground-truth query.
        let Some(truth) = generate_query(
            &g,
            &QueryGenConfig {
                edges: 3,
                predicates_per_node: 2,
                seed,
                ..Default::default()
            },
        ) else {
            continue;
        };
        // The user's first attempt is a disturbed version of it; the lost
        // answers become the exemplar examples.
        let Some(wq) = generate_why(
            &g,
            &oracle,
            &truth,
            &WhyGenConfig {
                disturb_ops: 3,
                seed: seed * 7 + 1,
                ..Default::default()
            },
        ) else {
            continue;
        };
        sessions += 1;

        let engine = WqeEngine::new(
            ctx.clone(),
            wq.question.clone(),
            WqeConfig {
                budget: 3.0,
                time_limit_ms: Some(1000),
                beam_width: 3,
                ..Default::default()
            },
        );
        // Fast interactive response: the beam heuristic (a search session).
        let report = engine.run(Algorithm::AnsHeu);
        let delta = report
            .best
            .as_ref()
            .map(|b| relative_closeness(&b.matches, &wq.truth_answers))
            .unwrap_or(0.0);
        recovered += delta;
        println!(
            "session {sessions:2}: |Q*(G)|={:<3} disturbed |Q(G)|={:<3} -> δ(Q',Q*) = {:.2} ({} ops, {:.0} ms)",
            wq.truth_answers.len(),
            wq.disturbed_answers.len(),
            delta,
            report.best.as_ref().map(|b| b.ops.len()).unwrap_or(0),
            report.elapsed_ms
        );
    }
    if sessions > 0 {
        println!(
            "\nmean answer recovery over {sessions} exploratory sessions: {:.2}",
            recovered / sessions as f64
        );
    }
}
