//! End-to-end algorithm comparisons on synthetic datasets: the dominance
//! relations the paper's effectiveness experiments rely on.

use std::sync::Arc;
use wqe::core::{relative_closeness, Algorithm, EngineCtx, Session, WqeConfig};
use wqe::datagen::{
    dbpedia_like, generate_query, generate_why, generate_why_empty, QueryGenConfig, TopologyKind,
    WhyGenConfig,
};
use wqe::index::{DistanceOracle, Oracle};

struct Suite {
    graph: Arc<wqe::graph::Graph>,
    oracle: Arc<dyn DistanceOracle>,
    questions: Vec<wqe::datagen::GeneratedWhy>,
}

impl Suite {
    fn ctx(&self) -> EngineCtx {
        EngineCtx::new(Arc::clone(&self.graph), Arc::clone(&self.oracle))
    }
}

fn suite(n: usize) -> Suite {
    let graph = Arc::new(dbpedia_like(0.02, 5));
    let oracle: Arc<dyn DistanceOracle> = Arc::new(Oracle::build(&graph));
    let mut questions = Vec::new();
    let mut seed = 0u64;
    while questions.len() < n && seed < 200 {
        seed += 1;
        let qcfg = QueryGenConfig {
            edges: 2,
            seed,
            topology: TopologyKind::Star,
            ..Default::default()
        };
        if let Some(truth) = generate_query(&graph, &qcfg) {
            let wcfg = WhyGenConfig {
                seed: seed * 13,
                ..Default::default()
            };
            if let Some(gw) = generate_why(&graph, &oracle, &truth, &wcfg) {
                questions.push(gw);
            }
        }
    }
    Suite {
        graph,
        oracle,
        questions,
    }
}

fn config() -> WqeConfig {
    WqeConfig {
        budget: 3.0,
        time_limit_ms: Some(2000),
        max_expansions: 400,
        ..Default::default()
    }
}

#[test]
fn exact_dominates_heuristics_in_closeness() {
    let s = suite(6);
    assert!(s.questions.len() >= 3, "suite too small");
    let ctx = s.ctx();
    let mut exact_total = 0.0;
    let mut heu_total = 0.0;
    let mut fm_total = 0.0;
    for gw in &s.questions {
        let session = Session::new(ctx.clone(), &gw.question, config());
        let exact = session.run(Algorithm::AnsW, &gw.question).unwrap();
        let heu = session.run(Algorithm::AnsHeu, &gw.question).unwrap();
        let fm = session.run(Algorithm::FMAnsW, &gw.question).unwrap();
        let cl = |r: &wqe::core::AnswerReport| r.best.as_ref().map(|b| b.closeness).unwrap_or(-1.0);
        // Per-question dominance of the exact algorithm.
        assert!(
            cl(&exact) >= cl(&heu) - 1e-9,
            "AnsW {} < AnsHeu {}",
            cl(&exact),
            cl(&heu)
        );
        exact_total += cl(&exact);
        heu_total += cl(&heu);
        fm_total += cl(&fm);
    }
    assert!(exact_total >= heu_total - 1e-9);
    assert!(exact_total >= fm_total - 1e-9);
}

#[test]
fn answers_recover_truth_reasonably() {
    let s = suite(6);
    let ctx = s.ctx();
    let mut delta = 0.0;
    for gw in &s.questions {
        let session = Session::new(ctx.clone(), &gw.question, config());
        let report = session.run(Algorithm::AnsW, &gw.question).unwrap();
        if let Some(best) = report.best {
            delta += relative_closeness(&best.matches, &gw.truth_answers);
        }
    }
    let mean = delta / s.questions.len() as f64;
    assert!(
        mean >= 0.5,
        "mean relative closeness {mean:.2} too low — rewrites should recover most answers"
    );
}

#[test]
fn larger_budget_never_hurts() {
    let s = suite(4);
    let ctx = s.ctx();
    for gw in &s.questions {
        let mut prev = f64::NEG_INFINITY;
        for b in [1.0, 3.0, 5.0] {
            let mut cfg = config();
            cfg.budget = b;
            let session = Session::new(ctx.clone(), &gw.question, cfg);
            let report = session.run(Algorithm::AnsW, &gw.question).unwrap();
            let cl = report.best.as_ref().map(|r| r.closeness).unwrap_or(-1.0);
            assert!(
                cl >= prev - 1e-9,
                "budget {b}: closeness {cl} dropped below {prev}"
            );
            prev = cl;
        }
    }
}

#[test]
fn why_empty_end_to_end() {
    let graph = Arc::new(dbpedia_like(0.02, 6));
    let oracle: Arc<dyn DistanceOracle> = Arc::new(Oracle::build(&graph));
    let ctx = EngineCtx::new(Arc::clone(&graph), Arc::clone(&oracle));
    let mut tested = 0;
    for seed in 0..60u64 {
        let qcfg = QueryGenConfig {
            edges: 2,
            seed,
            ..Default::default()
        };
        let Some(truth) = generate_query(&graph, &qcfg) else {
            continue;
        };
        let wcfg = WhyGenConfig {
            seed: seed * 7,
            ..Default::default()
        };
        let Some(gw) = generate_why_empty(&graph, &oracle, &truth, &wcfg) else {
            continue;
        };
        let session = Session::new(ctx.clone(), &gw.question, config());
        let base = session.evaluate(&gw.question.query);
        assert!(base.relevance.rm.is_empty(), "why-empty setup");
        let report = session.run(Algorithm::WhyEmpty, &gw.question).unwrap();
        if let Some(best) = report.best {
            // The repair introduces at least one relevant match.
            assert!(best.matches.iter().any(|v| session.rep.contains(*v)));
            assert!(best.cost <= 3.0 + 1e-9);
            tested += 1;
        }
        if tested >= 3 {
            break;
        }
    }
    assert!(tested >= 1, "no why-empty question could be repaired");
}

#[test]
fn ablations_consistent() {
    // AnsW / AnsWnc / AnsWb must return the same closeness (they differ
    // only in caching/pruning, not in the search's completeness) whenever
    // none of them hits a time or expansion cap.
    let s = suite(3);
    let ctx = s.ctx();
    for gw in &s.questions {
        let mut cls = Vec::new();
        let mut capped = false;
        for (caching, pruning) in [(true, true), (false, true), (false, false)] {
            let cfg = WqeConfig {
                budget: 2.0,
                time_limit_ms: Some(8000),
                max_expansions: 3000,
                caching,
                pruning,
                ..Default::default()
            };
            let session = Session::new(ctx.clone(), &gw.question, cfg);
            let report = session.run(Algorithm::AnsW, &gw.question).unwrap();
            capped |= report.expansions >= 3000;
            cls.push(report.best.map(|b| b.closeness).unwrap_or(-1.0));
        }
        if capped {
            continue;
        }
        for w in cls.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-9, "ablations disagree: {cls:?}");
        }
    }
}
