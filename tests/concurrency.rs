//! Engine-level concurrency: many sessions over one shared `EngineCtx`
//! must behave exactly like a sequential run, and a shared matcher's star
//! cache must stay consistent under contention.

use std::sync::Arc;
use wqe::core::{Algorithm, EngineCtx, Session, WqeConfig};
use wqe::datagen::{
    dbpedia_like, generate_query, generate_why, QueryGenConfig, TopologyKind, WhyGenConfig,
};
use wqe::index::{DistanceOracle, Oracle};
use wqe::pool::obs::{Counter, Profiler, Stage};
use wqe::pool::scope::Scope;
use wqe::query::Matcher;

fn questions(
    graph: &Arc<wqe::graph::Graph>,
    oracle: &Arc<dyn DistanceOracle>,
    n: usize,
) -> Vec<wqe::datagen::GeneratedWhy> {
    let mut out = Vec::new();
    let mut seed = 0u64;
    while out.len() < n && seed < 200 {
        seed += 1;
        let qcfg = QueryGenConfig {
            edges: 2,
            seed,
            topology: TopologyKind::Star,
            ..Default::default()
        };
        if let Some(truth) = generate_query(graph, &qcfg) {
            let wcfg = WhyGenConfig {
                seed: seed * 13,
                ..Default::default()
            };
            if let Some(gw) = generate_why(graph, oracle, &truth, &wcfg) {
                out.push(gw);
            }
        }
    }
    out
}

fn config() -> WqeConfig {
    WqeConfig {
        budget: 3.0,
        max_expansions: 300,
        ..Default::default()
    }
}

/// A comparable summary of one answer: closeness/cost bits plus the exact
/// operator sequence and answer set.
fn fingerprint(report: &wqe::core::AnswerReport) -> String {
    match &report.best {
        None => "none".to_string(),
        Some(b) => format!(
            "{:x}/{:x}/{:?}/{:?}",
            b.closeness.to_bits(),
            b.cost.to_bits(),
            b.ops,
            b.matches
        ),
    }
}

#[test]
fn threaded_sessions_match_sequential_baseline() {
    let graph = Arc::new(dbpedia_like(0.02, 5));
    let oracle: Arc<dyn DistanceOracle> = Arc::new(Oracle::build(&graph));
    let qs = questions(&graph, &oracle, 6);
    assert!(qs.len() >= 3, "suite too small");
    let ctx = EngineCtx::new(Arc::clone(&graph), Arc::clone(&oracle));

    // Sequential baseline: one session per question, in order.
    let baseline: Vec<String> = qs
        .iter()
        .map(|gw| {
            let session = Session::new(ctx.clone(), &gw.question, config());
            fingerprint(&session.run(Algorithm::AnsW, &gw.question).unwrap())
        })
        .collect();

    // Concurrent run: every question answered on its own thread, all
    // sharing the same graph and oracle through cloned contexts.
    let concurrent: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = qs
            .iter()
            .map(|gw| {
                let ctx = ctx.clone();
                scope.spawn(move || {
                    let session = Session::new(ctx, &gw.question, config());
                    fingerprint(&session.run(Algorithm::AnsW, &gw.question).unwrap())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });

    assert_eq!(baseline, concurrent, "concurrent answers diverged");
}

#[test]
fn repeated_threaded_runs_are_deterministic() {
    let graph = Arc::new(dbpedia_like(0.02, 3));
    let oracle: Arc<dyn DistanceOracle> = Arc::new(Oracle::build(&graph));
    let qs = questions(&graph, &oracle, 3);
    assert!(!qs.is_empty());
    let ctx = EngineCtx::new(Arc::clone(&graph), Arc::clone(&oracle));

    let run = || -> Vec<String> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = qs
                .iter()
                .map(|gw| {
                    let ctx = ctx.clone();
                    scope.spawn(move || {
                        let session = Session::new(ctx, &gw.question, config());
                        fingerprint(&session.run(Algorithm::AnsW, &gw.question).unwrap())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(r) => r,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        })
    };
    let first = run();
    for _ in 0..2 {
        assert_eq!(first, run(), "re-run produced different answers");
    }
}

#[test]
fn shared_matcher_star_cache_under_contention() {
    let graph = Arc::new(dbpedia_like(0.02, 5));
    let oracle: Arc<dyn DistanceOracle> = Arc::new(Oracle::build(&graph));
    let q = (1..200)
        .find_map(|seed| {
            generate_query(
                &graph,
                &QueryGenConfig {
                    edges: 2,
                    seed,
                    topology: TopologyKind::Star,
                    ..Default::default()
                },
            )
        })
        .expect("a satisfiable query")
        .query;
    let matcher = Matcher::new(Arc::clone(&graph), Arc::clone(&oracle));
    // One profiler, carried onto every thread, is the ledger of the run.
    let profiler = Arc::new(Profiler::new());
    let _scope = Scope {
        profiler: Some(Arc::clone(&profiler)),
        ..Scope::default()
    }
    .enter();

    let reference = matcher.evaluate(&q).matches;
    const THREADS: usize = 8;
    let results: Vec<Vec<wqe::graph::NodeId>> = std::thread::scope(|threads| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let matcher = &matcher;
                let q = &q;
                let scope = Scope::current();
                threads.spawn(move || {
                    let _scope = scope.enter();
                    matcher.evaluate(q).matches
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    for r in &results {
        assert_eq!(r, &reference, "contended evaluation diverged");
    }

    // Counter consistency: every evaluation was recorded, and the cache
    // answered all repeat lookups without re-materializing tables.
    let s = profiler.snapshot();
    assert_eq!(s.stage(Stage::Match).count, (THREADS + 1) as u64);
    let (hits, misses) = (s.counter(Counter::CacheHit), s.counter(Counter::CacheMiss));
    assert_eq!(
        misses,
        s.stage(Stage::StarMaterialize).count,
        "every miss materializes exactly one table"
    );
    assert!(
        hits >= (THREADS as u64) * misses.min(1),
        "repeat evaluations should hit the cache (hits={hits}, misses={misses})"
    );
}
