//! The serving-layer determinism suite: everything a `QueryService` hands
//! back must be bit-identical to what a direct `WqeEngine::try_run` with
//! the same effective config produces — through the concurrent scheduler,
//! through the answer cache, at any worker count. Plus the admission and
//! deadline contracts: a full queue rejects explicitly, a request whose
//! queue wait already consumed its deadline is shed typed at dequeue, and
//! a deadline tripping *during* service surfaces as a best-so-far report
//! with `Termination::Deadline`.

use std::sync::Arc;
use wqe::core::{
    Algorithm, CacheConfig, EngineCtx, QueryRequest, QueryService, QueryStatus, ServiceConfig,
    ShedReason, Termination, WhyQuestion, WqeConfig, WqeEngine,
};
use wqe::datagen::{generate_query, generate_why, QueryGenConfig, TopologyKind, WhyGenConfig};
use wqe::index::{DistanceOracle, Oracle};

mod common;

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

const ALGORITHMS: [Algorithm; 8] = [
    Algorithm::AnsW,
    Algorithm::AnsWnc,
    Algorithm::AnsWb,
    Algorithm::AnsHeu,
    Algorithm::AnsHeuB(7),
    Algorithm::FMAnsW,
    Algorithm::WhyMany,
    Algorithm::WhyEmpty,
];

/// A comparable summary of a full report, floats bit-exact.
fn fingerprint(report: &wqe::core::AnswerReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    fn push(out: &mut String, r: &wqe::core::RewriteResult) {
        let _ = write!(
            out,
            "[{:x}/{:x}/{:?}/{:?}/{}]",
            r.closeness.to_bits(),
            r.cost.to_bits(),
            r.ops,
            r.matches,
            r.satisfies
        );
    }
    match &report.best {
        None => out.push_str("none"),
        Some(b) => push(&mut out, b),
    }
    for r in &report.top_k {
        push(&mut out, r);
    }
    let _ = write!(out, "|{}", report.termination.as_str());
    out
}

fn paper_setup() -> (EngineCtx, WhyQuestion) {
    let g = Arc::new(wqe::graph::product::product_graph().graph);
    let ctx = EngineCtx::with_default_oracle(Arc::clone(&g));
    let q = wqe::core::paper::paper_question(&g);
    (ctx, q)
}

fn generated_questions(n: usize) -> (EngineCtx, Vec<WhyQuestion>) {
    let graph = Arc::new(wqe::datagen::dbpedia_like(0.02, 5));
    let oracle: Arc<dyn DistanceOracle> = Arc::new(Oracle::build(&graph));
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
        if let Some(truth) = generate_query(&graph, &qcfg) {
            let wcfg = WhyGenConfig {
                seed: seed * 13,
                ..Default::default()
            };
            if let Some(gw) = generate_why(&graph, &oracle, &truth, &wcfg) {
                out.push(gw.question);
            }
        }
    }
    (EngineCtx::new(Arc::clone(&graph), oracle), out)
}

fn base_config() -> WqeConfig {
    WqeConfig {
        budget: 3.0,
        max_expansions: 300,
        top_k: 3,
        parallelism: 1,
        ..Default::default()
    }
}

/// The ground truth a served answer must reproduce: a direct engine run
/// under the request's effective config.
fn direct_fingerprint(ctx: &EngineCtx, q: &WhyQuestion, alg: Algorithm, cfg: &WqeConfig) -> String {
    let engine = WqeEngine::try_new(ctx.clone(), q.clone(), alg.apply_to(cfg.clone()))
        .expect("valid question");
    fingerprint(&engine.try_run(alg).expect("direct run"))
}

#[test]
fn concurrent_mixed_algorithms_match_direct_runs() {
    let (ctx, questions) = generated_questions(3);
    assert!(questions.len() >= 2, "suite too small");
    let cfg = base_config();

    // Ground truth once, outside the service.
    let mut expected = Vec::new();
    for q in &questions {
        for &alg in &ALGORITHMS {
            expected.push(direct_fingerprint(&ctx, q, alg, &cfg));
        }
    }

    for workers in WORKER_COUNTS {
        let svc = QueryService::new(
            ctx.clone(),
            ServiceConfig {
                max_inflight: workers,
                queue_cap: questions.len() * ALGORITHMS.len(),
                base_config: cfg.clone(),
                // Cache off: every request must be *recomputed* identically.
                cache: CacheConfig { capacity: 0 },
                ..Default::default()
            },
        );
        let requests: Vec<QueryRequest> = questions
            .iter()
            .flat_map(|q| {
                ALGORITHMS
                    .iter()
                    .map(|&alg| QueryRequest::new(q.clone(), alg))
            })
            .collect();
        let responses = svc.serve_batch(requests);
        assert_eq!(responses.len(), expected.len());
        for (i, (resp, want)) in responses.iter().zip(&expected).enumerate() {
            let report = resp
                .report()
                .unwrap_or_else(|| panic!("request {i} at {workers} workers: {:?}", resp.status));
            assert!(!resp.cache_hit());
            assert_eq!(
                &fingerprint(report),
                want,
                "request {i} diverged from the direct run at {workers} workers"
            );
        }
    }
}

#[test]
fn cache_hit_is_bit_identical_to_the_cold_run() {
    let (ctx, q) = paper_setup();
    let cfg = WqeConfig {
        budget: 4.0,
        top_k: 3,
        ..Default::default()
    };
    let svc = QueryService::new(
        ctx.clone(),
        ServiceConfig {
            max_inflight: 2,
            base_config: cfg.clone(),
            ..Default::default()
        },
    );
    for &alg in &ALGORITHMS {
        let cold = svc.call(QueryRequest::new(q.clone(), alg));
        let warm = svc.call(QueryRequest::new(q.clone(), alg));
        let cold_report = cold.report().expect("cold run");
        let warm_report = warm.report().expect("warm run");
        assert!(!cold.cache_hit(), "{alg}: first request hit the cache");
        assert!(warm.cache_hit(), "{alg}: repeat request missed the cache");
        assert_eq!(
            fingerprint(cold_report),
            fingerprint(warm_report),
            "{alg}: cached answer diverged"
        );
        // And both equal the direct engine run.
        assert_eq!(
            fingerprint(cold_report),
            direct_fingerprint(&ctx, &q, alg, &cfg),
            "{alg}: served answer diverged from the direct run"
        );
    }
    let stats = svc.stats();
    assert_eq!(stats.counters.answer_cache_hits, ALGORITHMS.len() as u64);
    assert_eq!(stats.counters.answer_cache_misses, ALGORITHMS.len() as u64);
}

#[test]
fn per_request_config_overrides_key_the_cache_correctly() {
    let (ctx, q) = paper_setup();
    let base = WqeConfig {
        budget: 4.0,
        ..Default::default()
    };
    let svc = QueryService::new(
        ctx.clone(),
        ServiceConfig {
            max_inflight: 1,
            base_config: base.clone(),
            ..Default::default()
        },
    );
    // Same question, different budget: distinct cache entries, each
    // matching its own direct run.
    let small = base.to_builder().budget(2.0).build().unwrap();
    let r_base = svc.call(QueryRequest::new(q.clone(), Algorithm::AnsW));
    let r_small =
        svc.call(QueryRequest::new(q.clone(), Algorithm::AnsW).with_config(small.clone()));
    assert!(
        !r_small.cache_hit(),
        "override must not reuse the base entry"
    );
    assert_eq!(
        fingerprint(r_base.report().unwrap()),
        direct_fingerprint(&ctx, &q, Algorithm::AnsW, &base)
    );
    assert_eq!(
        fingerprint(r_small.report().unwrap()),
        direct_fingerprint(&ctx, &q, Algorithm::AnsW, &small)
    );
    // A parallelism-only difference is answer-invariant and shares the entry.
    let threads = base.to_builder().parallelism(8).build().unwrap();
    let r_threads = svc.call(QueryRequest::new(q, Algorithm::AnsW).with_config(threads));
    assert!(
        r_threads.cache_hit(),
        "parallelism is excluded from the cache key"
    );
}

#[test]
fn full_queue_rejects_and_the_rest_still_serve() {
    let (ctx, q) = paper_setup();
    let svc = QueryService::new(
        ctx,
        ServiceConfig {
            max_inflight: 1,
            queue_cap: 3,
            base_config: WqeConfig {
                budget: 4.0,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    svc.pause(); // hold the workers so the queue fills deterministically
    let pending: Vec<_> = (0..5)
        .map(|_| svc.submit(QueryRequest::new(q.clone(), Algorithm::AnsW)))
        .collect();
    svc.resume();
    let responses: Vec<_> = pending.into_iter().map(|p| p.wait()).collect();
    let rejected: Vec<_> = responses.iter().filter(|r| r.is_rejected()).collect();
    assert_eq!(rejected.len(), 2, "cap 3 admits 3 of 5");
    for r in &rejected {
        match r.status {
            QueryStatus::Rejected {
                queue_full: true,
                queue_len,
            } => assert_eq!(queue_len, 3),
            ref other => panic!("expected queue-full rejection, got {other:?}"),
        }
    }
    for r in responses.iter().filter(|r| !r.is_rejected()) {
        assert!(
            r.report().is_some(),
            "admitted request failed: {:?}",
            r.status
        );
    }
    let stats = svc.stats();
    assert_eq!(stats.rejected, 2);
    assert_eq!(stats.completed, 3);
}

#[test]
fn per_request_deadline_terminates_with_deadline() {
    // A search slow because of its own join work (the triangle trap, on one
    // thread) so a 30ms deadline reliably trips *during* service, never
    // during queueing.
    let (ctx, q) = common::triangle_trap(720, 360, 4);
    let svc = QueryService::new(
        ctx,
        ServiceConfig {
            max_inflight: 1,
            base_config: WqeConfig {
                budget: 2.0,
                parallelism: 1,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    // `deadline_ms` budgets *service* time: the search starts, the governor
    // trips mid-run, and the response carries a best-so-far report.
    let t0 = std::time::Instant::now();
    let resp = svc.call(QueryRequest::new(q.clone(), Algorithm::AnsW).with_deadline_ms(30.0));
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(5),
        "the deadline must end the run promptly, took {:?}",
        t0.elapsed()
    );
    let report = resp
        .report()
        .expect("deadline yields best-so-far, not an error");
    assert_eq!(report.termination, Termination::Deadline);
    assert!(report.best.is_some(), "deadline must return best-so-far");

    // Partial reports must never be cached: a follow-up without the
    // deadline computes the complete answer.
    let full = svc.call(QueryRequest::new(q.clone(), Algorithm::AnsW));
    assert!(!full.cache_hit());
    let full = full.report().unwrap();
    assert_eq!(full.termination, Termination::Complete);
    // The precondition that keeps the deadline honest: the complete run
    // does millions of match steps, longer than 30ms at tens of
    // nanoseconds a step on any host.
    assert!(
        full.match_steps >= 3_000_000,
        "the complete run took {} match steps",
        full.match_steps
    );

    // Queue time is charged separately: a job whose wait already consumed
    // its whole deadline is shed typed at dequeue, not run to a useless
    // partial and not reported as `Done`.
    svc.pause();
    let pending = svc.submit(QueryRequest::new(q, Algorithm::AnsW).with_deadline_ms(20.0));
    std::thread::sleep(std::time::Duration::from_millis(60));
    svc.resume();
    let resp = pending.wait();
    match &resp.status {
        QueryStatus::Shed {
            reason:
                ShedReason::DeadlineElapsed {
                    queue_ms,
                    deadline_ms,
                },
        } => {
            assert!(*queue_ms >= *deadline_ms);
            assert_eq!(*deadline_ms, 20.0);
        }
        other => panic!("queue-dead job must shed, got {other:?}"),
    }
}

#[test]
fn priorities_never_change_answers_only_order() {
    use wqe::core::Priority;
    let (ctx, questions) = generated_questions(2);
    let cfg = base_config();
    let svc = QueryService::new(
        ctx.clone(),
        ServiceConfig {
            max_inflight: 2,
            base_config: cfg.clone(),
            cache: CacheConfig { capacity: 0 },
            ..Default::default()
        },
    );
    let requests: Vec<QueryRequest> = questions
        .iter()
        .zip([Priority::Low, Priority::High])
        .map(|(q, p)| QueryRequest::new(q.clone(), Algorithm::AnsW).with_priority(p))
        .collect();
    for (resp, q) in svc.serve_batch(requests).iter().zip(&questions) {
        assert_eq!(
            fingerprint(resp.report().unwrap()),
            direct_fingerprint(&ctx, q, Algorithm::AnsW, &cfg)
        );
    }
}

/// Shutdown/drop races with in-flight streaming handles: a vanished
/// receiver never poisons the service, and a torn-down service never
/// leaves a handle hanging — every `wait()` resolves to a real answer or
/// a typed failure.
#[test]
fn streaming_drop_and_shutdown_races_are_safe() {
    let (ctx, q) = paper_setup();
    let cfg = base_config();
    let make = || {
        QueryService::new(
            ctx.clone(),
            ServiceConfig {
                max_inflight: 2,
                base_config: cfg.clone(),
                cache: CacheConfig { capacity: 0 },
                ..Default::default()
            },
        )
    };

    // Receivers vanish while jobs are (possibly) in flight; the service
    // then still serves a fresh request bit-identically.
    let svc = make();
    for _ in 0..4 {
        drop(svc.submit_streaming(QueryRequest::new(q.clone(), Algorithm::AnsW)));
    }
    let resp = svc.call(QueryRequest::new(q.clone(), Algorithm::AnsW));
    assert_eq!(
        fingerprint(resp.report().expect("service survives dropped streams")),
        direct_fingerprint(&ctx, &q, Algorithm::AnsW, &cfg)
    );
    drop(svc);

    // The service is torn down with live streaming handles: each handle
    // resolves — served answers are bit-correct, unserved ones fail typed.
    let svc = make();
    let handles: Vec<_> = (0..4)
        .map(|_| svc.submit_streaming(QueryRequest::new(q.clone(), Algorithm::AnsW)))
        .collect();
    drop(svc);
    let expected = direct_fingerprint(&ctx, &q, Algorithm::AnsW, &cfg);
    for h in handles {
        let resp = h.wait();
        match &resp.status {
            QueryStatus::Done { report, .. } => assert_eq!(fingerprint(report), expected),
            QueryStatus::Failed { .. } => {}
            other => panic!("teardown must yield done or failed, got {other:?}"),
        }
    }

    // Cancel + drop against a paused queue: nothing wedges, and the
    // service keeps answering afterwards.
    let svc = make();
    svc.pause();
    let h = svc.submit_streaming(QueryRequest::new(q.clone(), Algorithm::AnsW));
    h.cancel();
    drop(h);
    svc.resume();
    let resp = svc.call(QueryRequest::new(q, Algorithm::AnsW));
    assert_eq!(
        fingerprint(resp.report().expect("post-cancel serve")),
        expected
    );
}
