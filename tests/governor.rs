//! The query governor end to end: deadlines return best-so-far answers,
//! cross-thread cancellation stops a running session, step/frontier caps
//! trip deterministically at any parallelism (reusing the
//! parallel-determinism harness), and a panic injected into one session
//! never poisons a sibling sharing the same `EngineCtx`.

use std::sync::Arc;
use std::time::{Duration, Instant};
use wqe::core::{Algorithm, EngineCtx, Session, Termination, WhyQuestion, WqeConfig, WqeError};
use wqe::datagen::{
    dbpedia_like, generate_query, generate_why, QueryGenConfig, TopologyKind, WhyGenConfig,
};
use wqe::index::{DistanceOracle, Oracle, PllIndex};

mod common;
use common::FakeOracle;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Same comparable report summary as `tests/parallel_determinism.rs`, plus
/// the governor fields: a cap-terminated run must agree bit-for-bit on
/// *where* it stopped, not just on what it found.
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
    let _ = write!(
        out,
        "|opt={}|term={}|exp={}|steps={}",
        report.optimal_reached, report.termination, report.expansions, report.match_steps
    );
    out
}

fn generated_questions(
    graph: &Arc<wqe::graph::Graph>,
    oracle: &Arc<dyn DistanceOracle>,
    n: usize,
) -> Vec<WhyQuestion> {
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
                out.push(gw.question);
            }
        }
    }
    out
}

/// A search slow because of its own join work: the triangle trap, searched
/// on one thread so no host's core count shortens it.
fn slow_trap_setup() -> (EngineCtx, WhyQuestion) {
    let (ctx, wq) = common::triangle_trap(1440, 720, 5);
    assert_trap_is_slow(&ctx, &wq);
    (ctx, wq)
}

/// Match steps the trap's query costs to evaluate once, uncapped. At a
/// few nanoseconds a step (an optimized build on a fast core: the join
/// walks sorted rows with cursors and charges a walk's exhausted tail at
/// once) that is already longer than every deadline and cancel delay
/// below, and every run here evaluates that query first.
const TRAP_ROOT_STEPS: usize = 15_000_000;

/// The precondition that keeps the wall-clock tests honest: the trap's
/// root evaluation really does at least [`TRAP_ROOT_STEPS`] of work.
/// Checked once per test binary.
fn assert_trap_is_slow(ctx: &EngineCtx, wq: &WhyQuestion) {
    static ROOT_STEPS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    let steps = *ROOT_STEPS.get_or_init(|| {
        let matcher = wqe::query::Matcher::new(Arc::clone(ctx.graph()), Arc::clone(ctx.oracle()));
        let out = matcher.evaluate(&wq.query);
        assert!(!out.truncated);
        out.steps
    });
    assert!(
        steps >= TRAP_ROOT_STEPS,
        "the trap's root evaluation takes {steps} match steps, want at least {TRAP_ROOT_STEPS}"
    );
}

/// The trap under `config`, searched on one thread.
fn trap_session(ctx: EngineCtx, wq: &WhyQuestion, config: WqeConfig) -> Session {
    Session::new(
        ctx,
        wq,
        WqeConfig {
            budget: 4.0,
            parallelism: 1,
            ..config
        },
    )
}

#[test]
fn deadline_returns_partial_answers() {
    let (ctx, wq) = slow_trap_setup();
    let session = trap_session(
        ctx,
        &wq,
        WqeConfig {
            deadline_ms: 30.0,
            ..Default::default()
        },
    );
    let t0 = Instant::now();
    let report = session
        .run(Algorithm::AnsW, &wq)
        .expect("deadline is a partial answer, not an error");
    // The search stops soon after the deadline (generous margin for CI):
    // cooperative checks sit between pool items, before the first and
    // every 16th matcher candidate, and inside the BFS oracle, so a long
    // join cannot pin the run for seconds.
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "run outlived its deadline by far: {:?}",
        t0.elapsed()
    );
    assert_eq!(report.termination, Termination::Deadline);
    assert!(report.termination.is_partial());
    // The root evaluation always commits before the deadline check, so
    // best-so-far exists (the anytime contract of §5.1).
    assert!(report.best.is_some(), "deadline must return best-so-far");
    assert!(!report.optimal_reached, "30ms is not enough to finish");
}

#[test]
fn deadline_tags_fmansw_whymany_and_whyempty_partial() {
    // These three evaluate outside the worker pool, so only the governor
    // scope `Session::run` enters lets a deadline reach their matcher and
    // oracle calls. Each evaluates the trap's query first, which outlasts
    // a 20ms deadline, so none may come back `Complete`.
    for algorithm in [Algorithm::FMAnsW, Algorithm::WhyMany, Algorithm::WhyEmpty] {
        let (ctx, wq) = slow_trap_setup();
        let session = trap_session(
            ctx,
            &wq,
            WqeConfig {
                deadline_ms: 20.0,
                ..Default::default()
            },
        );
        let t0 = Instant::now();
        let report = session
            .run(algorithm, &wq)
            .expect("deadline is a partial answer, not an error");
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "{algorithm:?} outlived its deadline by far: {:?}",
            t0.elapsed()
        );
        assert_eq!(report.termination, Termination::Deadline, "{algorithm:?}");
    }
}

#[test]
fn cancellation_stops_a_running_session_from_another_thread() {
    let (ctx, wq) = slow_trap_setup();
    let session = trap_session(
        ctx,
        &wq,
        WqeConfig {
            time_limit_ms: None,
            ..Default::default()
        },
    );
    let gov = Arc::clone(&session.governor);
    let handle = std::thread::spawn(move || {
        let t0 = Instant::now();
        let report = session
            .run(Algorithm::AnsW, &wq)
            .expect("cancellation is not an error");
        (report, t0.elapsed())
    });
    std::thread::sleep(Duration::from_millis(50));
    gov.cancel();
    let (report, elapsed) = handle.join().expect("search thread exits cleanly");
    assert_eq!(report.termination, Termination::Cancelled);
    assert!(report.termination.is_partial());
    assert!(report.best.is_some(), "cancel must return best-so-far");
    assert!(
        elapsed < Duration::from_secs(10),
        "cancel must stop the run promptly, took {elapsed:?}"
    );
}

#[test]
fn step_cap_is_deterministic_across_parallelism() {
    let graph = Arc::new(dbpedia_like(0.02, 5));
    let oracle: Arc<dyn DistanceOracle> = Arc::new(Oracle::build(&graph));
    let qs = generated_questions(&graph, &oracle, 3);
    assert!(qs.len() >= 2, "suite too small");
    let ctx = EngineCtx::new(Arc::clone(&graph), Arc::clone(&oracle));

    for wq in &qs {
        // Calibrate: how much join work does the full search do?
        let base_cfg = WqeConfig {
            budget: 3.0,
            max_expansions: 300,
            top_k: 3,
            parallelism: 1,
            ..Default::default()
        };
        let session = Session::new(ctx.clone(), wq, base_cfg.clone());
        let full = session.run(Algorithm::AnsW, wq).unwrap();
        if full.match_steps < 2 {
            continue; // degenerate question, nothing to cap
        }
        // Cap at half the full work: the search must stop early, with
        // `StepCap`, at the same trajectory point for every thread count.
        let cap = (full.match_steps / 2).max(1);
        let runs: Vec<wqe::core::AnswerReport> = THREAD_COUNTS
            .iter()
            .map(|&t| {
                let session = Session::new(
                    ctx.clone(),
                    wq,
                    WqeConfig {
                        parallelism: t,
                        max_match_steps: cap,
                        ..base_cfg.clone()
                    },
                );
                session.run(Algorithm::AnsW, wq).unwrap()
            })
            .collect();
        for r in &runs {
            assert_eq!(r.termination, Termination::StepCap, "cap {cap} must trip");
            assert!(r.match_steps > cap, "trips only on excess");
        }
        let fps: Vec<String> = runs.iter().map(fingerprint).collect();
        assert_eq!(fps[0], fps[1], "step cap: parallelism 1 vs 2 diverged");
        assert_eq!(fps[0], fps[2], "step cap: parallelism 1 vs 8 diverged");
    }
}

/// Regression pin for the matcher's step accounting: every candidate the
/// matcher pops charges at least one step (pruned candidates used to
/// consume zero, letting a capped search spin far past its budget), and
/// the total is identical at any parallelism. The constant pins the paper
/// scenario's exact count so an accounting change fails loudly instead of
/// silently recalibrating the cap tests above.
#[test]
fn match_step_accounting_is_exact_and_parallelism_invariant() {
    const EXPECTED_MATCH_STEPS: u64 = 326;
    let graph = Arc::new(wqe::graph::product::product_graph().graph);
    let oracle: Arc<dyn DistanceOracle> = Arc::new(PllIndex::build(&graph));
    let ctx = EngineCtx::new(Arc::clone(&graph), oracle);
    let wq = wqe::core::paper::paper_question(&graph);
    let counts: Vec<u64> = THREAD_COUNTS
        .iter()
        .map(|&t| {
            let session = Session::new(
                ctx.clone(),
                &wq,
                WqeConfig {
                    budget: 4.0,
                    parallelism: t,
                    ..Default::default()
                },
            );
            let report = session.run(Algorithm::AnsW, &wq).unwrap();
            assert_eq!(report.termination, Termination::Complete);
            report.match_steps
        })
        .collect();
    assert!(
        counts.iter().all(|&c| c == counts[0]),
        "match steps diverged across parallelism {THREAD_COUNTS:?}: {counts:?}"
    );
    assert_eq!(
        counts[0], EXPECTED_MATCH_STEPS,
        "paper-scenario step count moved; if the matcher's work (not its \
         accounting) legitimately changed, re-pin the constant"
    );
}

#[test]
fn frontier_cap_is_deterministic_across_parallelism() {
    let graph = Arc::new(dbpedia_like(0.02, 5));
    let oracle: Arc<dyn DistanceOracle> = Arc::new(Oracle::build(&graph));
    let qs = generated_questions(&graph, &oracle, 3);
    assert!(qs.len() >= 2, "suite too small");
    let ctx = EngineCtx::new(Arc::clone(&graph), Arc::clone(&oracle));

    // AnsW retains its arena and AnsHeu its visited set; both trip the cap
    // at the same serial point at every parallelism.
    let mut capped = Vec::new();
    for (wq, algorithm) in qs
        .iter()
        .flat_map(|wq| [Algorithm::AnsW, Algorithm::AnsHeu].map(|a| (wq, a)))
    {
        let base_cfg = WqeConfig {
            budget: 3.0,
            max_expansions: 300,
            top_k: 3,
            parallelism: 1,
            ..Default::default()
        };
        let session = Session::new(ctx.clone(), wq, base_cfg.clone());
        let full = session.run(algorithm, wq).unwrap();
        if full.frontier_peak < 4 {
            continue; // too small a search tree to cap meaningfully
        }
        let cap = full.frontier_peak / 2;
        capped.push(algorithm);
        let runs: Vec<wqe::core::AnswerReport> = THREAD_COUNTS
            .iter()
            .map(|&t| {
                let session = Session::new(
                    ctx.clone(),
                    wq,
                    WqeConfig {
                        parallelism: t,
                        max_frontier_states: cap,
                        ..base_cfg.clone()
                    },
                );
                session.run(algorithm, wq).unwrap()
            })
            .collect();
        for r in &runs {
            assert_eq!(
                r.termination,
                Termination::FrontierCap,
                "{algorithm}: cap {cap} must trip"
            );
            if algorithm == Algorithm::AnsW {
                assert_eq!(r.frontier_peak, cap + 1, "stops at first excess state");
            }
        }
        let fps: Vec<String> = runs.iter().map(fingerprint).collect();
        assert_eq!(
            fps[0], fps[1],
            "{algorithm} frontier cap: parallelism 1 vs 2"
        );
        assert_eq!(
            fps[0], fps[2],
            "{algorithm} frontier cap: parallelism 1 vs 8"
        );
    }
    assert!(
        capped.contains(&Algorithm::AnsW) && capped.contains(&Algorithm::AnsHeu),
        "both algorithms must be capped at least once: {capped:?}"
    );
}

#[test]
fn injected_panic_fails_one_session_without_poisoning_siblings() {
    let graph = Arc::new(wqe::graph::product::product_graph().graph);
    let inner: Arc<dyn DistanceOracle> = Arc::new(PllIndex::build(&graph));
    // The very first oracle call panics; after that single fault the
    // wrapper is a pure pass-through.
    let oracle: Arc<dyn DistanceOracle> = Arc::new(FakeOracle::panic_once(inner));
    let ctx = EngineCtx::new(Arc::clone(&graph), oracle);
    let wq = wqe::core::paper::paper_question(&graph);
    let cfg = WqeConfig {
        budget: 4.0,
        ..Default::default()
    };

    // Session A absorbs the fault: a typed error, not an unwind.
    let a = Session::new(ctx.clone(), &wq, cfg.clone());
    match a.run(Algorithm::AnsW, &wq) {
        Err(WqeError::WorkerPanicked { message, .. }) => {
            assert!(message.contains("injected oracle fault"), "{message}");
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }

    // Sibling session B shares the same ctx (same matcher cache lineage,
    // same oracle, same graph) and must be completely unaffected — all the
    // way to the paper's optimal rewrite.
    let b = Session::new(ctx.clone(), &wq, cfg);
    let report = b
        .run(Algorithm::AnsW, &wq)
        .expect("sibling session keeps working");
    assert_eq!(report.termination, Termination::Complete);
    assert!(report.optimal_reached, "B still reaches cl* = 0.5");
    let best = report.best.expect("B finds the rewrite");
    assert!((best.closeness - 0.5).abs() < 1e-9);

    // And the calling thread's scope stack is clean after both runs.
    assert!(wqe::core::governor::current().is_none());
}
