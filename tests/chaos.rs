//! Chaos suite: randomized, deterministic fault schedules across the whole
//! stack, checking the **never-wrong invariant** — under any injected
//! fault, every query yields a bit-correct answer, a `Termination`-tagged
//! partial, or a typed `WqeError`. Faults degrade latency, never answers.
//!
//! Schedules come from [`wqe::pool::fault::FaultPlan`]: a splitmix64
//! function of (seed, site, call number), so a failing run reproduces
//! exactly from its seed. The suite's base seed is `WQE_CHAOS_SEED`
//! (default below); `scripts/verify.sh` pins it.
//!
//! A plan is active only inside the request scope that names it
//! (`wqe::pool::scope::Scope`): the engine's pool workers inherit it, and
//! a service or HTTP server built inside the scope runs under it. Tests therefore run
//! concurrently without seeing each other's faults, and baselines are
//! computed outside the scope, fault-free.

mod common;

use std::sync::Arc;
use wqe::core::engine::{Algorithm, WqeEngine};
use wqe::core::service::{QueryRequest, QueryService, QueryStatus, ServiceConfig};
use wqe::core::{EngineCtx, GraphStore, OracleTier, WhyQuestion, WqeConfig, WqeError};
use wqe::graph::{Graph, GraphUpdate};
use wqe::pool::fault::{FaultPlan, FaultSite};
use wqe::pool::scope::{Scope, ScopeGuard};

/// Base seed for every schedule in this suite; override with
/// `WQE_CHAOS_SEED=<n>` to explore (failures print the effective seed).
fn chaos_seed() -> u64 {
    std::env::var("WQE_CHAOS_SEED")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0xC0FFEE)
}

/// Enters `plan` as the calling thread's fault plan until the guard drops.
fn armed(plan: &Arc<FaultPlan>) -> ScopeGuard {
    Scope {
        faults: Some(Arc::clone(plan)),
        ..Scope::default()
    }
    .enter()
}

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

const ALGORITHMS: [Algorithm; 5] = [
    Algorithm::AnsW,
    Algorithm::AnsHeu,
    Algorithm::FMAnsW,
    Algorithm::WhyMany,
    Algorithm::WhyEmpty,
];

fn setup() -> (Arc<Graph>, WhyQuestion) {
    let g = Arc::new(wqe::graph::product::product_graph().graph);
    let q = wqe::core::paper::paper_question(&g);
    (g, q)
}

fn config(parallelism: usize) -> WqeConfig {
    WqeConfig {
        budget: 3.0,
        parallelism,
        ..Default::default()
    }
}

/// Bit-exact comparable summary of a report's answers.
fn fingerprint(report: &wqe::core::AnswerReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut push = |r: &wqe::core::RewriteResult| {
        let _ = write!(
            out,
            "[{:x}/{:x}/{:?}/{:?}/{}]",
            r.closeness.to_bits(),
            r.cost.to_bits(),
            r.ops,
            r.matches,
            r.satisfies
        );
    };
    if let Some(b) = &report.best {
        push(b);
    }
    for r in &report.top_k {
        push(r);
    }
    out
}

fn run(
    ctx: &EngineCtx,
    q: &WhyQuestion,
    algo: Algorithm,
    t: usize,
) -> Result<wqe::core::AnswerReport, WqeError> {
    WqeEngine::try_new(ctx.clone(), q.clone(), algo.apply_to(config(t)))
        .and_then(|e| e.try_run(algo))
}

/// Oracle faults ride the oracle's degradation ladder (retry → breaker →
/// exact-parity fallback): answers stay bit-identical to a fault-free run
/// at every parallelism, and the plan provably fired — on a fresh context
/// and on a live store's overlay epoch, whose tier sits on the previous
/// epoch's.
#[test]
fn oracle_faults_never_change_answers() {
    let (g, q) = setup();
    let store = GraphStore::new(Arc::clone(&g));
    let (u, v) = g
        .node_ids()
        .find_map(|u| g.out_neighbors(u).first().map(|&(v, _)| (u, v)))
        .expect("the product graph has edges");
    let report = store
        .apply(&[GraphUpdate::DeleteEdge { from: u, to: v }])
        .unwrap();
    assert_eq!(report.tier, OracleTier::Overlay);
    let overlay = store.pin();
    let contexts = [
        ("fresh", EngineCtx::with_default_oracle(Arc::clone(&g))),
        ("overlay", overlay.ctx().clone()),
    ];
    let mut baselines = Vec::new();
    for (name, ctx) in &contexts {
        for algo in [Algorithm::AnsW, Algorithm::AnsHeu] {
            for &t in &THREAD_COUNTS {
                let expected = fingerprint(&run(ctx, &q, algo, t).unwrap());
                baselines.push((*name, ctx, algo, t, expected));
            }
        }
    }

    let plan = Arc::new(FaultPlan::new(chaos_seed()).arm(FaultSite::Oracle, 2));
    let _fault = armed(&plan);
    for (name, ctx, algo, t, expected) in &baselines {
        let report = run(ctx, &q, *algo, *t).unwrap_or_else(|e| {
            panic!("{name} {algo:?}/p{t}: oracle faults must be absorbed, got {e}")
        });
        assert_eq!(
            &fingerprint(&report),
            expected,
            "{name}: {algo:?} at parallelism {t} changed answers under oracle faults (seed {})",
            plan.seed()
        );
    }
    assert!(plan.fired(FaultSite::Oracle) > 0, "schedule never fired");
}

/// An armed plan that never fires — every site armed, period `u64::MAX`,
/// budget zero — makes every hook pay the schedule hash and the budget
/// check, yet changes nothing: five algorithms at every parallelism, direct
/// and through the service's queue and caches, stay bit-identical to the
/// plan-free runs, and the plan records zero faults.
#[test]
fn armed_never_firing_plan_leaves_answers_bit_identical() {
    let (g, q) = setup();
    let ctx = EngineCtx::with_default_oracle(Arc::clone(&g));
    let serve = |algo: Algorithm| {
        let svc = QueryService::new(
            ctx.clone(),
            ServiceConfig {
                max_inflight: 1,
                base_config: config(2),
                ..Default::default()
            },
        );
        let resp = svc.call(QueryRequest::new(q.clone(), algo));
        fingerprint(resp.report().expect("served"))
    };
    let mut baselines = Vec::new();
    for algo in ALGORITHMS {
        for &t in &THREAD_COUNTS {
            baselines.push((algo, t, fingerprint(&run(&ctx, &q, algo, t).unwrap())));
        }
    }
    let served: Vec<String> = ALGORITHMS.iter().map(|&a| serve(a)).collect();

    let mut plan = FaultPlan::all_sites(chaos_seed(), u64::MAX);
    for site in FaultSite::ALL {
        plan = plan.with_budget(site, 0);
    }
    let plan = Arc::new(plan);
    let _fault = armed(&plan);
    for (algo, t, expected) in &baselines {
        let report = run(&ctx, &q, *algo, *t).unwrap();
        assert_eq!(
            &fingerprint(&report),
            expected,
            "{algo:?} at parallelism {t} changed answers under an idle plan"
        );
    }
    for (algo, expected) in ALGORITHMS.iter().zip(&served) {
        assert_eq!(&serve(*algo), expected, "{algo:?} served answer changed");
    }
    assert_eq!(plan.total_fired(), 0, "the never-firing plan fired");
}

/// Pool-worker faults (panics inside evaluation workers) are contained by
/// the pool and surface as the typed `WqeError::WorkerPanicked` — never an
/// unwind out of `try_run`, at any parallelism.
#[test]
fn pool_worker_faults_surface_as_typed_errors() {
    let (g, q) = setup();
    let ctx = EngineCtx::with_default_oracle(Arc::clone(&g));
    let baseline = fingerprint(&run(&ctx, &q, Algorithm::AnsW, 2).unwrap());

    let plan = Arc::new(FaultPlan::new(chaos_seed() ^ 1).arm(FaultSite::PoolWorker, 1));
    let _fault = armed(&plan);
    for &t in &THREAD_COUNTS {
        match run(&ctx, &q, Algorithm::AnsW, t) {
            Err(WqeError::WorkerPanicked { message, .. }) => {
                assert!(message.contains("injected"), "unexpected panic: {message}");
            }
            Ok(report) => assert_eq!(
                fingerprint(&report),
                baseline,
                "a run that survived must be bit-correct"
            ),
            Err(other) => panic!("parallelism {t}: wrong error type {other:?}"),
        }
    }
    assert!(plan.fired(FaultSite::PoolWorker) > 0);
}

/// The service's degradation ladder: a transient worker fault (budgeted
/// injection) fails the first attempt, the retry succeeds, and the
/// response is the bit-identical answer — with `retries` and
/// `degraded_serves` visible in the service counters.
#[test]
fn service_retry_ladder_recovers_transient_faults() {
    let (g, q) = setup();
    let ctx = EngineCtx::with_default_oracle(Arc::clone(&g));
    let baseline = {
        let svc = QueryService::new(
            ctx.clone(),
            ServiceConfig {
                max_inflight: 1,
                base_config: config(2),
                ..Default::default()
            },
        );
        let resp = svc.call(QueryRequest::new(q.clone(), Algorithm::AnsW));
        fingerprint(resp.report().expect("fault-free baseline"))
    };

    let plan = Arc::new(
        FaultPlan::new(chaos_seed() ^ 2)
            .arm(FaultSite::PoolWorker, 1)
            .with_budget(FaultSite::PoolWorker, 1),
    );
    let _fault = armed(&plan);
    let svc = QueryService::new(
        ctx,
        ServiceConfig {
            max_inflight: 1,
            base_config: config(2),
            max_retries: Some(2),
            ..Default::default()
        },
    );
    let resp = svc.call(QueryRequest::new(q, Algorithm::AnsW));
    let report = resp
        .report()
        .unwrap_or_else(|| panic!("retry ladder must recover, got {:?}", resp.status));
    assert_eq!(fingerprint(report), baseline, "retried answer diverged");
    assert_eq!(
        plan.fired(FaultSite::PoolWorker),
        1,
        "budget caps at one fault"
    );
    let stats = svc.stats();
    assert!(stats.counters.retries >= 1, "retry not counted");
    assert!(
        stats.counters.degraded_serves >= 1,
        "degraded serve not counted"
    );
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.failed, 0);
}

/// Queue faults look exactly like admission-control saturation: a typed
/// `Rejected { queue_full: true }` response, nothing runs, nothing panics.
#[test]
fn queue_faults_reject_like_saturation() {
    let (g, q) = setup();
    let ctx = EngineCtx::with_default_oracle(Arc::clone(&g));
    let plan = Arc::new(FaultPlan::new(chaos_seed() ^ 3).arm(FaultSite::Queue, 1));
    let _fault = armed(&plan);
    let svc = QueryService::new(
        ctx,
        ServiceConfig {
            max_inflight: 1,
            base_config: config(1),
            ..Default::default()
        },
    );
    let resp = svc.call(QueryRequest::new(q, Algorithm::AnsW));
    match resp.status {
        QueryStatus::Rejected { queue_full, .. } => assert!(queue_full),
        other => panic!("expected a typed rejection, got {other:?}"),
    }
    assert_eq!(svc.stats().rejected, 1);
    assert!(plan.fired(FaultSite::Queue) > 0);
}

/// Cache faults (answer cache and star cache) force misses and recompute:
/// safe by construction — repeated identical requests stay bit-identical,
/// they just stop hitting.
#[test]
fn cache_faults_force_recompute_with_identical_answers() {
    let (g, q) = setup();
    let ctx = EngineCtx::with_default_oracle(Arc::clone(&g));
    let baseline = {
        let svc = QueryService::new(
            ctx.clone(),
            ServiceConfig {
                max_inflight: 1,
                base_config: config(1),
                ..Default::default()
            },
        );
        let resp = svc.call(QueryRequest::new(q.clone(), Algorithm::AnsW));
        fingerprint(resp.report().unwrap())
    };

    let plan = Arc::new(
        FaultPlan::new(chaos_seed() ^ 4)
            .arm(FaultSite::AnswerCache, 1)
            .arm(FaultSite::StarCache, 1),
    );
    let _fault = armed(&plan);
    let svc = QueryService::new(
        ctx,
        ServiceConfig {
            max_inflight: 1,
            base_config: config(1),
            ..Default::default()
        },
    );
    for i in 0..3 {
        let resp = svc.call(QueryRequest::new(q.clone(), Algorithm::AnsW));
        assert!(!resp.cache_hit(), "call {i}: forced misses cannot hit");
        assert_eq!(
            fingerprint(resp.report().unwrap()),
            baseline,
            "call {i}: recomputed answer diverged"
        );
    }
    let stats = svc.stats();
    assert_eq!(stats.counters.answer_cache_hits, 0);
    assert!(stats.counters.faults_injected > 0, "sites never fired");
    assert!(plan.fired(FaultSite::AnswerCache) > 0);
    assert!(plan.fired(FaultSite::StarCache) > 0);
}

/// A snapshot whose PLL sections are corrupt still serves: the sections are
/// quarantined at open, distances fall back to exact BFS, answers match the
/// fresh context bit-for-bit, and the degradation shows up both in startup
/// telemetry and in the per-query profile's `degraded_serves`.
#[test]
fn quarantined_snapshot_serves_bit_identical_answers() {
    let (g, q) = setup();
    let path =
        std::env::temp_dir().join(format!("wqe-chaos-quarantine-{}.wqs", std::process::id()));
    wqe::store::build_and_write_snapshot(&path, &g).unwrap();
    let fresh = EngineCtx::with_default_oracle(Arc::clone(&g));
    let baseline = fingerprint(&run(&fresh, &q, Algorithm::AnsW, 2).unwrap());

    // Corrupt every PLL section: quarantine must absorb all of them.
    let infos = wqe::store::Snapshot::open(&path).unwrap().section_infos();
    let mut bytes = std::fs::read(&path).unwrap();
    let mut corrupted = 0;
    for s in infos
        .iter()
        .filter(|s| s.name.starts_with("pll_") && s.len > 0)
    {
        bytes[s.offset as usize] ^= 0x80;
        corrupted += 1;
    }
    assert!(corrupted > 0, "test graph must carry PLL sections");
    std::fs::write(&path, &bytes).unwrap();

    let degraded = EngineCtx::from_snapshot(&path).unwrap();
    let startup = degraded.snapshot_startup().unwrap();
    assert_eq!(startup.quarantined_sections.len(), corrupted);
    let report = run(&degraded, &q, Algorithm::AnsW, 2).unwrap();
    assert_eq!(
        fingerprint(&report),
        baseline,
        "BFS fallback changed answers"
    );
    let profile = report.profile.expect("profiled by default");
    assert!(
        profile.counters.degraded_serves >= 1,
        "degradation must be visible in --profile telemetry"
    );
    std::fs::remove_file(&path).ok();
}

/// The headline: randomized schedules over *all* engine-visible sites at
/// once, five algorithms, parallelism 1/2/8, several derived seeds. Every
/// outcome must be in the allowed set — bit-correct complete answer,
/// `Termination`-tagged partial, or typed `WqeError` — and the whole sweep
/// must fire faults.
#[test]
fn randomized_all_site_schedules_are_never_wrong() {
    let (g, q) = setup();
    let ctx = EngineCtx::with_default_oracle(Arc::clone(&g));
    let mut baselines = std::collections::HashMap::new();
    for algo in ALGORITHMS {
        // Answers are parallelism-invariant; one baseline per algorithm.
        baselines.insert(algo.as_str(), fingerprint(&run(&ctx, &q, algo, 1).unwrap()));
    }

    let mut total_fired = 0;
    for round in 0..3u64 {
        let seed = chaos_seed().wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ round;
        let plan = Arc::new(
            FaultPlan::new(seed)
                .arm(FaultSite::Oracle, 3)
                .arm(FaultSite::PoolWorker, 7)
                .arm(FaultSite::Queue, 5)
                .arm(FaultSite::AnswerCache, 2)
                .arm(FaultSite::StarCache, 3),
        );
        let _fault = armed(&plan);
        for algo in ALGORITHMS {
            for &t in &THREAD_COUNTS {
                match run(&ctx, &q, algo, t) {
                    Ok(report) => {
                        if report.termination == wqe::core::Termination::Complete {
                            assert_eq!(
                                &fingerprint(&report),
                                &baselines[algo.as_str()],
                                "{algo:?}/p{t}/seed {seed}: complete answer diverged"
                            );
                        } else {
                            assert!(
                                report.termination.is_partial(),
                                "{algo:?}/p{t}/seed {seed}: untagged partial"
                            );
                        }
                    }
                    // Typed errors are an allowed outcome; the match arm
                    // itself proves no panic unwound out of try_run.
                    Err(WqeError::WorkerPanicked { .. }) => {}
                    Err(other) => panic!("{algo:?}/p{t}/seed {seed}: wrong error class {other:?}"),
                }
            }
        }
        total_fired += plan.total_fired();
    }
    assert!(total_fired > 0, "three rounds without a single fault");
}

/// Store-layer faults at open: a failed mmap falls back to an owned read
/// (byte-identical), a corrupted/short read is caught by section checksums
/// — every open yields a healthy snapshot, a quarantined-but-serving one,
/// or a typed `LoadError`. Never a panic, never a silently-wrong graph.
#[test]
fn store_read_faults_are_typed_or_quarantined() {
    let (g, _q) = setup();
    let path = std::env::temp_dir().join(format!("wqe-chaos-store-{}.wqs", std::process::id()));
    wqe::store::build_and_write_snapshot(&path, &g).unwrap();

    let plan = Arc::new(
        FaultPlan::new(chaos_seed() ^ 5)
            .arm(FaultSite::StoreMmap, 2)
            .arm(FaultSite::StoreRead, 2),
    );
    let _fault = armed(&plan);
    for attempt in 0..8 {
        match wqe::store::Snapshot::open(&path) {
            Ok(snap) => {
                // Healthy or quarantined: the graph sections that loaded
                // must decode to exactly the graph that was written.
                let decoded = snap.load_graph();
                match decoded {
                    Ok(d) => {
                        assert_eq!(d.node_count(), g.node_count(), "attempt {attempt}");
                        assert_eq!(d.edge_count(), g.edge_count(), "attempt {attempt}");
                    }
                    Err(e) => {
                        // A fault that hit a graph section after the
                        // checksum pass cannot happen (bytes are immutable
                        // once mapped); decoding errors stay typed anyway.
                        panic!("attempt {attempt}: load_graph errored untypedly: {e}");
                    }
                }
            }
            Err(e) => {
                // Typed corruption outcomes only.
                let s = e.to_string();
                assert!(
                    matches!(
                        e,
                        wqe::graph::LoadError::ChecksumMismatch { .. }
                            | wqe::graph::LoadError::Truncated { .. }
                            | wqe::graph::LoadError::Corrupt { .. }
                            | wqe::graph::LoadError::Io(_)
                    ),
                    "attempt {attempt}: unexpected error class: {s}"
                );
            }
        }
    }
    assert!(
        plan.fired(FaultSite::StoreMmap) + plan.fired(FaultSite::StoreRead) > 0,
        "store sites never fired"
    );
    std::fs::remove_file(&path).ok();
}

/// `HttpConn` faults drop individual connections — at accept or mid-SSE —
/// and nothing else: requests that do get through carry bit-identical
/// answers, the accept loop keeps accepting, and no worker panics.
#[test]
fn http_conn_faults_shed_connections_not_the_server() {
    use std::io::{Read as _, Write as _};

    let spec: serde_json::Value = serde_json::from_str(common::PAPER_SPEC).unwrap();

    let (g, _) = setup();
    let ctx = EngineCtx::with_default_oracle(Arc::clone(&g));
    let service = Arc::new(QueryService::new(
        ctx,
        ServiceConfig {
            max_inflight: 2,
            base_config: config(1),
            ..Default::default()
        },
    ));
    let serve_ctx = wqe::serve::ServeCtx {
        service,
        graph: g,
        store: None,
    };

    // A best-effort exchange: `None` when the connection was dropped on us.
    let post = |addr: std::net::SocketAddr, body: &str| -> Option<(u16, String)> {
        let mut s = std::net::TcpStream::connect(addr).ok()?;
        let req = format!(
            "POST /v1/why HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        s.write_all(req.as_bytes()).ok()?;
        let mut raw = String::new();
        s.read_to_string(&mut raw).ok()?;
        let status: u16 = raw.split_whitespace().nth(1)?.parse().ok()?;
        Some((status, raw.split_once("\r\n\r\n")?.1.to_string()))
    };
    let fingerprint_of = |body: &str| -> Option<String> {
        let v: serde_json::Value = serde_json::from_str(body).ok()?;
        Some(v.get("report")?.get("fingerprint")?.as_str()?.to_string())
    };

    // Baseline from a server bound outside any scope, fault-free, through
    // the full stack.
    let blocking = spec.to_string();
    let expected = {
        let server = wqe::serve::http::HttpServer::bind(serve_ctx.clone(), "127.0.0.1:0")
            .expect("bind baseline server");
        let (status, body) = post(server.addr(), &blocking).expect("fault-free exchange");
        assert_eq!(status, 200);
        fingerprint_of(&body).expect("baseline fingerprint")
    };

    let mut streaming = spec.clone();
    if let serde_json::Value::Object(m) = &mut streaming {
        m.insert("stream".into(), serde_json::Value::Bool(true));
    }
    let streaming = streaming.to_string();

    // The server under test is bound inside the scope, so its accept and
    // connection threads run under the plan. The budget bounds the storm.
    const BUDGET: u64 = 4;
    let plan = Arc::new(
        FaultPlan::new(chaos_seed())
            .arm(FaultSite::HttpConn, 2)
            .with_budget(FaultSite::HttpConn, BUDGET),
    );
    let server = {
        let _fault = armed(&plan);
        wqe::serve::http::HttpServer::bind(serve_ctx, "127.0.0.1:0").expect("bind")
    };
    let addr = server.addr();
    let mut served = 0;
    let mut i = 0;
    // Alternate blocking and streaming so the fault hits both the
    // accept-time site and the mid-SSE site, until the budget is spent.
    while plan.fired(FaultSite::HttpConn) < BUDGET || i < 12 {
        assert!(
            i < 400,
            "budget never spent: {} of {BUDGET} fired (seed {})",
            plan.fired(FaultSite::HttpConn),
            plan.seed()
        );
        let body = if i % 2 == 0 { &blocking } else { &streaming };
        if let Some((status, reply)) = post(addr, body) {
            if i % 2 == 0 {
                assert_eq!(status, 200, "served request failed under chaos");
                assert_eq!(
                    fingerprint_of(&reply).expect("served reply carries a report"),
                    expected,
                    "chaos changed a served answer (seed {})",
                    plan.seed()
                );
                served += 1;
            }
        } // else: the injected drop — exactly what must stay contained
        i += 1;
    }
    assert!(served > 0, "every request dropped (seed {})", plan.seed());

    // The storm is over (budget spent); the same server still accepts and
    // answers.
    let (status, body) = post(addr, &blocking).expect("post-chaos exchange");
    assert_eq!(status, 200);
    assert_eq!(fingerprint_of(&body).unwrap(), expected);
    assert_eq!(plan.fired(FaultSite::HttpConn), BUDGET);
}
