//! Fault-injection hook overhead harness.
//!
//! ```text
//! bench_faults [--out results/BENCH_faults.json] [--scale F]
//!              [--queries N] [--reps R]
//! ```
//!
//! The chaos layer's injection hooks sit on production hot paths: every
//! `ResilientOracle` distance call, every pool item, every queue push and
//! cache probe consults [`fault::fire`]. This harness prices that
//! machinery on the same generated why-question suite twice per rep:
//!
//! * `bare` — no fault plan in scope: each hook is one thread-local
//!   borrow and a branch. This is the production serving path.
//! * `armed` — a plan is entered with every site armed at an
//!   astronomically large period *and* a zero fault budget, so it never
//!   fires but every hook pays full freight: the schedule hash and the
//!   budget check.
//!
//! Both modes must produce bit-identical answers; the JSON records the
//! min-over-reps wall clock of each mode and the relative overhead, with
//! the <3% target `scripts/verify.sh` gates on.

use std::sync::Arc;
use std::time::Instant;
use wqe_bench::runner::{QuestionKind, Workload};
use wqe_core::pool::fault::{self, FaultPlan, FaultSite};
use wqe_core::{answ, AnswerReport, EngineCtx, Session, WqeConfig};
use wqe_datagen::{dbpedia_like, QueryGenConfig, WhyGenConfig};

fn fingerprint(reports: &[AnswerReport]) -> String {
    reports
        .iter()
        .map(|r| match &r.best {
            None => "none;".to_string(),
            Some(b) => format!(
                "{:x}/{:x}/{:?}/{:?};",
                b.closeness.to_bits(),
                b.cost.to_bits(),
                b.ops,
                b.matches
            ),
        })
        .collect()
}

#[derive(serde::Serialize)]
struct BenchFaults {
    host_available_parallelism: usize,
    queries: usize,
    reps: usize,
    armed_sites: usize,
    faults_fired: u64,
    bare_ms: f64,
    armed_ms: f64,
    overhead_pct: f64,
    target_pct: f64,
    within_target: bool,
    answers_identical: bool,
}

/// A plan with every site armed but physically unable to fire: the period
/// is so large the schedule hash essentially never lands on it, and the
/// budget is zero as a hard backstop. Hooks still pay the full armed cost.
fn never_firing_plan(seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::all_sites(seed, u64::MAX);
    for site in FaultSite::ALL {
        plan = plan.with_budget(site, 0);
    }
    plan
}

fn run_suite(wl: &Workload, ctx: &EngineCtx, cfg: &WqeConfig) -> (f64, String) {
    let t0 = Instant::now();
    let reports: Vec<AnswerReport> = wl
        .questions
        .iter()
        .map(|gw| {
            let session = Session::new(ctx.clone(), &gw.question, cfg.clone());
            answ(&session, &gw.question)
        })
        .collect();
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    (ms, fingerprint(&reports))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = "results/BENCH_faults.json".to_string();
    // Same sizing rationale as bench_governor: ~20ms per mode, small
    // enough for CI, large enough that a <3% signal beats scheduler noise.
    let mut scale = 10.0f64;
    let mut queries = 8usize;
    let mut reps = 7usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" if i + 1 < args.len() => {
                out = args[i + 1].clone();
                i += 1;
            }
            "--scale" if i + 1 < args.len() => {
                scale = args[i + 1].parse().unwrap_or(1.0);
                i += 1;
            }
            "--queries" if i + 1 < args.len() => {
                queries = args[i + 1].parse().unwrap_or(6);
                i += 1;
            }
            "--reps" if i + 1 < args.len() => {
                reps = args[i + 1].parse().unwrap_or(5).max(1);
                i += 1;
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: bench_faults [--out FILE] [--scale F] [--queries N] [--reps R]");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let wl = Workload::build(
        "faults",
        dbpedia_like(0.02 * scale, 23),
        queries,
        &QueryGenConfig {
            edges: 2,
            seed: 23,
            ..Default::default()
        },
        &WhyGenConfig::default(),
        QuestionKind::Why,
    );
    // The production serving stack: with_default_oracle wraps the primary
    // in ResilientOracle, so the ladder's hook cost is in the measurement.
    let ctx = EngineCtx::with_default_oracle(Arc::clone(&wl.graph));
    let cfg = WqeConfig {
        budget: 3.0,
        max_expansions: 150,
        time_limit_ms: None,
        parallelism: 2,
        ..Default::default()
    };

    let plan = Arc::new(never_firing_plan(0xFA_07));

    // Warm once, then min-over-reps with alternating mode order so drift
    // hits both sides equally.
    let (_, reference) = run_suite(&wl, &ctx, &cfg);
    let mut bare_ms = f64::INFINITY;
    let mut armed_ms = f64::INFINITY;
    let mut answers_identical = true;
    let bare = |wl: &Workload| run_suite(wl, &ctx, &cfg);
    let armed = |wl: &Workload| {
        let _fault = fault::enter(Arc::clone(&plan));
        run_suite(wl, &ctx, &cfg)
    };
    for rep in 0..reps {
        let ((b_ms, b_fp), (a_ms, a_fp)) = if rep % 2 == 0 {
            let b = bare(&wl);
            let a = armed(&wl);
            (b, a)
        } else {
            let a = armed(&wl);
            let b = bare(&wl);
            (b, a)
        };
        eprintln!("rep {rep}: bare {b_ms:.1} ms, armed {a_ms:.1} ms");
        bare_ms = bare_ms.min(b_ms);
        armed_ms = armed_ms.min(a_ms);
        answers_identical &= b_fp == reference && a_fp == reference;
    }
    let overhead_pct = (armed_ms / bare_ms.max(1e-9) - 1.0) * 100.0;
    let report = BenchFaults {
        host_available_parallelism: host,
        queries: wl.questions.len(),
        reps,
        armed_sites: FaultSite::ALL.len(),
        faults_fired: plan.total_fired(),
        bare_ms,
        armed_ms,
        overhead_pct,
        target_pct: 3.0,
        within_target: overhead_pct < 3.0,
        answers_identical,
    };
    assert_eq!(report.faults_fired, 0, "the never-firing plan fired");
    assert!(report.answers_identical, "idle fault hooks changed answers");
    eprintln!(
        "fault-hook overhead: {overhead_pct:.2}% (bare {bare_ms:.1} ms, armed {armed_ms:.1} ms)"
    );
    let json = serde_json::to_string_pretty(&report).expect("serializable report");
    std::fs::write(&out, &json).unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    });
    eprintln!("wrote {out}");
}
