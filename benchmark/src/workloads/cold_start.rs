//! `cold_start`: what `wqe-cli index build` and a process that has just
//! opened a snapshot pay.
//!
//! Each cycle (A) builds the index of the DBpedia-like graph and writes
//! the snapshot, opens it and answers a first question; then (B) opens a
//! streamed snapshot past `PLL_NODE_LIMIT` — no labels, bounded-BFS
//! oracle — answers a first question and then the rest of its pool under
//! `answ` and `heu`, all on that fresh context. Questions are answered on
//! the engine directly, on the calling thread, as `wqe-cli why --snapshot`
//! answers them.
//!
//! A cold start has no traffic to draw: the sequence is the same for every
//! `--seed`.

use crate::config::{service_config, Scale, DATASET_SEED, TRUTH_STEP_LIMIT, TRUTH_STEP_LIMIT_BFS};
use crate::harness::median;
use crate::inputs::{
    dbpedia_graph, direct_answer, question_pool, try_direct_answer, Op, PoolQuestion, Quality,
};
use crate::replay::ServiceTotals;
use crate::run::{check_digest, end_to_end, write_trace, RunArgs, RunResult, SetupClock};
use crate::servepath::{body_of, call_served, ReadLog};
use crate::trace::{Tracer, TracingOracle};
use crate::{layers, replay};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use wqe_core::{Algorithm, EngineCtx, QueryService};
use wqe_datagen::{stream_snapshot, ScaleConfig};
use wqe_graph::Graph;
use wqe_store::build_and_write_snapshot;

/// One side of a cycle: a graph's questions, their ops and the reference
/// answer of each op.
struct Side {
    ctx: EngineCtx,
    pool: Vec<PoolQuestion>,
    ops: Vec<Op>,
    expected: Vec<String>,
    bodies: Vec<String>,
}

impl Side {
    fn new(ctx: EngineCtx, pool_size: usize, step_limit: usize, algos: &[Algorithm]) -> Side {
        let pool = question_pool(&ctx, [pool_size, 0, 0], step_limit);
        let ops: Vec<Op> = (0..pool.len())
            .flat_map(|question| algos.iter().map(move |&algo| Op { question, algo }))
            .collect();
        let expected = ops
            .iter()
            .map(|&op| direct_answer(&ctx, &pool, op).fingerprint())
            .collect();
        let bodies = ops
            .iter()
            .map(|&op| body_of(ctx.graph(), &pool, op, false))
            .collect();
        Side {
            ctx,
            pool,
            ops,
            expected,
            bodies,
        }
    }
}

struct Prepared {
    graph: Arc<Graph>,
    pll_path: PathBuf,
    bfs_path: PathBuf,
    /// Phase A: the first question after opening the PLL snapshot.
    pll: Side,
    /// Phase B: every question of the BFS-tier graph under `answ` and `heu`.
    bfs: Side,
}

fn prepare(scale: &Scale, dir: &Path) -> (Prepared, f64) {
    let graph = dbpedia_graph(scale.dbpedia_scale);
    let t = Instant::now();
    let ctx = EngineCtx::with_default_oracle(Arc::clone(&graph));
    let index_build_s = t.elapsed().as_secs_f64();
    let pll = Side::new(ctx, scale.cold_pool, TRUTH_STEP_LIMIT, &[Algorithm::AnsW]);

    let bfs_path = dir.join("bfs.wqs");
    stream_snapshot(&ScaleConfig::new(scale.bfs_nodes, DATASET_SEED), &bfs_path)
        .expect("stream the BFS-tier snapshot");
    let ctx = EngineCtx::from_snapshot(&bfs_path).expect("open the BFS-tier snapshot");
    let bfs = Side::new(
        ctx,
        scale.cold_pool,
        TRUTH_STEP_LIMIT_BFS,
        &[Algorithm::AnsW, Algorithm::AnsHeu],
    );
    let p = Prepared {
        graph,
        pll_path: dir.join("pll.wqs"),
        bfs_path,
        pll,
        bfs,
    };
    (p, index_build_s)
}

/// What the cycles of one phase observed.
#[derive(Default)]
struct Cycles {
    /// Phase-B questions: the workload's read ops.
    reads: ReadLog,
    /// Phase-A first questions, kept apart: they are checked, not timed
    /// as reads.
    first_pll: ReadLog,
    build_s: Vec<f64>,
    ttfa_pll_ms: Vec<f64>,
    ttfa_bfs_ms: Vec<f64>,
    quality: Quality,
    totals: ServiceTotals,
    /// Phase-B questions per second of each whole cycle.
    cycle_rates: Vec<f64>,
    wall_s: f64,
}

/// A freshly opened snapshot. Untraced runs answer on the engine directly,
/// on the calling thread, as `wqe-cli why --snapshot` does. Traced runs
/// put a fresh `QueryService` over the context (its oracle wrapped) and ask
/// through the in-process serve path, so that the serve and service layers
/// have spans to show on this workload too.
struct Opened {
    ctx: EngineCtx,
    service: Option<QueryService>,
}

fn open(path: &Path, served: bool, traced: bool) -> Opened {
    let ctx = EngineCtx::from_snapshot(path).expect("open a snapshot this run wrote");
    let ctx = if traced {
        let oracle = Arc::new(TracingOracle::new(Arc::clone(ctx.oracle())));
        EngineCtx::new(Arc::clone(ctx.graph()), oracle)
    } else {
        ctx
    };
    let service = served.then(|| QueryService::new(ctx.clone(), service_config(1, 1)));
    Opened { ctx, service }
}

/// Runs `cycles` cycles; `served` and `tracer` as in [`Opened`].
fn run_cycles(
    p: &Prepared,
    cycles: usize,
    served: bool,
    mut tracer: Option<&mut Tracer>,
) -> Cycles {
    let mut out = Cycles::default();
    let traced = tracer.is_some();
    let mut request_id = 0u64;
    let mut ask =
        |opened: &Opened, side: &Side, i: usize, log: &mut ReadLog, tracer: Option<&mut Tracer>| {
            let expected = Some(side.expected[i].as_str());
            match &opened.service {
                Some(service) => {
                    request_id += 1;
                    let body = &side.bodies[i];
                    let (ms, response, out_len) =
                        call_served(service, opened.ctx.graph(), body, tracer, request_id);
                    log.bytes_in += body.len() as u64;
                    log.bytes_out += out_len as u64;
                    log.record(i, ms, &response, expected);
                    response.report().cloned()
                }
                None => {
                    let t = Instant::now();
                    let report = try_direct_answer(&opened.ctx, &side.pool, side.ops[i]).ok();
                    log.record_report(
                        i,
                        t.elapsed().as_secs_f64() * 1e3,
                        report.as_ref(),
                        expected,
                    );
                    report
                }
            }
        };
    let started = Instant::now();
    for _ in 0..cycles {
        let cycle_started = Instant::now();
        // (A) build + write, open, first answer.
        let t = Instant::now();
        let build =
            || build_and_write_snapshot(&p.pll_path, &p.graph).expect("write the PLL snapshot");
        match tracer.as_deref_mut() {
            Some(tr) => tr.span("store.build_and_write", None, 0, build),
            None => build(),
        };
        out.build_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let opened = open(&p.pll_path, served, traced);
        ask(
            &opened,
            &p.pll,
            0,
            &mut out.first_pll,
            tracer.as_deref_mut(),
        );
        out.ttfa_pll_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.totals.add_service(opened.service.as_ref());

        // (B) open the BFS-tier snapshot, first answer, then the rest, in
        // pool order: the bounded-BFS oracle memoizes traversals, so what a
        // question costs depends on the questions before it.
        let t = Instant::now();
        let opened = open(&p.bfs_path, served, traced);
        for i in 0..p.bfs.ops.len() {
            let report = ask(&opened, &p.bfs, i, &mut out.reads, tracer.as_deref_mut());
            if i == 0 {
                out.ttfa_bfs_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
            if let Some(report) = &report {
                out.quality.observe(&p.bfs.pool, p.bfs.ops[i], report);
            }
        }
        out.totals.add_service(opened.service.as_ref());
        out.cycle_rates
            .push(p.bfs.ops.len() as f64 / cycle_started.elapsed().as_secs_f64());
    }
    out.wall_s = started.elapsed().as_secs_f64();
    out
}

/// Makes every thread of this process allocate from glibc's main arena.
///
/// Each cycle builds a PLL index on pool threads and then answers on one
/// thread. With per-thread arenas, what the build threads' arenas leave
/// behind decides how the answering thread's allocations fare, and that
/// differs from process to process: on the reference host 2–3 runs in 10
/// were 40% slower on every BFS-tier question, from their first cycle to
/// their last, while `MALLOC_ARENA_MAX=1` runs never were. The workload has
/// one busy thread at a time outside the index build, so one arena takes
/// nothing from it; the workloads that allocate from several threads at
/// once keep the default.
fn use_one_malloc_arena() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_ARENA_MAX: i32 = -8;
        // SAFETY: `mallopt` only sets a parameter of the allocator this
        // process already uses; it is called before the run starts any
        // thread, and a refusal (return 0) leaves the default in place.
        unsafe {
            mallopt(M_ARENA_MAX, 1);
        }
    }
}

pub fn run(args: &RunArgs) -> RunResult {
    use_one_malloc_arena();
    let scale = &args.scale;
    let cycles = scale.units(scale.cold_cycles_per_s, args.seconds);
    let dir = args.scratch_dir().expect("create the scratch directory");
    if args.trace {
        return run_traced(args, cycles, &dir);
    }
    let mut clock = SetupClock::new(args.started);
    let p = clock.repeat(scale.setup_repeats, || prepare(scale, &dir));
    let first_timed_op = Instant::now();
    let c = run_cycles(&p, cycles, false, None);
    eprintln!(
        "cold_start: {cycles} cycles in {:.2} s; build+write {:.3} s, ttfa pll {:.1} ms, ttfa bfs {:.1} ms (medians)",
        c.wall_s,
        median(&c.build_s),
        median(&c.ttfa_pll_ms),
        median(&c.ttfa_bfs_ms),
    );
    let mut result = RunResult::default();
    let mut digest = c.reads.digest.clone();
    digest.push(&c.first_pll.digest.hex());
    let digest = digest.hex();
    check_digest(args, "cold_start", &digest, &mut result.violations);
    // The index this workload's users wait for is the one each cycle
    // builds and writes, not the one set-up builds to make questions.
    result.metrics = end_to_end(
        &c.reads.per_op(),
        &c.cycle_rates,
        clock.setup_s(first_timed_op),
        median(&c.build_s),
        &c.quality,
    );
    result.attempted = c.reads.attempted() + c.first_pll.attempted();
    result.failed = c.reads.failed + c.first_pll.failed;
    result.answers_digest = Some(digest);
    result
}

fn run_traced(args: &RunArgs, cycles: usize, dir: &Path) -> RunResult {
    let (p, _) = prepare(&args.scale, dir);
    let cycles = (cycles / 3).max(1);
    let plain = run_cycles(&p, cycles, true, None);
    let mut tracer = Tracer::default();
    let traced = run_cycles(&p, cycles, true, Some(&mut tracer));

    let mut result = RunResult::default();
    if plain.reads.digest.hex() != traced.reads.digest.hex() {
        result
            .violations
            .push("the traced replay answered differently from the plain one".into());
    }
    let mut m = replay::metrics(
        &plain.reads,
        plain.wall_s,
        &traced.reads,
        traced.wall_s,
        traced.totals,
        &tracer,
    );
    let probes = layers::Inputs {
        ctx: &p.pll.ctx,
        pool: &p.pll.pool,
        ops: &p.pll.ops,
        parallelism: 1,
        bfs: Some(layers::Bfs {
            path: &p.bfs_path,
            ctx: &p.bfs.ctx,
            pool: &p.bfs.pool,
            ops: &p.bfs.ops,
        }),
        live: true,
        args,
    };
    m.extend(layers::probe_all(
        &probes,
        &mut tracer,
        &mut result.violations,
    ));
    // This workload measures the two first-answer times in its own cycles;
    // they replace the store probe's single shot.
    m.set("store.ttfa_pll_ms", median(&traced.ttfa_pll_ms));
    m.set("store.ttfa_bfs_ms", median(&traced.ttfa_bfs_ms));
    write_trace(args, "cold_start", &tracer, &mut result.violations);
    result.metrics = m;
    result.attempted = plain.reads.attempted() + traced.reads.attempted();
    result.failed =
        plain.reads.failed + traced.reads.failed + plain.first_pll.failed + traced.first_pll.failed;
    result
}
