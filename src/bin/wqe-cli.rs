//! `wqe-cli` — command-line access to the why-question engine.
//!
//! ```text
//! wqe-cli stats  <graph.jsonl>
//! wqe-cli match  <graph.jsonl> <question.json>          # evaluate Q only
//! wqe-cli why    <graph.jsonl> <question.json> [opts]   # suggest rewrites
//! wqe-cli why    --snapshot <g.wqs> <question.json> ... # from a snapshot
//! wqe-cli serve  <graph.jsonl> <questions.jsonl> [opts] # batch serving
//! wqe-cli serve  --http <port> <graph.jsonl> [opts]     # HTTP + SSE
//! wqe-cli serve  --mcp <graph.jsonl> [opts]             # MCP stdio tool
//! wqe-cli gen    <preset> <scale> <seed> <out.jsonl>    # synthetic data
//! wqe-cli gen    --scale <nodes> <seed> <out.wqs>       # streamed, paper-scale
//! wqe-cli index  build <graph.jsonl> -o <g.wqs>         # durable snapshot
//! wqe-cli index  inspect <g.wqs>                        # header + sections
//! wqe-cli demo                                          # built-in Fig. 1
//! ```
//!
//! The `index` lifecycle persists a graph **and** the distance index the
//! engine would build for it into one versioned binary snapshot
//! (`wqe_store`); `why --snapshot` then answers questions from that file
//! without re-parsing text or re-building the index, with answers
//! bit-identical to the fresh path.
//!
//! `why` options: `--budget B` (default 3), `--top-k K`,
//! `--algo answ|answnc|answb|heu|heub:SEED|whymany|whyempty|fm` (the
//! question file's `"algo"` wins; a `--algo` that disagrees exits 2),
//! `--beam K` (heuristic beam width, now a `WqeConfig` field), `--lambda X`,
//! `--theta X`, `--time-limit MS`, the governor limits `--deadline MS`,
//! `--max-steps N`, `--max-frontier N` (0 = unlimited; a tripped limit
//! prints the termination reason and returns best-so-far answers), and
//! `--profile` to print the per-query observability profile (stage spans +
//! counter registry) as JSON after the answers.
//!
//! `serve --http` binds a streaming HTTP front-end on localhost (`POST
//! /v1/why` with `"stream": true` for SSE anytime answers, `POST
//! /v1/why/batch`, `GET /v1/stats`, `GET /v1/healthz`); `serve --mcp`
//! speaks MCP JSON-RPC over stdio, exposing the `ask_why` tool. Every
//! `serve` mode takes `--workers N` (0 = one per core), `--queue-cap N`,
//! `--cache-cap N` (0 disables the cache), `--shed` (overload-adaptive
//! deadlines + low-priority shedding), `--rate-limit N` (per-tenant token
//! bucket, keyed by the `x-wqe-tenant` header or a request's `"tenant"`)
//! and every `why` tunable. A flag value that does not parse exits 2.
//!
//! `serve` reads one request per line from `questions.jsonl` — the usual
//! spec plus any serving keys — and serves the whole batch through a
//! `QueryService` (admission-controlled scheduler + answer cache).
//! `--algo A` is the default for lines without one; `--json` prints one
//! machine-readable response summary per line.
//!
//! The question file holds `{"query": ..., "exemplar": ...}` in the strict
//! format documented in `wqe_core::spec`.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter};
use std::sync::Arc;
use wqe::core::engine::WqeEngine;
use wqe::core::session::WqeConfig;
use wqe::core::spec::parse_question;
use wqe::core::{Algorithm, EngineCtx, QueryService, RateLimitConfig, ServiceConfig};
use wqe::graph::{read_jsonl, write_jsonl, Graph, NodeId};
use wqe::index::Oracle;

fn main() {
    // Chaos quick-start: `WQE_FAULT_SEED=42 wqe-cli why ...` arms the
    // deterministic fault plan for the whole run (period via
    // WQE_FAULT_PERIOD, site subset via WQE_FAULT_SITES). Absent the env
    // var this is a no-op and the hot paths stay fault-free. The scope is
    // held for the whole run, so `serve --http` / `--mcp` threads capture it.
    let faults = wqe::pool::fault::FaultPlan::from_env().map(|plan| {
        eprintln!(
            "fault plan armed: seed {} (WQE_FAULT_SEED); injected faults degrade, never corrupt",
            plan.seed()
        );
        Arc::new(plan)
    });
    let _scope = wqe::pool::scope::Scope {
        faults,
        ..Default::default()
    }
    .enter();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("stats") => cmd_stats(&args[1..]),
        Some("match") => cmd_match(&args[1..]),
        Some("why") => cmd_why(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("gen") => cmd_gen(&args[1..]),
        Some("index") => cmd_index(&args[1..]),
        Some("demo") => cmd_demo(),
        _ => {
            eprintln!(
                "usage: wqe-cli <stats|match|why|serve|gen|index|demo> ...\n\
                 run `wqe-cli why graph.jsonl question.json --budget 3` to\n\
                 get query-rewrite suggestions; see crate docs for formats."
            );
            2
        }
    };
    std::process::exit(code);
}

/// Distinct exit codes for the snapshot corruption classes, so scripted
/// health checks can tell "bit rot" from "cut short" from "bad structure"
/// without parsing stderr.
const EXIT_CHECKSUM: i32 = 3;
const EXIT_TRUNCATED: i32 = 4;
const EXIT_CORRUPT: i32 = 5;

/// Opens a snapshot, mapping load failures to the exit codes above plus a
/// one-line remediation hint. `Err` carries the process exit code.
fn open_snapshot_cli(path: &str) -> Result<wqe::store::Snapshot, i32> {
    use wqe::graph::LoadError;
    match wqe::store::Snapshot::open(std::path::Path::new(path)) {
        Ok(s) => Ok(s),
        Err(e) => {
            let (code, hint) = match &e {
                LoadError::ChecksumMismatch { section } => (
                    EXIT_CHECKSUM,
                    format!(
                        "required section {section:?} is corrupt; \
                         `wqe-cli index inspect {path}` shows which sections still verify — \
                         rebuild with `wqe-cli index build`"
                    ),
                ),
                LoadError::Truncated { what, .. } => (
                    EXIT_TRUNCATED,
                    format!(
                        "file ends mid-{what}; snapshot writes are atomic \
                         (temp file + rename), so a short file means an interrupted copy — \
                         re-copy or rebuild with `wqe-cli index build`"
                    ),
                ),
                LoadError::Corrupt { section, .. } => (
                    EXIT_CORRUPT,
                    format!(
                        "section {section:?} violates a structural invariant; \
                         `wqe-cli index inspect {path}` narrows it down — rebuild with \
                         `wqe-cli index build`"
                    ),
                ),
                _ => (1, String::new()),
            };
            eprintln!("error: cannot open {path}: {e}");
            if !hint.is_empty() {
                eprintln!("hint: {hint}");
            }
            Err(code)
        }
    }
}

/// Loads a graph from `graph.jsonl`, or from a TSV pair when given
/// `nodes.tsv,edges.tsv`.
fn load_graph(path: &str) -> Result<Graph, String> {
    if let Some((npath, epath)) = path.split_once(',') {
        let n = File::open(npath).map_err(|e| format!("cannot open {npath}: {e}"))?;
        let e = File::open(epath).map_err(|e| format!("cannot open {epath}: {e}"))?;
        return wqe::graph::read_tsv(BufReader::new(n), BufReader::new(e))
            .map_err(|e| format!("cannot parse tsv pair: {e}"));
    }
    let f = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    read_jsonl(BufReader::new(f)).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// Reads a question file's JSON; [`load_question`] resolves it.
fn read_question(path: &str) -> Result<serde_json::Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("invalid json in {path}: {e}"))
}

/// Resolves a question file's JSON against `graph`.
fn load_question(
    graph: &Graph,
    json: &serde_json::Value,
) -> Result<wqe::core::WhyQuestion, String> {
    parse_question(graph, json).map_err(|e| e.to_string())
}

fn cmd_stats(args: &[String]) -> i32 {
    let Some(path) = args.first() else {
        eprintln!("usage: wqe-cli stats <graph.jsonl>");
        return 2;
    };
    match load_graph(path) {
        Ok(g) => {
            let s = g.stats();
            println!(
                "nodes: {}\nedges: {}\nlabels: {}\nattributes: {}\navg attrs/node: {:.2}\ndiameter (est.): {}",
                s.nodes, s.edges, s.labels, s.attributes, s.avg_attrs_per_node, s.diameter_estimate
            );
            0
        }
        Err(e) => {
            eprintln!("{e}");
            1
        }
    }
}

fn cmd_match(args: &[String]) -> i32 {
    let (Some(gpath), Some(qpath)) = (args.first(), args.get(1)) else {
        eprintln!("usage: wqe-cli match <graph.jsonl> <question.json>");
        return 2;
    };
    let run = || -> Result<(), String> {
        let g = Arc::new(load_graph(gpath)?);
        let wq = load_question(&g, &read_question(qpath)?)?;
        let oracle = Arc::new(Oracle::build(&g));
        let matcher = wqe::query::Matcher::new(Arc::clone(&g), oracle);
        let out = matcher.evaluate(&wq.query);
        println!("query:\n{}", wq.query.display(g.schema()));
        println!("{} match(es):", out.matches.len());
        for v in out.matches {
            println!("  {}", describe(&g, v));
        }
        Ok(())
    };
    report(run())
}

fn cmd_why(args: &[String]) -> i32 {
    // `why --snapshot g.wqs question.json` swaps the text graph for a
    // durable snapshot; everything downstream is identical.
    let snapshot_mode = args.first().map(String::as_str) == Some("--snapshot");
    let first = if snapshot_mode { 1 } else { 0 };
    let (Some(gpath), Some(qpath)) = (args.get(first), args.get(first + 1)) else {
        eprintln!(
            "usage: wqe-cli why <graph.jsonl|--snapshot g.wqs> <question.json> \
             [--budget B] [--algo A] ..."
        );
        return 2;
    };
    let mut config = WqeConfig::default();
    let mut algo_flag: Option<String> = None;
    let mut dot_out: Option<String> = None;
    let parsed = parse_flags(&args[first + 2..], &["--json", "--profile"], |flag, val| {
        match flag {
            "--algo" => algo_flag = Some(val.to_string()),
            "--dot" => dot_out = Some(val.to_string()),
            _ => return engine_flag(&mut config, flag, val),
        }
        Ok(true)
    });
    let (json_out, profile_out) = match parsed {
        Ok(seen) => (seen.contains(&"--json"), seen.contains(&"--profile")),
        Err(e) => return usage_error(e),
    };
    // The question file's "algo" is the algorithm; `--algo` may only agree.
    let question = read_question(qpath);
    let file_algo = question.as_ref().ok().and_then(|q| q.get("algo")?.as_str());
    let algo = match (file_algo, algo_flag) {
        (Some(file), Some(flag)) if Algorithm::parse(file) != Algorithm::parse(&flag) => {
            return usage_error(format!(
                "--algo {flag} disagrees with {qpath}'s \"algo\": {file:?}"
            ))
        }
        (Some(file), _) => file.to_string(),
        (None, flag) => flag.unwrap_or_else(|| "answ".into()),
    };
    let snap = if snapshot_mode {
        match open_snapshot_cli(gpath) {
            Ok(s) => Some(s),
            Err(code) => return code,
        }
    } else {
        None
    };
    let run = move || -> Result<(), String> {
        let question = question?;
        let (ctx, g, wq) = if let Some(snap) = snap {
            let ctx = EngineCtx::builder()
                .snapshot(snap)
                .build()
                .map_err(|e| e.to_string())?;
            if let Some(s) = ctx.snapshot_startup() {
                if s.degraded() {
                    eprintln!(
                        "warning: quarantined corrupt section(s) {:?}; distances served by \
                         BFS fallback (answers exact, startup telemetry records the degrade)",
                        s.quarantined_sections
                    );
                }
            }
            let g = Arc::clone(ctx.graph());
            let wq = load_question(&g, &question)?;
            (ctx, g, wq)
        } else {
            let g = Arc::new(load_graph(gpath)?);
            let wq = load_question(&g, &question)?;
            let ctx = EngineCtx::with_default_oracle(Arc::clone(&g));
            (ctx, g, wq)
        };
        let algorithm = Algorithm::parse(&algo).ok_or(format!("unknown algorithm {algo:?}"))?;
        let engine =
            WqeEngine::try_new(ctx, wq, algorithm.apply_to(config)).map_err(|e| e.to_string())?;
        let original = engine.evaluate_original();
        println!(
            "Q(G): {} matches ({} relevant, {} irrelevant); cl = {:.3}, cl* = {:.3}",
            original.outcome.matches.len(),
            original.relevance.rm.len(),
            original.relevance.im.len(),
            original.closeness,
            engine.session().cl_star
        );
        let report = engine.try_run(algorithm).map_err(|e| e.to_string())?;
        if report.termination.is_partial() {
            println!(
                "search stopped early ({}); answers are best-so-far",
                report.termination
            );
        }
        if profile_out {
            match &report.profile {
                Some(profile) => println!(
                    "{}",
                    serde_json::to_string_pretty(profile).expect("serializable")
                ),
                None => eprintln!("no profile recorded for this session"),
            }
        }
        let results = if report.top_k.is_empty() {
            report.best.clone().into_iter().collect()
        } else {
            report.top_k.clone()
        };
        if results.is_empty() {
            println!("no rewrite found within budget");
            return Ok(());
        }
        for (rank, best) in results.iter().enumerate() {
            println!(
                "\n#{} rewrite (closeness {:.3}, cost {:.2}, satisfies: {}):",
                rank + 1,
                best.closeness,
                best.cost,
                best.satisfies
            );
            print!("{}", best.query.display(g.schema()));
            for op in &best.ops {
                println!("  op: {}", op.display(g.schema()));
            }
            println!("  answers:");
            for &v in &best.matches {
                println!("    {}", describe(&g, v));
            }
        }
        if json_out {
            let payload: Vec<serde_json::Value> = results
                .iter()
                .map(|r| {
                    serde_json::json!({
                        "closeness": r.closeness,
                        "cost": r.cost,
                        "satisfies": r.satisfies,
                        "operators": r
                            .ops
                            .iter()
                            .map(|o| o.display(g.schema()))
                            .collect::<Vec<_>>(),
                        "matches": r.matches.iter().map(|v| v.0).collect::<Vec<_>>(),
                    })
                })
                .collect();
            println!(
                "{}",
                serde_json::to_string_pretty(&payload).expect("serializable")
            );
        }
        if let Some(best) = results.first() {
            if let Some(table) = engine.explain(best) {
                println!("\nlineage:");
                print!("{}", table.render(g.schema(), |v| describe(&g, v)));
            }
            if let Some(path) = &dot_out {
                // Provenance subgraph of the best rewrite's answers,
                // evaluated through the engine's (cached) matcher.
                let out = engine.session().matcher.evaluate(&best.query);
                let nodes = out.answer_subgraph_nodes(&g, &best.query);
                let opts = wqe::graph::dot::DotOptions {
                    highlight: best.matches.iter().copied().collect(),
                    ..Default::default()
                };
                let dot = wqe::graph::dot::subgraph_to_dot(&g, nodes, &opts);
                std::fs::write(path, dot).map_err(|e| format!("cannot write {path}: {e}"))?;
                eprintln!("wrote provenance subgraph to {path}");
            }
        }
        eprintln!(
            "\n[{} chase steps simulated in {:.1} ms]",
            report.expansions, report.elapsed_ms
        );
        Ok(())
    };
    report_result(run())
}

/// Walks `args` as flags. A flag in `switches` takes no value and is
/// returned when present; any other takes one, which `value` applies
/// (`Ok(false)` when it does not know the flag). An unknown flag, a
/// missing value or a value that does not parse is an error.
fn parse_flags<'a>(
    args: &'a [String],
    switches: &[&str],
    mut value: impl FnMut(&str, &str) -> Result<bool, String>,
) -> Result<Vec<&'a str>, String> {
    let (mut seen, mut rest) = (Vec::new(), args.iter());
    while let Some(flag) = rest.next() {
        if switches.contains(&flag.as_str()) {
            seen.push(flag.as_str());
            continue;
        }
        let val = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if !value(flag, val)? {
            return Err(format!("unknown flag {flag}"));
        }
    }
    Ok(seen)
}

/// Reports a command-line mistake: exit code 2.
fn usage_error(e: String) -> i32 {
    eprintln!("{e}");
    2
}

fn parse_value<T: std::str::FromStr>(flag: &str, val: &str, what: &str) -> Result<T, String> {
    val.parse()
        .map_err(|_| format!("{flag}: expected {what}, got {val:?}"))
}

/// The engine flags, one per `why` tunable, shared by `why` and every
/// `serve` mode. `Ok(false)` when `flag` is not one of them.
fn engine_flag(config: &mut WqeConfig, flag: &str, val: &str) -> Result<bool, String> {
    match flag {
        "--budget" => config.budget = parse_value(flag, val, "a number")?,
        "--top-k" => config.top_k = parse_value(flag, val, "an integer")?,
        "--lambda" => config.closeness.lambda = parse_value(flag, val, "a number")?,
        "--theta" => config.closeness.theta = parse_value(flag, val, "a number")?,
        "--time-limit" => config.time_limit_ms = Some(parse_value(flag, val, "milliseconds")?),
        "--deadline" => config.deadline_ms = parse_value(flag, val, "milliseconds")?,
        "--max-steps" => config.max_match_steps = parse_value(flag, val, "an integer")?,
        "--max-frontier" => config.max_frontier_states = parse_value(flag, val, "an integer")?,
        "--beam" => config.beam_width = parse_value(flag, val, "an integer")?,
        _ => return Ok(false),
    }
    Ok(true)
}

/// The service flags, then the engine flags. `Ok(false)` when `flag` is
/// none of them.
fn service_flag(cfg: &mut ServiceConfig, flag: &str, val: &str) -> Result<bool, String> {
    match flag {
        "--workers" => cfg.max_inflight = parse_value(flag, val, "an integer")?,
        "--queue-cap" => cfg.queue_cap = parse_value(flag, val, "an integer")?,
        "--cache-cap" => cfg.cache.capacity = parse_value(flag, val, "an integer")?,
        "--rate-limit" => {
            cfg.rate_limit = Some(RateLimitConfig {
                per_sec: parse_value(flag, val, "requests per second")?,
                ..Default::default()
            })
        }
        _ => return engine_flag(&mut cfg.base_config, flag, val),
    }
    Ok(true)
}

/// Parses a `serve` mode's flags: the service and engine flags, `--shed`
/// (overload-adaptive deadlines and low-priority shedding), and the
/// mode's own `switches` (returned when present) and value flags, which
/// `value` takes first.
fn serve_flags<'a>(
    args: &'a [String],
    switches: &[&str],
    mut value: impl FnMut(&str, &str) -> bool,
) -> Result<(ServiceConfig, Vec<&'a str>), String> {
    let mut cfg = ServiceConfig::default();
    let seen = parse_flags(args, &[switches, &["--shed"]].concat(), |flag, val| {
        Ok(value(flag, val) || service_flag(&mut cfg, flag, val)?)
    })?;
    cfg.shed.enabled = seen.contains(&"--shed");
    Ok((cfg, seen))
}

/// Builds the `ServeCtx` the network front-ends (`serve --http` /
/// `serve --mcp`) share from a graph file and a service config.
fn build_serve_ctx(
    gpath: &str,
    service_cfg: ServiceConfig,
) -> Result<wqe::serve::ServeCtx, String> {
    let g = Arc::new(load_graph(gpath)?);
    // Serve live: a GraphStore wraps the loaded graph so the HTTP layer
    // can accept `/v1/graph/update` batches, and the service pins every
    // query to a published epoch.
    let store = Arc::new(wqe::core::GraphStore::new(Arc::clone(&g)));
    // Stateless HTTP clients cannot hold epoch pins across exchanges, so
    // keep a small window of superseded epochs alive for pin-by-id reads
    // and epoch diffs.
    store.set_retention(8);
    Ok(wqe::serve::ServeCtx {
        service: Arc::new(QueryService::with_store(Arc::clone(&store), service_cfg)),
        graph: g,
        store: Some(store),
    })
}

fn cmd_serve_http(args: &[String]) -> i32 {
    let (Some(port), Some(gpath)) = (args.first(), args.get(1)) else {
        eprintln!(
            "usage: wqe-cli serve --http <port> <graph.jsonl> \
             [--workers N] [--queue-cap N] [--shed] [--rate-limit N] ..."
        );
        return 2;
    };
    let service_cfg = match serve_flags(&args[2..], &[], |_, _| false) {
        Ok((cfg, _)) => cfg,
        Err(e) => return usage_error(e),
    };
    let run = || -> Result<(), String> {
        let ctx = build_serve_ctx(gpath, service_cfg)?;
        let server = wqe::serve::http::HttpServer::bind(ctx, &format!("127.0.0.1:{port}"))
            .map_err(|e| format!("cannot bind port {port}: {e}"))?;
        eprintln!(
            "serving on http://{} — POST /v1/why (add \"stream\": true for SSE), \
             POST /v1/why/batch, GET /v1/stats, GET /v1/healthz",
            server.addr()
        );
        // Serve until killed; the accept loop lives on its own thread.
        loop {
            std::thread::park();
        }
    };
    report_result(run())
}

fn cmd_serve_mcp(args: &[String]) -> i32 {
    let Some(gpath) = args.first() else {
        eprintln!("usage: wqe-cli serve --mcp <graph.jsonl> [--workers N] ...");
        return 2;
    };
    let service_cfg = match serve_flags(&args[1..], &[], |_, _| false) {
        Ok((cfg, _)) => cfg,
        Err(e) => return usage_error(e),
    };
    let run = || -> Result<(), String> {
        let ctx = build_serve_ctx(gpath, service_cfg)?;
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        wqe::serve::mcp::serve_mcp(&ctx, stdin.lock(), &mut stdout.lock())
            .map_err(|e| format!("mcp transport error: {e}"))
    };
    report_result(run())
}

fn cmd_serve(args: &[String]) -> i32 {
    use wqe::core::QueryStatus;
    match args.first().map(String::as_str) {
        Some("--http") => return cmd_serve_http(&args[1..]),
        Some("--mcp") => return cmd_serve_mcp(&args[1..]),
        _ => {}
    }
    let (Some(gpath), Some(qpath)) = (args.first(), args.get(1)) else {
        eprintln!(
            "usage: wqe-cli serve <graph.jsonl> <questions.jsonl> [--workers N] ...\n\
             \x20      wqe-cli serve --http <port> <graph.jsonl> [opts]\n\
             \x20      wqe-cli serve --mcp <graph.jsonl> [opts]"
        );
        return 2;
    };
    let mut default_algo = "answ".to_string();
    let parsed = serve_flags(&args[2..], &["--json"], |flag, val| match flag {
        "--algo" => {
            default_algo = val.to_string();
            true
        }
        _ => false,
    });
    let (mut service_cfg, json_out) = match parsed {
        Ok((cfg, seen)) => (cfg, seen.contains(&"--json")),
        Err(e) => return usage_error(e),
    };
    let run = || -> Result<(), String> {
        let g = Arc::new(load_graph(gpath)?);
        let f = File::open(qpath).map_err(|e| format!("cannot open {qpath}: {e}"))?;
        let mut requests = Vec::new();
        for (lineno, line) in BufReader::new(f).lines().enumerate() {
            let line = line.map_err(|e| format!("cannot read {qpath}: {e}"))?;
            if line.trim().is_empty() {
                continue;
            }
            let mut json: serde_json::Value = serde_json::from_str(&line)
                .map_err(|e| format!("{qpath}:{}: invalid json: {e}", lineno + 1))?;
            // A line without "algo" runs `--algo`.
            if let serde_json::Value::Object(m) = &mut json {
                if m.get("algo").is_none_or(serde_json::Value::is_null) {
                    m.insert("algo".into(), default_algo.as_str().into());
                }
            }
            let (request, _) = wqe::serve::parse_request(&g, &json)
                .map_err(|e| format!("{qpath}:{}: {e}", lineno + 1))?;
            requests.push(request);
        }
        if requests.is_empty() {
            return Err(format!("{qpath} holds no questions"));
        }
        // One queue slot per request: the whole batch is admitted up front.
        if service_cfg.queue_cap < requests.len() {
            service_cfg.queue_cap = requests.len();
        }
        let ctx = EngineCtx::with_default_oracle(Arc::clone(&g));
        let service = QueryService::new(ctx, service_cfg);
        let started = std::time::Instant::now();
        let responses = service.serve_batch(requests);
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        for r in &responses {
            if json_out {
                let (status, detail) = match &r.status {
                    QueryStatus::Done { report, cache_hit } => (
                        "done",
                        serde_json::json!({
                            "cache_hit": cache_hit,
                            "termination": report.termination.as_str(),
                            "closeness": report.best.as_ref().map(|b| b.closeness),
                            "matches": report.best.as_ref().map(|b| b.matches.len()),
                        }),
                    ),
                    QueryStatus::Failed { error } => {
                        ("failed", serde_json::json!({ "error": error.to_string() }))
                    }
                    QueryStatus::Rejected {
                        queue_full,
                        queue_len,
                    } => (
                        "rejected",
                        serde_json::json!({ "queue_full": queue_full, "queue_len": queue_len }),
                    ),
                    QueryStatus::Shed { reason } => {
                        ("shed", serde_json::json!({ "reason": reason.as_str() }))
                    }
                    _ => ("unknown", serde_json::json!({})),
                };
                println!(
                    "{}",
                    serde_json::json!({
                        "id": r.id,
                        "status": status,
                        "queue_ms": r.queue_ms,
                        "service_ms": r.service_ms,
                        "detail": detail,
                    })
                );
            } else {
                match &r.status {
                    QueryStatus::Done { report, cache_hit } => println!(
                        "#{}: {}closeness {} in {:.1} ms ({})",
                        r.id,
                        if *cache_hit { "[cached] " } else { "" },
                        report
                            .best
                            .as_ref()
                            .map_or("-".to_string(), |b| format!("{:.3}", b.closeness)),
                        r.service_ms,
                        report.termination,
                    ),
                    QueryStatus::Failed { error } => println!("#{}: failed: {error}", r.id),
                    QueryStatus::Rejected { queue_len, .. } => {
                        println!("#{}: rejected (queue depth {queue_len})", r.id)
                    }
                    QueryStatus::Shed { reason } => {
                        println!("#{}: shed ({})", r.id, reason.as_str())
                    }
                    _ => println!("#{}: unknown status", r.id),
                }
            }
        }
        let stats = service.stats();
        eprintln!(
            "\n[{} served ({} cache hits, {} rejected, {} failed) in {:.1} ms]",
            stats.completed,
            stats.counters.answer_cache_hits,
            stats.rejected,
            stats.failed,
            wall_ms
        );
        Ok(())
    };
    report_result(run())
}

fn cmd_gen(args: &[String]) -> i32 {
    if args.first().map(String::as_str) == Some("--scale") {
        return cmd_gen_scale(&args[1..]);
    }
    let (Some(preset), Some(scale), Some(seed), Some(out)) =
        (args.first(), args.get(1), args.get(2), args.get(3))
    else {
        eprintln!(
            "usage: wqe-cli gen <product|dbpedia|imdb|offshore|watdiv> <scale> <seed> <out.jsonl>\n\
             \x20      wqe-cli gen --scale <nodes> <seed> <out.wqs> [--avg-degree D]"
        );
        return 2;
    };
    let run = || -> Result<(), String> {
        let scale: f64 = scale
            .parse()
            .map_err(|_| "scale must be a float".to_string())?;
        let seed: u64 = seed
            .parse()
            .map_err(|_| "seed must be an int".to_string())?;
        let g = match preset.as_str() {
            // Fig. 1's fixed product graph (scale and seed are ignored):
            // pairs with the `wqe_core::spec` docs example question.
            "product" => wqe::graph::product::product_graph().graph,
            "dbpedia" => wqe::datagen::dbpedia_like(scale, seed),
            "imdb" => wqe::datagen::imdb_like(scale, seed),
            "offshore" => wqe::datagen::offshore_like(scale, seed),
            "watdiv" => wqe::datagen::watdiv_like(scale, seed),
            other => return Err(format!("unknown preset {other:?}")),
        };
        let f = File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
        write_jsonl(&g, BufWriter::new(f)).map_err(|e| e.to_string())?;
        println!(
            "wrote {:?} ({} nodes, {} edges)",
            out,
            g.node_count(),
            g.edge_count()
        );
        Ok(())
    };
    report_result(run())
}

/// `gen --scale`: streams a paper-scale synthetic graph straight into a
/// snapshot, never materializing it in memory (`wqe::datagen::stream`).
fn cmd_gen_scale(args: &[String]) -> i32 {
    let (Some(nodes), Some(seed), Some(out)) = (args.first(), args.get(1), args.get(2)) else {
        eprintln!("usage: wqe-cli gen --scale <nodes> <seed> <out.wqs> [--avg-degree D]");
        return 2;
    };
    let run = || -> Result<(), String> {
        let nodes: u64 = nodes
            .parse()
            .map_err(|_| "nodes must be an integer".to_string())?;
        let seed: u64 = seed
            .parse()
            .map_err(|_| "seed must be an int".to_string())?;
        let mut cfg = wqe::datagen::ScaleConfig::new(nodes, seed);
        let mut rest = args[3..].iter();
        while let Some(flag) = rest.next() {
            match flag.as_str() {
                "--avg-degree" => {
                    cfg.avg_out_degree = rest
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--avg-degree needs a float")?;
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        let started = std::time::Instant::now();
        let report = wqe::datagen::stream_snapshot(&cfg, std::path::Path::new(out.as_str()))
            .map_err(|e| format!("cannot write {out}: {e}"))?;
        println!(
            "wrote {out:?}: {} nodes, {} edges, diameter {}, {} in {:.1} s (streamed; \
             no PLL — the loader serves it with bounded BFS)",
            report.nodes,
            report.edges,
            report.diameter,
            human_bytes(report.bytes),
            started.elapsed().as_secs_f64(),
        );
        Ok(())
    };
    report_result(run())
}

fn cmd_index(args: &[String]) -> i32 {
    match args.first().map(String::as_str) {
        Some("build") => cmd_index_build(&args[1..]),
        Some("inspect") => cmd_index_inspect(&args[1..]),
        _ => {
            eprintln!(
                "usage: wqe-cli index build <graph.jsonl> -o <out.wqs>\n\
                 \x20      wqe-cli index inspect <snapshot.wqs>"
            );
            2
        }
    }
}

fn cmd_index_build(args: &[String]) -> i32 {
    let (gpath, out) = match args {
        [g, flag, o] if flag == "-o" || flag == "--out" => (g, o),
        _ => {
            eprintln!("usage: wqe-cli index build <graph.jsonl|nodes.tsv,edges.tsv> -o <out.wqs>");
            return 2;
        }
    };
    let run = || -> Result<(), String> {
        let g = load_graph(gpath)?;
        let started = std::time::Instant::now();
        let bytes = wqe::store::build_and_write_snapshot(std::path::Path::new(out.as_str()), &g)
            .map_err(|e| format!("cannot write {out}: {e}"))?;
        println!(
            "wrote {out:?}: {} nodes, {} edges, {} ({}) in {:.1} ms",
            g.node_count(),
            g.edge_count(),
            human_bytes(bytes),
            if Oracle::wants_labels(&g) {
                "with PLL index"
            } else {
                "no PLL (past crossover); bounded BFS at load"
            },
            started.elapsed().as_secs_f64() * 1e3,
        );
        Ok(())
    };
    report_result(run())
}

fn cmd_index_inspect(args: &[String]) -> i32 {
    let Some(path) = args.first() else {
        eprintln!("usage: wqe-cli index inspect <snapshot.wqs>");
        return 2;
    };
    let snap = match open_snapshot_cli(path) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let run = move || -> Result<(), String> {
        let meta = snap.meta();
        println!(
            "snapshot {path}: format v{}, {} ({})",
            snap.format_version(),
            human_bytes(snap.bytes_len()),
            if snap.is_mmap() { "mmap" } else { "read" },
        );
        println!(
            "graph: {} nodes, {} edges, diameter {}, pll: {}",
            meta.node_count,
            meta.edge_count,
            meta.diameter,
            if meta.has_pll() { "yes" } else { "no" },
        );
        println!("sections:");
        for s in snap.section_infos() {
            println!(
                "  {:>20}  id {:>2}  offset {:>10}  {:>12}  fnv1a64 {:016x}{}",
                s.name,
                s.id,
                s.offset,
                human_bytes(s.len),
                s.checksum,
                if s.quarantined {
                    "  QUARANTINED (checksum mismatch)"
                } else {
                    ""
                },
            );
        }
        if !snap.quarantined().is_empty() {
            println!(
                "quarantined: {:?} — optional section(s) failed their checksum; the \
                 snapshot still serves (BFS fallback), rebuild with `wqe-cli index build` \
                 to restore full speed",
                snap.quarantined()
            );
        }
        match snap.load_pll().map_err(|e| e.to_string())? {
            Some(pll) => {
                let ls = pll.stats();
                println!(
                    "pll labels: {} nodes, {} entries ({} out + {} in), \
                     avg label len {:.2}, max {}, {}",
                    ls.nodes,
                    ls.total_entries,
                    ls.out_entries,
                    ls.in_entries,
                    ls.avg_label_len,
                    ls.max_label_len,
                    human_bytes(ls.bytes),
                );
            }
            None if meta.has_pll() => {
                println!("pll labels: written but quarantined (corrupt) — BFS serves distances")
            }
            None => println!("pll labels: none (bounded BFS serves distances at load)"),
        }
        Ok(())
    };
    report_result(run())
}

fn human_bytes(n: u64) -> String {
    if n >= 1 << 20 {
        format!("{:.1} MiB", n as f64 / (1u64 << 20) as f64)
    } else if n >= 1 << 10 {
        format!("{:.1} KiB", n as f64 / 1024.0)
    } else {
        format!("{n} B")
    }
}

fn cmd_demo() -> i32 {
    let g = Arc::new(wqe::graph::product::product_graph().graph);
    let ctx = EngineCtx::with_default_oracle(Arc::clone(&g));
    let engine = WqeEngine::new(
        ctx,
        wqe::core::paper::paper_question(&g),
        WqeConfig {
            budget: 4.0,
            ..Default::default()
        },
    );
    let report = engine.run(Algorithm::AnsW);
    let best = report.best.expect("demo always solves");
    println!("demo: the paper's Fig. 1 scenario");
    println!("rewrite (closeness {:.3}):", best.closeness);
    for op in &best.ops {
        println!("  {}", op.display(g.schema()));
    }
    0
}

fn describe(g: &Graph, v: NodeId) -> String {
    let label = g.schema().label_name(g.label(v));
    let attrs: Vec<String> = g
        .node(v)
        .attrs
        .iter()
        .take(4)
        .map(|(a, val)| format!("{}={}", g.schema().attr_name(*a), val))
        .collect();
    format!("n{} [{label}] {}", v.0, attrs.join(" "))
}

fn report(r: Result<(), String>) -> i32 {
    report_result(r)
}

fn report_result(r: Result<(), String>) -> i32 {
    match r {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}
