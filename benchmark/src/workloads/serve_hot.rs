//! `serve_hot`: Zipf traffic over loopback HTTP.
//!
//! Two closed-loop clients (each waits for its reply before asking again,
//! as CLI, MCP hosts and a search UI do) send `POST /v1/why` on one-shot
//! connections. Popularity is Zipf(1.0) over a pool twice the answer
//! cache's capacity, so most requests hit the cache while evictions never
//! stop; every tenth request asks for an SSE stream.

use crate::config::{service_config, Scale, OP_TIMEOUT_S, TRUTH_STEP_LIMIT};
use crate::harness::{Digest, Rng, Zipf};
use crate::inputs::{dbpedia_graph, direct_answer, question_pool, Op, PoolQuestion, Quality};
use crate::run::{check_digest, end_to_end, write_trace, RunArgs, RunResult, SetupClock};
use crate::servepath::{body_of, call_served, ReadLog};
use crate::trace::{Tracer, TracingOracle};
use crate::{layers, replay};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use wqe_core::{EngineCtx, QueryService};
use wqe_graph::Graph;
use wqe_serve::{http::HttpServer, ServeCtx};

const CLIENTS: usize = 2;
/// The timed requests are sent in this many equal segments.
const SEGMENTS: usize = 8;
/// Every this-many-th request streams.
const STREAM_EVERY: usize = 10;

pub struct Reply {
    pub status: u16,
    pub body: String,
}

/// The request text of a `POST /v1/why` with this body.
pub fn post(body: &str) -> String {
    format!(
        "POST /v1/why HTTP/1.1\r\nHost: b\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// One request on a one-shot connection. Reads the whole response, or —
/// `first_event_only` — just up to the end of the first SSE event.
pub fn exchange(addr: SocketAddr, request: &str, first_event_only: bool) -> io::Result<Reply> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs_f64(OP_TIMEOUT_S)))?;
    stream.write_all(request.as_bytes())?;
    let mut raw = Vec::with_capacity(8 * 1024);
    let mut chunk = [0u8; 16 * 1024];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        raw.extend_from_slice(&chunk[..n]);
        if first_event_only {
            let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n");
            if head_end.is_some_and(|h| raw[h + 4..].windows(2).any(|w| w == b"\n\n")) {
                break;
            }
        }
    }
    let text = String::from_utf8_lossy(&raw);
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok(Reply { status, body })
}

/// One request of the traffic plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    pub question: usize,
    pub stream: bool,
}

/// The request sequence: a pure function of the seed and the sizes.
pub fn traffic(pool_len: usize, requests: usize, seed: u64) -> Vec<Request> {
    // Popularity rank is pool order: which questions are hot belongs to
    // the dataset, the draws belong to the seed.
    let mut rng = Rng::new(seed, 0x5e7e);
    let zipf = Zipf::new(pool_len, 1.0);
    (0..requests)
        .map(|i| Request {
            question: zipf.sample(&mut rng),
            stream: i % STREAM_EVERY == STREAM_EVERY - 1,
        })
        .collect()
}

struct Prepared {
    graph: Arc<Graph>,
    ctx: EngineCtx,
    pool: Vec<PoolQuestion>,
    /// Reference fingerprint of every question, from the engine directly.
    expected: Vec<String>,
    /// `"fingerprint":"…"` as the response carries it, per question.
    markers: Vec<String>,
    blocking: Vec<String>,
    streaming: Vec<String>,
}

/// One set-up. The reference answers also feed `quality`: over repeated
/// set-ups each question's convergence time is observed once per repeat.
fn prepare(scale: &Scale, quality: &mut Quality) -> (Prepared, f64) {
    let graph = dbpedia_graph(scale.dbpedia_scale);
    let t = Instant::now();
    let ctx = EngineCtx::with_default_oracle(Arc::clone(&graph));
    let index_build_s = t.elapsed().as_secs_f64();
    let pool = question_pool(&ctx, [scale.serve_pool, 0, 0], TRUTH_STEP_LIMIT);
    let expected: Vec<String> = (0..pool.len())
        .map(|q| {
            let report = direct_answer(&ctx, &pool, Op::answ(q));
            quality.observe(&pool, Op::answ(q), &report);
            report.fingerprint()
        })
        .collect();
    let markers = expected
        .iter()
        .map(|fp| format!("\"fingerprint\":{}", serde_json::json!(fp.as_str())))
        .collect();
    let body = |q, stream| post(&body_of(&graph, &pool, Op::answ(q), stream));
    let blocking = (0..pool.len()).map(|q| body(q, false)).collect();
    let streaming = (0..pool.len()).map(|q| body(q, true)).collect();
    let p = Prepared {
        graph,
        ctx,
        pool,
        expected,
        markers,
        blocking,
        streaming,
    };
    (p, index_build_s)
}

/// True when the reply carries this question's reference answer. A
/// streamed reply must carry it in its terminal `done` event, which is
/// how "SSE done equals blocking" is checked on every streamed request.
fn reply_is_correct(reply: &Reply, request: Request, marker: &str) -> bool {
    if reply.status != 200 {
        return false;
    }
    if !request.stream {
        return reply.body.contains(marker);
    }
    reply
        .body
        .split("\n\n")
        .filter(|frame| frame.contains("event: done"))
        .any(|frame| frame.contains(marker))
}

/// Sends `plan[start..]` from `CLIENTS` closed-loop clients, request `i`
/// by client `i % CLIENTS`. Returns per-request (latency ms, correct) in
/// plan order and the wall-clock seconds of the phase.
fn drive(addr: SocketAddr, p: &Prepared, plan: &[Request]) -> (Vec<(f64, bool)>, f64) {
    let barrier = Barrier::new(CLIENTS + 1);
    let (per_client, wall_s) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    plan.iter()
                        .enumerate()
                        .filter(|(i, _)| i % CLIENTS == c)
                        .map(|(_, &request)| {
                            let text = if request.stream {
                                &p.streaming[request.question]
                            } else {
                                &p.blocking[request.question]
                            };
                            let t = Instant::now();
                            let reply = exchange(addr, text, false);
                            let latency_ms = t.elapsed().as_secs_f64() * 1e3;
                            let ok = reply.is_ok_and(|r| {
                                reply_is_correct(&r, request, &p.markers[request.question])
                            });
                            (latency_ms, ok && latency_ms <= OP_TIMEOUT_S * 1e3)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        barrier.wait();
        let t = Instant::now();
        let per_client: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (per_client, t.elapsed().as_secs_f64())
    });
    let mut cursors: Vec<_> = per_client.into_iter().map(Vec::into_iter).collect();
    let in_order = (0..plan.len())
        .map(|i| cursors[i % CLIENTS].next().expect("one result per request"))
        .collect();
    (in_order, wall_s)
}

pub fn run(args: &RunArgs) -> RunResult {
    let scale = &args.scale;
    let requests = scale.units(scale.serve_requests_per_s, args.seconds);
    if args.trace {
        return run_traced(args, requests);
    }
    let mut clock = SetupClock::new(args.started);
    let mut quality = Quality::default();
    let p = clock.repeat(scale.setup_repeats, || prepare(scale, &mut quality));
    let plan = traffic(p.pool.len(), scale.serve_warmup + requests, args.seed);
    let service = Arc::new(QueryService::new(p.ctx.clone(), service_config(CLIENTS, 1)));
    let server = HttpServer::bind(
        ServeCtx {
            service: Arc::clone(&service),
            graph: Arc::clone(&p.graph),
            store: None,
        },
        "127.0.0.1:0",
    )
    .expect("bind a loopback port");
    let (warmup, timed) = plan.split_at(scale.serve_warmup);
    drive(server.addr(), &p, warmup);
    let first_timed_op = Instant::now();
    // Equal segments, each started together by both clients: the units
    // whose median throughput is the run's.
    let mut results = Vec::with_capacity(timed.len());
    let mut segment_rates = Vec::new();
    for segment in timed.chunks(timed.len().div_ceil(SEGMENTS)) {
        let (done, wall_s) = drive(server.addr(), &p, segment);
        segment_rates.push(done.len() as f64 / wall_s);
        results.extend(done);
    }
    let wall_s = first_timed_op.elapsed().as_secs_f64();
    drop(server);

    let mut reads = ReadLog::default();
    let mut digest = Digest::default();
    for (&(latency_ms, ok), request) in results.iter().zip(timed) {
        reads.latencies_ms.push(latency_ms);
        reads.ops.push(request.question);
        reads.failed += u64::from(!ok);
        digest.push(if ok {
            &p.expected[request.question]
        } else {
            "failed"
        });
    }
    let stats = service.stats();
    eprintln!(
        "serve_hot: {} requests in {wall_s:.2} s, {} failed; cache {} hits / {} misses / {} evictions",
        results.len(),
        reads.failed,
        stats.counters.answer_cache_hits,
        stats.counters.answer_cache_misses,
        stats.counters.answer_cache_evictions,
    );
    let mut result = RunResult::default();
    let digest = digest.hex();
    check_digest(args, "serve_hot", &digest, &mut result.violations);
    result.metrics = end_to_end(
        &reads.pooled(),
        &segment_rates,
        clock.setup_s(first_timed_op),
        clock.index_build_s(),
        &quality,
    );
    result.attempted = reads.attempted();
    result.failed = reads.failed;
    result.answers_digest = Some(digest);
    result
}

fn run_traced(args: &RunArgs, requests: usize) -> RunResult {
    let scale = &args.scale;
    let (p, _) = prepare(scale, &mut Quality::default());
    let plan = traffic(p.pool.len(), (requests / 2).max(1), args.seed);
    let bodies = |request: Request| {
        let text = if request.stream {
            &p.streaming
        } else {
            &p.blocking
        };
        let (_, body) = text[request.question]
            .split_once("\r\n\r\n")
            .expect("head and body");
        body
    };
    // One client, so every span belongs to the request in flight.
    let replay_once = |oracle, mut tracer: Option<&mut Tracer>| {
        let ctx = EngineCtx::new(Arc::clone(&p.graph), oracle);
        let service = QueryService::new(ctx, service_config(CLIENTS, 1));
        let mut log = ReadLog::default();
        let t = Instant::now();
        for (i, &request) in plan.iter().enumerate() {
            let body = bodies(request);
            let (latency_ms, response, out_len) =
                call_served(&service, &p.graph, body, tracer.as_deref_mut(), i as u64);
            log.bytes_in += body.len() as u64;
            log.bytes_out += out_len as u64;
            log.record(
                request.question,
                latency_ms,
                &response,
                Some(&p.expected[request.question]),
            );
        }
        (log, t.elapsed().as_secs_f64(), service.stats())
    };
    let (plain, plain_wall_s, _) = replay_once(Arc::clone(p.ctx.oracle()), None);
    let mut tracer = Tracer::default();
    let traced_oracle = Arc::new(TracingOracle::new(Arc::clone(p.ctx.oracle())));
    let (traced, traced_wall_s, stats) = replay_once(traced_oracle, Some(&mut tracer));

    let mut result = RunResult::default();
    let mut m = replay::metrics(
        &plain,
        plain_wall_s,
        &traced,
        traced_wall_s,
        (&stats).into(),
        &tracer,
    );
    let ops: Vec<Op> = (0..p.pool.len()).map(Op::answ).collect();
    let probes = layers::Inputs {
        ctx: &p.ctx,
        pool: &p.pool,
        ops: &ops,
        parallelism: 1,
        bfs: None,
        live: true,
        args,
    };
    m.extend(layers::probe_all(
        &probes,
        &mut tracer,
        &mut result.violations,
    ));
    write_trace(args, "serve_hot", &tracer, &mut result.violations);
    result.metrics = m;
    result.attempted = plain.attempted() + traced.attempted();
    result.failed = plain.failed + traced.failed;
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_is_a_pure_function_of_the_seed() {
        assert_eq!(traffic(64, 300, 5), traffic(64, 300, 5));
        assert_ne!(traffic(64, 300, 5), traffic(64, 300, 6));
        let plan = traffic(64, 300, 5);
        assert_eq!(plan.iter().filter(|r| r.stream).count(), 30);
        assert!(plan.iter().all(|r| r.question < 64));
    }

    #[test]
    fn streamed_replies_are_judged_by_their_done_event() {
        let request = Request {
            question: 0,
            stream: true,
        };
        let marker = "\"fingerprint\":\"abc\"";
        let good = Reply {
            status: 200,
            body: format!("event: update\ndata: {{}}\n\nevent: done\ndata: {{{marker}}}\n\n"),
        };
        assert!(reply_is_correct(&good, request, marker));
        let only_update = Reply {
            status: 200,
            body: format!("event: update\ndata: {{{marker}}}\n\n"),
        };
        assert!(!reply_is_correct(&only_update, request, marker));
        let refused = Reply {
            status: 503,
            body: good.body.clone(),
        };
        assert!(!reply_is_correct(&refused, request, marker));
    }
}
