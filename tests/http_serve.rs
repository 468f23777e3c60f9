//! The network front-end suite: everything the HTTP/SSE and MCP layers
//! hand back must be bit-identical to the blocking serving path — the
//! terminal `done` event of a stream IS the blocking response, at any
//! worker parallelism, for every algorithm. Plus the operational
//! contracts: overload sheds typed (never hangs), rate limiting is
//! per-tenant, and a client hanging up mid-stream harms nobody else.

mod common;

use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use wqe::core::{
    CacheConfig, EngineCtx, QueryService, RateLimitConfig, ServiceConfig, ShedConfig, WqeConfig,
};
use wqe::pool::fault::{FaultPlan, FaultSite};
use wqe::pool::scope::Scope;
use wqe::serve::http::HttpServer;
use wqe::serve::{mcp, parse_request, ServeCtx};

const PARALLELISM: [usize; 3] = [1, 2, 8];

const ALGORITHMS: [&str; 8] = [
    "answ", "answnc", "answb", "heu", "heub:7", "fm", "whymany", "whyempty",
];

fn spec() -> serde_json::Value {
    serde_json::from_str(common::PAPER_SPEC).expect("fixture parses")
}

fn spec_with(extra: &[(&str, serde_json::Value)]) -> serde_json::Value {
    let mut v = spec();
    if let serde_json::Value::Object(m) = &mut v {
        for (k, val) in extra {
            m.insert((*k).into(), val.clone());
        }
    }
    v
}

/// A `ServeCtx` over the product graph. The answer cache is disabled so
/// streamed requests really run (a cache hit streams zero updates, which
/// would vacuously pass the monotonicity checks).
fn serve_ctx(mutate: impl FnOnce(&mut ServiceConfig)) -> ServeCtx {
    let graph = Arc::new(wqe::graph::product::product_graph().graph);
    let ctx = EngineCtx::with_default_oracle(Arc::clone(&graph));
    let mut config = ServiceConfig {
        max_inflight: 2,
        queue_cap: 32,
        base_config: WqeConfig {
            budget: 3.0,
            max_expansions: 150,
            top_k: 3,
            parallelism: 1,
            ..Default::default()
        },
        cache: CacheConfig { capacity: 0 },
        ..Default::default()
    };
    mutate(&mut config);
    ServeCtx {
        service: Arc::new(QueryService::new(ctx, config)),
        graph,
        store: None,
    }
}

fn exchange_with_headers(addr: SocketAddr, request: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(request.as_bytes()).expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("receive");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {raw:?}"));
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    exchange_with_headers(addr, &format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"))
}

fn post_with(addr: SocketAddr, path: &str, body: &str, headers: &str) -> (u16, String) {
    exchange_with_headers(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\n{headers}Content-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    post_with(addr, path, body, "")
}

/// Parses an SSE body into `(event_name, data_json)` frames.
fn sse_events(body: &str) -> Vec<(String, serde_json::Value)> {
    body.split("\n\n")
        .filter(|frame| !frame.trim().is_empty())
        .map(|frame| {
            let name = frame
                .lines()
                .find_map(|l| l.strip_prefix("event: "))
                .unwrap_or_else(|| panic!("frame without event name: {frame:?}"));
            let data = frame
                .lines()
                .find_map(|l| l.strip_prefix("data: "))
                .unwrap_or_else(|| panic!("frame without data: {frame:?}"));
            let json = serde_json::from_str(data)
                .unwrap_or_else(|_| panic!("frame data is not JSON: {data:?}"));
            (name.to_string(), json)
        })
        .collect()
}

fn fingerprint_of(response_body: &serde_json::Value) -> String {
    response_body
        .get("report")
        .and_then(|r| r.get("fingerprint"))
        .and_then(serde_json::Value::as_str)
        .unwrap_or_else(|| panic!("no fingerprint in {response_body}"))
        .to_string()
}

/// The headline acceptance test: for every algorithm, at worker
/// parallelism 1, 2, and 8, the terminal SSE `done` event is bit-identical
/// (fingerprint and all) to the blocking HTTP response AND to a direct
/// in-process `QueryService::call`; intermediate updates improve strictly
/// monotonically with contiguous sequence numbers.
#[test]
fn streamed_answers_match_blocking_at_every_parallelism() {
    for &par in &PARALLELISM {
        let ctx = serve_ctx(|c| c.base_config.parallelism = par);
        let service = Arc::clone(&ctx.service);
        let graph = Arc::clone(&ctx.graph);
        let server = HttpServer::bind(ctx, "127.0.0.1:0").expect("bind");
        let addr = server.addr();
        for algo in ALGORITHMS {
            let body = spec_with(&[("algo", serde_json::json!(algo))]);
            // Ground truth: the in-process blocking path.
            let (request, _) = parse_request(&graph, &body).expect("fixture request");
            let direct = service.call(request);
            let direct_fp = direct.report().expect("direct run completes").fingerprint();

            let (status, blocking_body) = post(addr, "/v1/why", &body.to_string());
            assert_eq!(status, 200, "[p={par} {algo}] blocking HTTP failed");
            let blocking: serde_json::Value = serde_json::from_str(&blocking_body).unwrap();
            assert_eq!(
                fingerprint_of(&blocking),
                direct_fp,
                "[p={par} {algo}] HTTP blocking diverged from direct call"
            );

            let streaming = spec_with(&[
                ("algo", serde_json::json!(algo)),
                ("stream", serde_json::json!(true)),
            ]);
            let (status, sse_body) = post(addr, "/v1/why", &streaming.to_string());
            assert_eq!(status, 200, "[p={par} {algo}] SSE HTTP failed");
            let events = sse_events(&sse_body);
            let (last_name, last_data) = events.last().expect("at least the done event");
            assert_eq!(
                last_name, "done",
                "[p={par} {algo}] stream must end in done"
            );
            assert_eq!(
                fingerprint_of(last_data),
                direct_fp,
                "[p={par} {algo}] terminal SSE event diverged from blocking answer"
            );

            // Intermediate updates: contiguous seq, strictly improving.
            let mut prev_closeness = f64::NEG_INFINITY;
            for (i, (name, data)) in events[..events.len() - 1].iter().enumerate() {
                assert_eq!(name, "update", "[p={par} {algo}] non-update mid-stream");
                assert_eq!(
                    data.get("seq").and_then(serde_json::Value::as_u64),
                    Some(i as u64),
                    "[p={par} {algo}] update seq not contiguous"
                );
                let closeness = data
                    .get("closeness")
                    .and_then(serde_json::Value::as_f64)
                    .expect("update carries closeness");
                assert!(
                    closeness > prev_closeness,
                    "[p={par} {algo}] update #{i} did not improve: \
                     {closeness} <= {prev_closeness}"
                );
                prev_closeness = closeness;
            }
        }
        // Both anytime algorithms stream at least one real update here
        // (the paper question improves past the root rewrite), so the
        // checks above saw AnsW's and AnsHeu's updates.
        for algo in ["answ", "heu", "heub:7"] {
            let streaming = spec_with(&[
                ("algo", serde_json::json!(algo)),
                ("stream", serde_json::json!(true)),
            ]);
            let (_, sse_body) = post(addr, "/v1/why", &streaming.to_string());
            let events = sse_events(&sse_body);
            assert!(
                events.len() > 1,
                "[p={par}] {algo} streamed no intermediate updates"
            );
        }
    }
}

#[test]
fn endpoint_smoke() {
    let ctx = serve_ctx(|_| {});
    let server = HttpServer::bind(ctx, "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    let (status, body) = get(addr, "/v1/healthz");
    assert_eq!(status, 200);
    assert!(body.contains("\"ok\""));

    let batch = serde_json::json!({ "questions": [spec(), spec()] });
    let (status, body) = post(addr, "/v1/why/batch", &batch.to_string());
    assert_eq!(status, 200);
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    let responses = v
        .get("responses")
        .and_then(serde_json::Value::as_array)
        .expect("responses array");
    assert_eq!(responses.len(), 2);
    for r in responses {
        assert_eq!(
            r.get("status").and_then(serde_json::Value::as_str),
            Some("done")
        );
    }

    let (status, _) = post(addr, "/v1/why", "not json at all");
    assert_eq!(status, 400);
    let (status, body) = post(addr, "/v1/why", "{\"query\": []}");
    assert_eq!(status, 400);
    assert!(body.contains("error"));
    let (status, _) = get(addr, "/no/such/route");
    assert_eq!(status, 404);

    let (status, body) = get(addr, "/v1/stats");
    assert_eq!(status, 200);
    let stats: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert!(stats.get("submitted").and_then(serde_json::Value::as_u64) >= Some(2));
    assert!(stats.get("counters").is_some());
}

/// Overload contract over the wire: with shedding enabled and the queue
/// saturated past the hard watermark, a low-priority request is refused
/// with a typed `shed`/`overload` response — immediately, not by hanging
/// on a full queue.
#[test]
fn saturated_queue_sheds_low_priority_over_http() {
    let ctx = serve_ctx(|c| {
        c.queue_cap = 4;
        c.shed = ShedConfig {
            enabled: true,
            ..Default::default()
        };
    });
    let service = Arc::clone(&ctx.service);
    let graph = Arc::clone(&ctx.graph);
    let server = HttpServer::bind(ctx, "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    // Saturate: hold the workers, fill the queue to capacity.
    service.pause();
    let mut held = Vec::new();
    for _ in 0..4 {
        let (request, _) = parse_request(&graph, &spec()).unwrap();
        held.push(service.submit(request));
    }

    let low = spec_with(&[("priority", serde_json::json!("low"))]);
    let (status, body) = post(addr, "/v1/why", &low.to_string());
    assert_eq!(status, 503, "low priority must be shed, got {body}");
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(
        v.get("status").and_then(serde_json::Value::as_str),
        Some("shed")
    );
    assert_eq!(
        v.get("shed")
            .and_then(|s| s.get("reason"))
            .and_then(serde_json::Value::as_str),
        Some("overload")
    );
    // Liveness does not queue behind the saturated service.
    let (status, _) = get(addr, "/v1/healthz");
    assert_eq!(status, 200, "healthz must answer under saturation");

    // Drain and confirm the held requests still complete normally.
    service.resume();
    for p in held {
        assert!(p.wait().report().is_some(), "held request lost");
    }
}

#[test]
fn rate_limiting_is_per_tenant_over_http() {
    let ctx = serve_ctx(|c| {
        c.rate_limit = Some(RateLimitConfig {
            per_sec: 0.001, // effectively no refill within the test
            burst: 2.0,
        });
    });
    let server = HttpServer::bind(ctx, "127.0.0.1:0").expect("bind");
    let addr = server.addr();
    let body = spec().to_string();

    // Tenant "a" has a burst of 2: two served, the third refused as 429.
    for i in 0..2 {
        let (status, _) = post_with(addr, "/v1/why", &body, "x-wqe-tenant: a\r\n");
        assert_eq!(status, 200, "tenant a request #{i} should be admitted");
    }
    let (status, reply) = post_with(addr, "/v1/why", &body, "x-wqe-tenant: a\r\n");
    assert_eq!(status, 429, "tenant a over burst, got {reply}");
    let v: serde_json::Value = serde_json::from_str(&reply).unwrap();
    assert_eq!(
        v.get("shed")
            .and_then(|s| s.get("reason"))
            .and_then(serde_json::Value::as_str),
        Some("rate_limited")
    );

    // Tenant "b" and anonymous requests are unaffected.
    let (status, _) = post_with(addr, "/v1/why", &body, "x-wqe-tenant: b\r\n");
    assert_eq!(status, 200);
    let (status, _) = post(addr, "/v1/why", &body);
    assert_eq!(status, 200);
}

/// A client that requests a stream and vanishes mid-read must not wedge
/// the server or poison later requests.
#[test]
fn client_disconnect_mid_stream_is_harmless() {
    let ctx = serve_ctx(|_| {});
    let server = HttpServer::bind(ctx, "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    for _ in 0..4 {
        let body = spec_with(&[("stream", serde_json::json!(true))]).to_string();
        let mut stream = TcpStream::connect(addr).expect("connect");
        let req = format!(
            "POST /v1/why HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(req.as_bytes()).unwrap();
        // Read just the response head, then hang up with the stream live.
        let mut first = [0u8; 32];
        let _ = stream.read(&mut first);
        drop(stream);
    }
    // Give abandoned handlers a moment, then prove the server still works.
    std::thread::sleep(Duration::from_millis(50));
    let (status, _) = get(addr, "/v1/healthz");
    assert_eq!(status, 200);
    let (status, body) = post(addr, "/v1/why", &spec().to_string());
    assert_eq!(
        status, 200,
        "server wedged after client disconnects: {body}"
    );
}

/// A `Content-Length` that is not a nonnegative integer is a 400 naming
/// the header, not a body read as empty.
#[test]
fn malformed_content_length_is_a_400_naming_the_header() {
    let ctx = serve_ctx(|_| {});
    let server = HttpServer::bind(ctx, "127.0.0.1:0").expect("bind");
    let body = spec().to_string();
    let (status, reply) = exchange_with_headers(
        server.addr(),
        &format!("POST /v1/why HTTP/1.1\r\nHost: t\r\nContent-Length: 12x\r\n\r\n{body}"),
    );
    assert_eq!(status, 400, "{reply}");
    let v: serde_json::Value = serde_json::from_str(&reply).unwrap();
    assert_eq!(
        v.get("error").and_then(serde_json::Value::as_str),
        Some("content-length: expected a nonnegative integer")
    );
}

/// A head that trickles in one byte per write — so the blank line that
/// ends it is split across reads — still parses.
#[test]
fn request_head_split_across_reads_parses() {
    let ctx = serve_ctx(|_| {});
    let server = HttpServer::bind(ctx, "127.0.0.1:0").expect("bind");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).unwrap();
    for byte in b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n" {
        stream.write_all(&[*byte]).expect("send");
    }
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("receive");
    assert!(raw.starts_with("HTTP/1.1 200 "), "{raw:?}");
    assert!(raw.contains("\"ok\""), "{raw:?}");
}

/// Drops `server` on another thread and fails, rather than hangs, if the
/// drop does not return within a generous limit.
fn drop_or_fail(server: HttpServer) {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        drop(server);
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(60))
        .expect("dropping the server hung");
}

/// Dropping an idle server returns and closes its listener.
#[test]
fn dropping_an_idle_server_closes_its_port() {
    let server = HttpServer::bind(serve_ctx(|_| {}), "127.0.0.1:0").expect("bind");
    let addr = server.addr();
    assert_eq!(get(addr, "/v1/healthz").0, 200);
    drop_or_fail(server);
    assert!(
        TcpStream::connect(addr).is_err(),
        "the port still accepts after drop"
    );
}

/// A server bound to the unspecified address is woken on loopback.
#[test]
fn server_bound_to_unspecified_address_drops() {
    let server = HttpServer::bind(serve_ctx(|_| {}), "0.0.0.0:0").expect("bind");
    let port = server.addr().port();
    let loopback = SocketAddr::from(([127, 0, 0, 1], port));
    assert_eq!(get(loopback, "/v1/healthz").0, 200);
    drop_or_fail(server);
}

/// Shutdown's wake connection never reaches the `HttpConn` fault site,
/// so it neither spends a firing nor counts as a consulted call.
#[test]
fn shutdown_spends_no_http_conn_fault() {
    let plan = Arc::new(FaultPlan::new(7).arm(FaultSite::HttpConn, 1));
    let server = {
        let _fault = Scope {
            faults: Some(Arc::clone(&plan)),
            ..Scope::default()
        }
        .enter();
        HttpServer::bind(serve_ctx(|_| {}), "127.0.0.1:0").expect("bind")
    };
    // Period 1 fires on every consult: the one request is dropped, which
    // proves the accept thread runs under the plan.
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let _ = stream.write_all(b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    let mut raw = Vec::new();
    let _ = stream.read_to_end(&mut raw);
    assert!(raw.is_empty(), "a fired HttpConn fault still answered");
    let (fired, calls) = (
        plan.fired(FaultSite::HttpConn),
        plan.calls(FaultSite::HttpConn),
    );
    assert_eq!(fired, 1);
    drop_or_fail(server);
    assert_eq!(plan.fired(FaultSite::HttpConn), fired);
    assert_eq!(plan.calls(FaultSite::HttpConn), calls);
}

/// Dropping a server with a request in flight waits for that request to
/// be answered before returning.
#[test]
fn drop_drains_an_in_flight_request() {
    let server = HttpServer::bind(serve_ctx(|_| {}), "127.0.0.1:0").expect("bind");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    // Half a head: the handler is accepted and blocks reading the rest.
    stream
        .write_all(b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n")
        .unwrap();
    let accepted_by = Instant::now() + Duration::from_secs(60);
    while server.active_connections() == 0 {
        assert!(Instant::now() < accepted_by, "connection never accepted");
        std::thread::yield_now();
    }
    let (tx, rx) = mpsc::channel();
    let dropper = std::thread::spawn(move || {
        drop(server);
        let _ = tx.send(());
    });
    assert_eq!(
        rx.recv_timeout(Duration::from_millis(200)),
        Err(mpsc::RecvTimeoutError::Timeout),
        "drop returned with a handler still in flight"
    );
    stream.write_all(b"\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("receive");
    assert!(raw.starts_with("HTTP/1.1 200 "), "{raw:?}");
    rx.recv_timeout(Duration::from_secs(60))
        .expect("drop never returned after the drain");
    dropper.join().unwrap();
}

/// MCP speaks the same answers: the `ask_why` tool's text content carries
/// the same fingerprint the blocking service call produces.
#[test]
fn mcp_tool_answers_match_blocking_service() {
    let ctx = serve_ctx(|_| {});
    let (request, _) = parse_request(&ctx.graph, &spec()).unwrap();
    let expected_fp = ctx
        .service
        .call(request)
        .report()
        .expect("direct run")
        .fingerprint();

    let call = serde_json::json!({
        "jsonrpc": "2.0", "id": 2, "method": "tools/call",
        "params": { "name": "ask_why", "arguments": spec() },
    });
    let input = format!(
        "{}\n{}\n",
        serde_json::json!({"jsonrpc": "2.0", "id": 1, "method": "initialize", "params": {}}),
        call
    );
    let mut out = Vec::new();
    mcp::serve_mcp(&ctx, BufReader::new(input.as_bytes()), &mut out).expect("mcp loop");
    let replies: Vec<serde_json::Value> = String::from_utf8(out)
        .unwrap()
        .lines()
        .map(|l| serde_json::from_str(l).expect("reply is JSON"))
        .collect();
    assert_eq!(replies.len(), 2);
    let text = replies[1]
        .get("result")
        .and_then(|r| r.get("content"))
        .and_then(serde_json::Value::as_array)
        .and_then(|c| c.first())
        .and_then(|c| c.get("text"))
        .and_then(serde_json::Value::as_str)
        .expect("tool text content");
    let body: serde_json::Value = serde_json::from_str(text).expect("tool text is JSON");
    assert_eq!(
        body.get("status").and_then(serde_json::Value::as_str),
        Some("done")
    );
    assert_eq!(fingerprint_of(&body), expected_fp);
}

/// A spec mistake fails alike on every front door: a 400 over HTTP, an
/// error from the MCP tool and a nonzero `wqe-cli why` exit, all with one
/// message that names the mistake's JSON path.
#[test]
fn spec_probes_fail_alike_on_every_front_door() {
    const PROBES: [(&str, &str, &str); 4] = [
        (
            r#""bound": 2}"#,
            r#""bound": "2"}"#,
            "query.edges[1].bound: ",
        ),
        (r#""bound": 2}"#, r#""bund": 2}"#, "query.edges[1].bund: "),
        (
            r#""bound": 2}"#,
            r#""bound": 4294967297}"#,
            "query.edges[1].bound: ",
        ),
        (
            r#""attr": "Storage"}}"#,
            r#""attr": "Storage"}, "value": 1}"#,
            "exemplar.constraints[1]: ",
        ),
    ];
    let dir = std::env::temp_dir().join(format!("wqe-probe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let graph = dir.join("product.jsonl");
    let question = dir.join("probe.json");
    let file = std::fs::File::create(&graph).expect("graph file");
    wqe::graph::write_jsonl(&wqe::graph::product::product_graph().graph, file)
        .expect("write graph");
    let ctx = serve_ctx(|_| {});
    let server = HttpServer::bind(ctx.clone(), "127.0.0.1:0").expect("bind");

    for (from, to, path) in PROBES {
        assert_eq!(common::PAPER_SPEC.matches(from).count(), 1, "{from}");
        let body = common::PAPER_SPEC.replace(from, to);

        let (status, reply) = post(server.addr(), "/v1/why", &body);
        assert_eq!(status, 400, "{body}");
        let reply: serde_json::Value = serde_json::from_str(&reply).expect("JSON error");
        let http = reply
            .get("error")
            .and_then(serde_json::Value::as_str)
            .unwrap();

        let arguments: serde_json::Value = serde_json::from_str(&body).unwrap();
        let call = serde_json::json!({
            "jsonrpc": "2.0", "id": 1, "method": "tools/call",
            "params": { "name": "ask_why", "arguments": arguments },
        });
        let reply = &rpc(&ctx, &format!("{call}\n"))[0];
        let mcp = reply
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(serde_json::Value::as_str)
            .unwrap();

        std::fs::write(&question, &body).expect("write probe");
        let cli = std::process::Command::new(env!("CARGO_BIN_EXE_wqe-cli"))
            .args([
                "why",
                graph.to_str().unwrap(),
                question.to_str().unwrap(),
                "--budget",
                "4",
            ])
            .env_remove("WQE_FAULT_SEED")
            .output()
            .expect("run wqe-cli");
        assert!(!cli.status.success(), "wqe-cli answered {body}");
        let stderr = String::from_utf8(cli.stderr).unwrap();

        assert!(http.starts_with(&format!("spec error: {path}")), "{http}");
        assert_eq!(mcp, http);
        assert_eq!(stderr.trim_end(), format!("error: {http}"));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Update ops are strict too: a node id outside `u32` is a 400 naming it,
/// never a wrapped id that edits another node, and so are `attrs` that are
/// not an object.
#[test]
fn out_of_range_update_fields_are_400s_naming_their_path() {
    let graph = Arc::new(wqe::graph::product::product_graph().graph);
    let store = Arc::new(wqe::core::GraphStore::new(Arc::clone(&graph)));
    let ctx = ServeCtx {
        service: Arc::new(QueryService::with_store(
            Arc::clone(&store),
            ServiceConfig::default(),
        )),
        graph,
        store: Some(store),
    };
    let server = HttpServer::bind(ctx, "127.0.0.1:0").expect("bind");
    let cases = [
        (
            r#"{"updates": [{"op": "detach_node", "node": 4294967301}]}"#,
            "updates[0].node: ",
        ),
        (
            r#"{"updates": [{"op": "add_node", "label": "Cellphone", "attrs": 7}]}"#,
            "updates[0].attrs: ",
        ),
    ];
    for (body, path) in cases {
        let (status, reply) = post(server.addr(), "/v1/graph/update", body);
        assert_eq!(status, 400, "{reply}");
        assert!(reply.contains(path), "{reply}");
    }
    let (_, epochs) = get(server.addr(), "/v1/epochs");
    assert!(
        epochs.contains("\"head\":0"),
        "a refused batch published: {epochs}"
    );
}

/// Runs JSON-RPC `lines` through the MCP loop and returns the replies.
fn rpc(ctx: &ServeCtx, lines: &str) -> Vec<serde_json::Value> {
    let mut out = Vec::new();
    mcp::serve_mcp(ctx, BufReader::new(lines.as_bytes()), &mut out).expect("mcp loop");
    let text = String::from_utf8(out).expect("utf-8 replies");
    text.lines()
        .map(|l| serde_json::from_str(l).expect("reply is JSON"))
        .collect()
}

/// A value's keys, sorted.
fn keys(v: Option<&serde_json::Value>) -> Vec<String> {
    let object = v.and_then(serde_json::Value::as_object).expect("an object");
    let mut keys: Vec<String> = object.keys().cloned().collect();
    keys.sort();
    keys
}

/// The `ask_why` schema lists exactly the keys the parser accepts, so an
/// accepted key cannot be missing from `tools/list`.
#[test]
fn tool_schema_lists_every_request_key() {
    let list = r#"{"jsonrpc":"2.0","id":1,"method":"tools/list"}"#;
    let replies = rpc(&serve_ctx(|_| {}), &format!("{list}\n"));
    let schema = replies[0]
        .get("result")
        .and_then(|r| r.get("tools"))
        .and_then(serde_json::Value::as_array)
        .and_then(|tools| tools[0].get("inputSchema"))
        .expect("ask_why input schema");
    let props = schema.get("properties");
    let request = serde_json::to_value(&wqe::core::spec::Request::default());
    let mut top = keys(Some(&request));
    top.retain(|k| k != "diff");
    assert_eq!(top, keys(props));
    for part in ["query", "exemplar"] {
        let described = props
            .and_then(|p| p.get(part))
            .and_then(|p| p.get("properties"));
        assert_eq!(keys(request.get(part)), keys(described), "{part}");
    }
}

/// `diff` belongs to the top level of `POST /v1/why` only: in an MCP call
/// or a batch item it is an error naming its path, not ignored.
#[test]
fn diff_is_an_error_in_a_batch_item_and_an_mcp_call() {
    let ctx = serve_ctx(|_| {});
    let with_diff = spec_with(&[("diff", serde_json::json!({"from": 0, "to": 1}))]);
    let call = serde_json::json!({
        "jsonrpc": "2.0", "id": 1, "method": "tools/call",
        "params": { "name": "ask_why", "arguments": with_diff.clone() },
    });
    let replies = rpc(&ctx, &format!("{call}\n"));
    let message = replies[0]
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(serde_json::Value::as_str);
    let expected = "spec error: diff: valid only at the top level of POST /v1/why";
    assert_eq!(message, Some(expected));

    let server = HttpServer::bind(ctx, "127.0.0.1:0").expect("bind");
    let batch = serde_json::json!({ "questions": [spec(), with_diff] }).to_string();
    let (status, body) = post(server.addr(), "/v1/why/batch", &batch);
    assert_eq!(status, 400);
    assert!(body.contains("questions[1].diff: valid only"), "{body}");
}

/// The JSON-RPC envelope and the `tools/call` params are strict: a
/// malformed envelope is an invalid request (`-32600`) under its id, and
/// an unknown params key is invalid params (`-32602`) naming the key.
#[test]
fn mcp_envelope_and_params_are_strict() {
    let call = serde_json::json!({
        "jsonrpc": "2.0", "id": 2, "method": "tools/call",
        "params": { "name": "ask_why", "arguments": spec(), "argumnets": {} },
    });
    // MCP allows `_meta` on every request's params; it is not an unknown key.
    let with_meta = serde_json::json!({
        "jsonrpc": "2.0", "id": 4, "method": "tools/call",
        "params": { "name": "ask_why", "arguments": spec(), "_meta": { "progressToken": 7 } },
    });
    let lines = format!(
        "{}\n{}\n{}\n{}\n",
        r#"{"jsonrpc":"2.0","id":1,"method":5}"#,
        call,
        r#"{"jsonrpc":"1.0","id":3,"method":"ping"}"#,
        with_meta
    );
    let replies = rpc(&serve_ctx(|_| {}), &lines);
    assert_eq!(replies.len(), 4);
    let error = |r: &serde_json::Value| {
        let e = r.get("error").expect("an error reply");
        let code = e.get("code").and_then(serde_json::Value::as_i64);
        let message = e.get("message").and_then(serde_json::Value::as_str);
        (
            r.get("id").and_then(serde_json::Value::as_u64),
            code,
            message.unwrap_or("").to_string(),
        )
    };
    let (id, code, message) = error(&replies[0]);
    assert_eq!((id, code), (Some(1), Some(-32600)), "{message}");
    assert!(message.contains("method"), "{message}");
    let (id, code, message) = error(&replies[1]);
    assert_eq!((id, code), (Some(2), Some(-32602)), "{message}");
    assert!(message.contains("argumnets: unknown field"), "{message}");
    let (id, code, message) = error(&replies[2]);
    assert_eq!((id, code), (Some(3), Some(-32600)), "{message}");
    assert!(message.contains("jsonrpc"), "{message}");
    let result = replies[3].get("result").expect("_meta is accepted");
    assert_eq!(
        replies[3].get("id").and_then(serde_json::Value::as_u64),
        Some(4)
    );
    assert_eq!(result.get("isError"), Some(&serde_json::Value::Bool(false)));
}

/// Pieces the raw-head loop assembles HTTP heads from: methods, routes,
/// versions, line ends, headers with good, huge, negative and garbage
/// values, and bytes that are not UTF-8.
const HEAD_PIECES: [&[u8]; 26] = [
    b"GET ",
    b"POST ",
    b"DELETE ",
    b"/v1/healthz",
    b"/v1/why",
    b"/v1/why/batch",
    b"/",
    b"?a=b",
    b" HTTP/1.1",
    b" HTTP/1.0",
    b" HTTP/9",
    b"\r\n",
    b"\n",
    b"\r\n\r\n",
    b"Host: t\r\n",
    b"Content-Length: ",
    b"0",
    b"18446744073709551616",
    b"-1",
    b"Transfer-Encoding: chunked\r\n",
    b"Connection: close\r\n",
    b"x-wqe-tenant: ",
    b": ",
    b"{\"query\":",
    b"\xff\xfe\x00",
    b"\t ",
];

/// Never-panic over raw HTTP heads, on the property shim's fixed cases:
/// each head goes over its own loopback connection, and after each one
/// `/v1/healthz` still answers 200.
#[test]
fn raw_http_heads_never_break_the_server() {
    use proptest::Strategy as _;
    let server = HttpServer::bind(serve_ctx(|_| {}), "127.0.0.1:0").expect("bind");
    let addr = server.addr();
    let pieces = proptest::collection::vec(0usize..HEAD_PIECES.len(), 0..20);
    for case in 0..96 {
        let mut rng = proptest::deterministic_rng("raw_http_heads", case);
        let head: Vec<u8> = pieces
            .sample(&mut rng)
            .into_iter()
            .flat_map(|i| HEAD_PIECES[i].iter().copied())
            .collect();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // The server may answer and close before reading everything.
        let _ = stream.write_all(&head);
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let _ = stream.read_to_end(&mut Vec::new());
        let (status, _) = get(addr, "/v1/healthz");
        assert_eq!(
            status,
            200,
            "after head {:?}",
            String::from_utf8_lossy(&head)
        );
    }
}
