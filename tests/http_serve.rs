//! The network front-end suite: everything the HTTP/SSE and MCP layers
//! hand back must be bit-identical to the blocking serving path — the
//! terminal `done` event of a stream IS the blocking response, at any
//! worker parallelism, for every algorithm. Plus the operational
//! contracts: overload sheds typed (never hangs), rate limiting is
//! per-tenant, and a client hanging up mid-stream harms nobody else.

use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;
use wqe::core::{
    CacheConfig, EngineCtx, QueryService, RateLimitConfig, ServiceConfig, ShedConfig, WqeConfig,
};
use wqe::serve::http::HttpServer;
use wqe::serve::{mcp, parse_request, ServeCtx};

const PARALLELISM: [usize; 3] = [1, 2, 8];

const ALGORITHMS: [&str; 8] = [
    "answ", "answnc", "answb", "heu", "heub:7", "fm", "whymany", "whyempty",
];

/// The paper's Fig. 1 question in spec form (same fixture as the spec
/// suite); exercised here through the network layers.
const PAPER_SPEC: &str = r#"{
  "query": {
    "max_bound": 4,
    "nodes": [
      {"id": "phone", "label": "Cellphone", "focus": true,
       "literals": [
         {"attr": "Price", "op": ">=", "value": 840},
         {"attr": "Brand", "op": "=", "value": "Samsung"},
         {"attr": "RAM", "op": ">=", "value": 4},
         {"attr": "Display", "op": ">=", "value": 62}
       ]},
      {"id": "carrier", "label": "Carrier"},
      {"id": "sensor", "label": "Sensor"}
    ],
    "edges": [
      {"from": "phone", "to": "carrier", "bound": 1},
      {"from": "phone", "to": "sensor", "bound": 2}
    ]
  },
  "exemplar": {
    "tuples": [
      {"Display": 62, "Storage": "?", "Price": "_"},
      {"Display": 63, "Storage": "?", "Price": "?"}
    ],
    "constraints": [
      {"lhs": {"tuple": 1, "attr": "Price"}, "op": "<", "value": 800},
      {"lhs": {"tuple": 0, "attr": "Storage"}, "op": ">",
       "var": {"tuple": 1, "attr": "Storage"}}
    ]
  }
}"#;

fn spec() -> serde_json::Value {
    serde_json::from_str(PAPER_SPEC).expect("fixture parses")
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
        cache: CacheConfig {
            capacity: 0,
            ..Default::default()
        },
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

            let (status, blocking_body) = post(addr, "/why", &body.to_string());
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
            let (status, sse_body) = post(addr, "/why", &streaming.to_string());
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
        // The anytime algorithm streams at least one real update here (the
        // paper question improves past the root rewrite).
        let streaming = spec_with(&[("stream", serde_json::json!(true))]);
        let (_, sse_body) = post(addr, "/why", &streaming.to_string());
        let events = sse_events(&sse_body);
        assert!(
            events.len() > 1,
            "[p={par}] answ streamed no intermediate updates"
        );
    }
}

#[test]
fn endpoint_smoke() {
    let ctx = serve_ctx(|_| {});
    let server = HttpServer::bind(ctx, "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert!(body.contains("\"ok\""));

    let batch = serde_json::json!({ "questions": [spec(), spec()] });
    let (status, body) = post(addr, "/why/batch", &batch.to_string());
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

    let (status, _) = post(addr, "/why", "not json at all");
    assert_eq!(status, 400);
    let (status, body) = post(addr, "/why", "{\"query\": []}");
    assert_eq!(status, 400);
    assert!(body.contains("error"));
    let (status, _) = get(addr, "/no/such/route");
    assert_eq!(status, 404);

    let (status, body) = get(addr, "/stats");
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
    let (status, body) = post(addr, "/why", &low.to_string());
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
    let (status, _) = get(addr, "/healthz");
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
        let (status, _) = post_with(addr, "/why", &body, "x-wqe-tenant: a\r\n");
        assert_eq!(status, 200, "tenant a request #{i} should be admitted");
    }
    let (status, reply) = post_with(addr, "/why", &body, "x-wqe-tenant: a\r\n");
    assert_eq!(status, 429, "tenant a over burst, got {reply}");
    let v: serde_json::Value = serde_json::from_str(&reply).unwrap();
    assert_eq!(
        v.get("shed")
            .and_then(|s| s.get("reason"))
            .and_then(serde_json::Value::as_str),
        Some("rate_limited")
    );

    // Tenant "b" and anonymous requests are unaffected.
    let (status, _) = post_with(addr, "/why", &body, "x-wqe-tenant: b\r\n");
    assert_eq!(status, 200);
    let (status, _) = post(addr, "/why", &body);
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
            "POST /why HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
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
    let (status, _) = get(addr, "/healthz");
    assert_eq!(status, 200);
    let (status, body) = post(addr, "/why", &spec().to_string());
    assert_eq!(
        status, 200,
        "server wedged after client disconnects: {body}"
    );
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
