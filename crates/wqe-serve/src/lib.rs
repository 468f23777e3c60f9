//! The WQE network front-end: a hand-rolled HTTP/1.1 server with
//! streaming (SSE) anytime answers, and an MCP stdio tool speaking
//! JSON-RPC — both thin shells over [`wqe_core::QueryService`].
//!
//! The workspace builds fully offline, so there is no tokio and no HTTP
//! framework: [`http::HttpServer`] is a thread-per-connection server over
//! `std::net` with a blocking accept loop, which is exactly enough
//! for the serving layer it fronts (a bounded [`wqe_pool::serve::JobQueue`] of worker
//! threads — the queue, not the socket layer, is the admission control).
//!
//! ## Endpoint contract (see DESIGN.md §12)
//!
//! Every route lives under the `/v1/` prefix; any other path is a 404.
//!
//! Request bodies follow the wire contract in [`wqe_core::spec`]: strict
//! types, where an unknown key, a value of the wrong type or an
//! out-of-range integer is a 400 naming its JSON path.
//!
//! * `POST /v1/why` — body is the human-writable question spec
//!   (`{"query": .., "exemplar": ..}`) plus the optional serving keys
//!   `"algo"`, `"priority"`, `"deadline_ms"`, `"tenant"`, `"epoch"`,
//!   `"stream"` and `"diff"`. The `x-wqe-tenant` header, when present,
//!   overrides `"tenant"`. Without
//!   `"stream": true` the response is one JSON document; with it the
//!   response is `text/event-stream`: zero or more `update` events (one
//!   per best-so-far improvement, parallelism-invariant) and exactly one
//!   terminal `done` event whose report — fingerprint included — is
//!   bit-identical to what the blocking call would have returned.
//! * `POST /v1/why/batch` — `{"questions": [spec, ..]}`, answers in
//!   request order. An item may not carry `"diff"`; its `"stream"` is
//!   ignored.
//! * `GET /v1/stats` — the service's [`wqe_core::ServiceStats`] as JSON,
//!   plus `"api_version"`.
//! * `GET /v1/healthz` — liveness probe.
//! * `POST /v1/graph/update` — `{"updates": [op, ..]}` (see
//!   [`wqe_core::spec::parse_updates`]) applied as one
//!   atomic batch through the server's [`wqe_core::GraphStore`]; the
//!   response is the publish report. 409 when the server was started
//!   without a store (read-only).
//! * `GET /v1/epochs` — the store's epoch registry.
//!
//! A `/v1/why` body may carry `"epoch": N` to pin the query to a still-live
//! published epoch, or `"diff": {"from": N, "to": M}` to run the same
//! question against two epochs and get both reports plus a comparison.
//! `"diff"` is valid only there: in a batch item or an MCP call it is an
//! error.
//!
//! Report JSON carries `closeness`/`cost` twice: as plain numbers for
//! humans and as `*_bits` hex strings (raw IEEE-754 bits) so clients can
//! check bit-exact determinism over a text wire format.

#![warn(missing_docs)]

pub mod http;
pub mod mcp;

use serde::Deserialize;
use serde_json::{json, Value};
use std::sync::Arc;
use wqe_core::spec::{Request, SpecError};
use wqe_core::{
    AnswerReport, EpochInfo, GraphStore, PublishReport, QueryRequest, QueryResponse, QueryService,
    QueryStatus, RewriteResult, ShedReason,
};
use wqe_graph::{DeltaSummary, Graph};

/// Version tag of the HTTP API, reported in `/v1/stats` and used as the
/// route prefix.
pub const API_VERSION: &str = "v1";

/// Everything a front-end needs to serve: the query service and the graph
/// its question specs resolve against.
#[derive(Clone)]
pub struct ServeCtx {
    /// The serving layer.
    pub service: Arc<QueryService>,
    /// The graph, for resolving spec label/attribute names.
    pub graph: Arc<Graph>,
    /// The live graph store, when the server accepts writes. `None` means
    /// a read-only front-end: `/v1/graph/update` answers 409.
    pub store: Option<Arc<GraphStore>>,
}

/// Parses one request body, a [`wqe_core::spec::Request`]: the question
/// spec plus the serving keys. The HTTP layer overrides `tenant` from the
/// `x-wqe-tenant` header. Returns the request and whether
/// `"stream": true` was set. A `diff` is an error: only the top level of
/// `POST /v1/why` takes one.
pub fn parse_request(graph: &Graph, spec: &Value) -> Result<(QueryRequest, bool), String> {
    Request::from_value(spec)
        .map_err(SpecError::from)
        .and_then(|request| request.resolve(graph))
        .map_err(|e| e.to_string())
}

impl ServeCtx {
    /// The graph question specs should resolve against: the head epoch's
    /// when a live store is attached (publishes may have interned new
    /// label/attribute names), the fixed startup graph otherwise.
    pub fn head_graph(&self) -> Arc<Graph> {
        match &self.store {
            Some(store) => Arc::clone(store.pin().ctx().graph()),
            None => Arc::clone(&self.graph),
        }
    }
}

fn delta_json(d: &DeltaSummary) -> Value {
    json!({
        "touched_nodes": d.touched_nodes.len(),
        "added_nodes": d.added_nodes,
        "membership_labels": d.membership_labels.len(),
        "attr_labels": d.attr_labels.len(),
        "touched_attrs": d.touched_attrs.len(),
        "inserted_edges": d.inserted_edges.len(),
        "deleted_edges": d.deleted_edges.len(),
    })
}

/// Encodes one publish report for the wire.
pub fn publish_json(report: &PublishReport) -> Value {
    json!({
        "epoch": report.epoch.0,
        "no_op": report.no_op,
        "tier": report.tier.name(),
        "star_evicted": report.star_evicted,
        "delta": delta_json(&report.delta),
    })
}

/// Encodes the epoch registry for the wire.
pub fn epochs_json(epochs: &[EpochInfo]) -> Value {
    let head = epochs.iter().find(|e| e.head).map(|e| e.id.0);
    json!({
        "head": head,
        "epochs": epochs.iter().map(|e| json!({
            "epoch": e.id.0,
            "nodes": e.nodes,
            "edges": e.edges,
            "tier": e.tier,
            "live": e.live,
            "head": e.head,
        })).collect::<Vec<_>>(),
    })
}

/// The service's stats plus the API version tag.
pub fn stats_json(service: &QueryService) -> Value {
    let mut v = serde_json::to_value(&service.stats());
    if let Value::Object(m) = &mut v {
        m.insert("api_version".into(), json!(API_VERSION));
    }
    v
}

fn rewrite_json(r: &RewriteResult) -> Value {
    json!({
        "closeness": r.closeness,
        "closeness_bits": format!("{:x}", r.closeness.to_bits()),
        "cost": r.cost,
        "cost_bits": format!("{:x}", r.cost.to_bits()),
        "ops": r.ops.iter().map(|op| format!("{op:?}")).collect::<Vec<_>>(),
        "matches": r.matches.iter().map(|n| n.0).collect::<Vec<_>>(),
        "satisfies": r.satisfies,
    })
}

/// Encodes a report for the wire: best/top-k rewrites (with raw-bits
/// fields), the anytime trace, run counters, and the canonical
/// [`AnswerReport::fingerprint`] so clients can assert bit-exact parity
/// without reconstructing `f64`s from decimal text.
pub fn report_json(report: &AnswerReport) -> Value {
    json!({
        "fingerprint": report.fingerprint(),
        "best": report.best.as_ref().map(rewrite_json),
        "top_k": report.top_k.iter().map(rewrite_json).collect::<Vec<_>>(),
        "trace": serde_json::to_value(&report.trace),
        "termination": report.termination.as_str(),
        "optimal_reached": report.optimal_reached,
        "truncated": report.truncated,
        "expansions": report.expansions,
        "elapsed_ms": report.elapsed_ms,
        "match_steps": report.match_steps,
        "frontier_peak": report.frontier_peak,
    })
}

fn shed_json(reason: &ShedReason) -> Value {
    match reason {
        ShedReason::DeadlineElapsed {
            queue_ms,
            deadline_ms,
        } => json!({
            "reason": reason.as_str(),
            "queue_ms": queue_ms,
            "deadline_ms": deadline_ms,
        }),
        ShedReason::Overload {
            queue_len,
            queue_cap,
        } => json!({
            "reason": reason.as_str(),
            "queue_len": queue_len,
            "queue_cap": queue_cap,
        }),
        ShedReason::RateLimited { tenant } => json!({
            "reason": reason.as_str(),
            "tenant": tenant,
        }),
    }
}

/// Encodes one [`QueryResponse`] for the wire. The `status` field is one
/// of `"done"`, `"failed"`, `"rejected"`, `"shed"`.
pub fn response_json(resp: &QueryResponse) -> Value {
    let mut v = json!({
        "id": resp.id,
        "queue_ms": resp.queue_ms,
        "service_ms": resp.service_ms,
    });
    let obj = match &mut v {
        Value::Object(m) => m,
        _ => unreachable!("response envelope is an object"),
    };
    match &resp.status {
        QueryStatus::Done { report, cache_hit } => {
            obj.insert("status".into(), json!("done"));
            obj.insert("cache_hit".into(), json!(cache_hit));
            obj.insert("report".into(), report_json(report));
        }
        QueryStatus::Failed { error } => {
            obj.insert("status".into(), json!("failed"));
            obj.insert("error".into(), json!(error.to_string()));
        }
        QueryStatus::Rejected {
            queue_full,
            queue_len,
        } => {
            obj.insert("status".into(), json!("rejected"));
            obj.insert("queue_full".into(), json!(queue_full));
            obj.insert("queue_len".into(), json!(queue_len));
        }
        QueryStatus::Shed { reason } => {
            obj.insert("status".into(), json!("shed"));
            obj.insert("shed".into(), shed_json(reason));
        }
        // `QueryStatus` is #[non_exhaustive]; encode unknown outcomes as an
        // opaque error so the wire format stays total.
        _ => {
            obj.insert("status".into(), json!("failed"));
            obj.insert("error".into(), json!("unknown query status"));
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufReader, Read as _, Write as _};
    use std::net::TcpStream;
    use wqe_core::{EngineCtx, ServiceConfig, WqeConfig};

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

    fn serve_ctx() -> ServeCtx {
        let graph = Arc::new(wqe_graph::product::product_graph().graph);
        let ctx = EngineCtx::with_default_oracle(Arc::clone(&graph));
        let config = ServiceConfig {
            max_inflight: 2,
            queue_cap: 16,
            base_config: WqeConfig {
                budget: 3.0,
                max_expansions: 150,
                top_k: 3,
                parallelism: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        ServeCtx {
            service: Arc::new(QueryService::new(ctx, config)),
            graph,
            store: None,
        }
    }

    fn serve_ctx_live() -> ServeCtx {
        let graph = Arc::new(wqe_graph::product::product_graph().graph);
        let store = Arc::new(GraphStore::new(Arc::clone(&graph)));
        // Keep a few superseded epochs pinned so stateless HTTP clients
        // can pin-by-id and diff across a publish.
        store.set_retention(4);
        let config = ServiceConfig {
            max_inflight: 2,
            queue_cap: 16,
            base_config: WqeConfig {
                budget: 3.0,
                max_expansions: 150,
                top_k: 3,
                parallelism: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        ServeCtx {
            service: Arc::new(QueryService::with_store(Arc::clone(&store), config)),
            graph,
            store: Some(store),
        }
    }

    fn spec_value() -> Value {
        serde_json::from_str(PAPER_SPEC).expect("fixture parses")
    }

    fn spec_with(extra: &[(&str, Value)]) -> Value {
        let mut v = spec_value();
        if let Value::Object(m) = &mut v {
            for (k, val) in extra {
                m.insert((*k).into(), val.clone());
            }
        }
        v
    }

    #[test]
    fn response_json_encodes_every_status() {
        let ctx = serve_ctx();
        let (req, _) = parse_request(&ctx.graph, &spec_value()).unwrap();
        let resp = ctx.service.call(req);
        let v = response_json(&resp);
        assert_eq!(v.get("status").and_then(Value::as_str), Some("done"));
        let report = v.get("report").expect("report present");
        let fp = report.get("fingerprint").and_then(Value::as_str).unwrap();
        assert_eq!(fp, resp.report().unwrap().fingerprint());
        // best carries raw bits for bit-exact comparison over text.
        let best = report.get("best").expect("paper question has a best");
        assert!(best.get("closeness_bits").and_then(Value::as_str).is_some());

        // A bad per-request deadline maps to "failed".
        let (mut req, _) = parse_request(&ctx.graph, &spec_value()).unwrap();
        req.deadline_ms = Some(f64::NAN);
        let v = response_json(&ctx.service.call(req));
        assert_eq!(v.get("status").and_then(Value::as_str), Some("failed"));
        assert!(v.get("error").and_then(Value::as_str).is_some());
    }

    fn rpc(ctx: &ServeCtx, lines: &str) -> Vec<Value> {
        let mut out = Vec::new();
        mcp::serve_mcp(ctx, BufReader::new(lines.as_bytes()), &mut out).unwrap();
        String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| serde_json::from_str(l).expect("reply is JSON"))
            .collect()
    }

    #[test]
    fn mcp_initialize_list_call_roundtrip() {
        let ctx = serve_ctx();
        let call = json!({
            "jsonrpc": "2.0", "id": 3, "method": "tools/call",
            "params": { "name": "ask_why", "arguments": spec_value() },
        });
        let input = format!(
            concat!(
                "{{\"jsonrpc\":\"2.0\",\"id\":1,\"method\":\"initialize\",\"params\":{{}}}}\n",
                "{{\"jsonrpc\":\"2.0\",\"method\":\"notifications/initialized\"}}\n",
                "{{\"jsonrpc\":\"2.0\",\"id\":2,\"method\":\"tools/list\"}}\n",
                "{}\n",
                "{{\"jsonrpc\":\"2.0\",\"id\":4,\"method\":\"no/such\"}}\n",
            ),
            call
        );
        let replies = rpc(&ctx, &input);
        // The notification gets no reply: 4 replies for 5 lines.
        assert_eq!(replies.len(), 4);
        let init = replies[0].get("result").expect("initialize result");
        assert_eq!(
            init.get("protocolVersion").and_then(Value::as_str),
            Some(mcp::PROTOCOL_VERSION)
        );
        let tools = replies[1]
            .get("result")
            .and_then(|r| r.get("tools"))
            .and_then(Value::as_array)
            .expect("tools list");
        assert_eq!(
            tools[0].get("name").and_then(Value::as_str),
            Some("ask_why")
        );
        let content = replies[2]
            .get("result")
            .and_then(|r| r.get("content"))
            .and_then(Value::as_array)
            .expect("call content");
        let text = content[0].get("text").and_then(Value::as_str).unwrap();
        let body: Value = serde_json::from_str(text).expect("tool text is JSON");
        assert_eq!(body.get("status").and_then(Value::as_str), Some("done"));
        let err = replies[3].get("error").expect("unknown method errors");
        assert_eq!(err.get("code").and_then(Value::as_i64), Some(-32601));
    }

    #[test]
    fn mcp_parse_error_and_bad_tool() {
        let ctx = serve_ctx();
        let replies = rpc(
            &ctx,
            "this is not json\n{\"jsonrpc\":\"2.0\",\"id\":9,\"method\":\"tools/call\",\"params\":{\"name\":\"ask_how\"}}\n",
        );
        assert_eq!(replies.len(), 2);
        assert_eq!(
            replies[0]
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Value::as_i64),
            Some(-32700)
        );
        assert_eq!(
            replies[1]
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Value::as_i64),
            Some(-32602)
        );
    }

    /// One-shot HTTP exchange against a bound server, returning
    /// `(status, body)` with headers stripped.
    fn exchange(addr: std::net::SocketAddr, request: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(request.as_bytes()).unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let status: u16 = raw
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status line");
        let body = raw
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    fn post(addr: std::net::SocketAddr, path: &str, body: &str) -> (u16, String) {
        exchange(
            addr,
            &format!(
                "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        )
    }

    #[test]
    fn http_endpoints_end_to_end() {
        let ctx = serve_ctx();
        let blocking = {
            let (req, _) = parse_request(&ctx.graph, &spec_value()).unwrap();
            ctx.service.call(req)
        };
        let expected_fp = blocking.report().unwrap().fingerprint();

        let server = http::HttpServer::bind(ctx, "127.0.0.1:0").expect("bind");
        let addr = server.addr();

        let (status, body) = exchange(addr, "GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 200);
        assert!(body.contains("\"ok\""));

        let (status, body) = post(addr, "/v1/why", PAPER_SPEC);
        assert_eq!(status, 200);
        let v: Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v.get("status").and_then(Value::as_str), Some("done"));
        assert_eq!(
            v.get("report")
                .and_then(|r| r.get("fingerprint"))
                .and_then(Value::as_str),
            Some(expected_fp.as_str())
        );

        // SSE: the terminal `done` event is bit-identical to blocking.
        let streaming = spec_with(&[("stream", json!(true))]).to_string();
        let (status, body) = post(addr, "/v1/why", &streaming);
        assert_eq!(status, 200);
        let done = body
            .split("\n\n")
            .find(|frame| frame.contains("event: done"))
            .expect("done event");
        let data = done
            .lines()
            .find_map(|l| l.strip_prefix("data: "))
            .expect("done data");
        let v: Value = serde_json::from_str(data).unwrap();
        assert_eq!(
            v.get("report")
                .and_then(|r| r.get("fingerprint"))
                .and_then(Value::as_str),
            Some(expected_fp.as_str())
        );

        // Batch preserves request order.
        let batch = json!({ "questions": [spec_value(), spec_value()] }).to_string();
        let (status, body) = post(addr, "/v1/why/batch", &batch);
        assert_eq!(status, 200);
        let v: Value = serde_json::from_str(&body).unwrap();
        let responses = v.get("responses").and_then(Value::as_array).unwrap();
        assert_eq!(responses.len(), 2);

        // Error paths: bad JSON, bad spec, unknown and unversioned routes,
        // bad method.
        let (status, _) = post(addr, "/v1/why", "{nope");
        assert_eq!(status, 400);
        let (status, body) = post(addr, "/v1/why", "{\"query\": 7}");
        assert_eq!(status, 400);
        assert!(body.contains("error"));
        let (status, _) = exchange(addr, "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 404);
        let (status, _) = exchange(addr, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 404);
        let (status, _) = post(addr, "/why", PAPER_SPEC);
        assert_eq!(status, 404);
        let (status, _) = exchange(addr, "DELETE /v1/why HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 405);

        let (status, body) = exchange(addr, "GET /v1/stats HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 200);
        let v: Value = serde_json::from_str(&body).unwrap();
        assert!(v.get("submitted").and_then(Value::as_u64).unwrap() >= 4);
        assert_eq!(v.get("api_version").and_then(Value::as_str), Some("v1"));

        // Read-only server: the live-graph routes answer 409.
        let (status, _) = exchange(addr, "GET /v1/epochs HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 409);
        let (status, _) = post(addr, "/v1/graph/update", "{\"updates\":[]}");
        assert_eq!(status, 409);

        drop(server);
    }

    #[test]
    fn http_v1_live_endpoints_end_to_end() {
        let ctx = serve_ctx_live();
        let server = http::HttpServer::bind(ctx, "127.0.0.1:0").expect("bind");
        let addr = server.addr();

        let (status, body) = exchange(addr, "GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 200);
        assert!(body.contains("\"ok\""));
        let (status, body) = exchange(addr, "GET /v1/stats HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 200);
        let v: Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v.get("api_version").and_then(Value::as_str), Some("v1"));

        // Epoch registry starts with only the initial head.
        let (status, body) = exchange(addr, "GET /v1/epochs HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 200);
        let v: Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v.get("head").and_then(Value::as_u64), Some(0));

        // Baseline answer before any write.
        let (status, body) = post(addr, "/v1/why", PAPER_SPEC);
        assert_eq!(status, 200);
        let v: Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v.get("status").and_then(Value::as_str), Some("done"));

        // One update batch publishes epoch 1.
        let batch = json!({ "updates": [
            {"op": "add_node", "label": "Cellphone",
             "attrs": {"Price": 10, "Brand": "Nimbus"}},
        ] })
        .to_string();
        let (status, body) = post(addr, "/v1/graph/update", &batch);
        assert_eq!(status, 200);
        let v: Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v.get("epoch").and_then(Value::as_u64), Some(1));
        assert_eq!(v.get("no_op").and_then(Value::as_bool), Some(false));
        assert!(v.get("tier").and_then(Value::as_str).is_some());
        let (_, body) = exchange(addr, "GET /v1/epochs HTTP/1.1\r\nHost: t\r\n\r\n");
        let v: Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v.get("head").and_then(Value::as_u64), Some(1));

        // Queries can pin either live epoch; a retired/unknown one fails.
        let pinned = spec_with(&[("epoch", json!(0))]).to_string();
        let (status, body) = post(addr, "/v1/why", &pinned);
        assert_eq!(status, 200);
        let v: Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v.get("status").and_then(Value::as_str), Some("done"));
        let unknown = spec_with(&[("epoch", json!(99))]).to_string();
        let (status, body) = post(addr, "/v1/why", &unknown);
        assert_eq!(status, 400);
        assert!(body.contains("not live"));

        // Epoch-diff mode answers with both reports and a comparison.
        let diff = spec_with(&[("diff", json!({"from": 0, "to": 1}))]).to_string();
        let (status, body) = post(addr, "/v1/why", &diff);
        assert_eq!(status, 200);
        let v: Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v.get("mode").and_then(Value::as_str), Some("diff"));
        for side in ["from", "to"] {
            let resp = v.get(side).expect("both sides present");
            assert_eq!(resp.get("status").and_then(Value::as_str), Some("done"));
        }
        let changed = v
            .get("diff")
            .and_then(|d| d.get("changed"))
            .and_then(Value::as_bool);
        assert!(changed.is_some());

        // Malformed updates are rejected with a pointed error.
        let (status, body) = post(
            addr,
            "/v1/graph/update",
            "{\"updates\":[{\"op\":\"warp_node\"}]}",
        );
        assert_eq!(status, 400);
        assert!(body.contains("updates[0]"));

        drop(server);
    }
}
