//! The read path every workload shares: a question goes to a
//! [`QueryService`] and an answer comes back. Untraced runs call the
//! service directly (or over HTTP, in `serve_hot`); traced runs drive the
//! three public calls the HTTP handler makes — decode and
//! `parse_request`, `QueryService::call`, `response_json` and encode —
//! with a span around each.

use crate::config::OP_TIMEOUT_S;
use crate::harness::{median, percentile, sorted, Digest};
use crate::inputs::{Op, PoolQuestion};
use crate::spec_render;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::Instant;
use wqe_core::{AnswerReport, QueryRequest, QueryResponse, QueryService};
use wqe_graph::Graph;
use wqe_serve::{parse_request, response_json};

/// What the client saw of the read ops of one timed phase.
#[derive(Debug, Default)]
pub struct ReadLog {
    pub latencies_ms: Vec<f64>,
    /// The distinct op each sample is a repeat of, parallel to
    /// `latencies_ms`.
    pub ops: Vec<usize>,
    pub failed: u64,
    pub digest: Digest,
    pub cache_hits: u64,
    pub queue_ms: Vec<f64>,
    pub service_ms: Vec<f64>,
    pub bytes_in: u64,
    pub bytes_out: u64,
}

impl ReadLog {
    pub fn attempted(&self) -> u64 {
        self.latencies_ms.len() as u64
    }

    /// Records one op answered by a service.
    pub fn record(
        &mut self,
        op: usize,
        latency_ms: f64,
        response: &QueryResponse,
        expected: Option<&str>,
    ) {
        self.queue_ms.push(response.queue_ms);
        self.service_ms.push(response.service_ms);
        self.cache_hits += u64::from(response.cache_hit());
        self.record_report(op, latency_ms, response.report(), expected);
    }

    /// Records one op. It fails when it did not complete (`report` is
    /// `None`), took longer than the per-op timeout, or — where the caller
    /// knows the reference answer — answered something else.
    pub fn record_report(
        &mut self,
        op: usize,
        latency_ms: f64,
        report: Option<&AnswerReport>,
        expected: Option<&str>,
    ) {
        self.latencies_ms.push(latency_ms);
        self.ops.push(op);
        let fingerprint = report.map(AnswerReport::fingerprint);
        let ok = match (&fingerprint, expected) {
            (None, _) => false,
            (Some(got), Some(want)) => got == want,
            (Some(_), None) => true,
        };
        if !ok || latency_ms > OP_TIMEOUT_S * 1e3 {
            self.failed += 1;
        }
        self.digest.push(fingerprint.as_deref().unwrap_or("failed"));
    }

    /// Every sample, ascending: the latency distribution of a traffic
    /// workload, whose requests are draws.
    pub fn pooled(&self) -> Vec<f64> {
        sorted(self.latencies_ms.clone())
    }

    /// Each distinct op's median latency over its repeats, ascending: the
    /// latency distribution of a workload that runs the same op list
    /// several times. The median over repeats drops the host's hiccups and
    /// what the op's place in a pass did to its caches.
    pub fn per_op(&self) -> Vec<f64> {
        let mut by_op: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for (&op, &ms) in self.ops.iter().zip(&self.latencies_ms) {
            by_op.entry(op).or_default().push(ms);
        }
        sorted(by_op.values().map(|ms| median(ms)).collect())
    }
}

/// (p50, p90, p99, max) of an ascending latency sample.
pub fn tail(sorted: &[f64]) -> (f64, f64, f64, f64) {
    (
        percentile(sorted, 0.5),
        percentile(sorted, 0.9),
        percentile(sorted, 0.99),
        sorted.last().copied().unwrap_or(0.0),
    )
}

/// The request body of an op, as the wire would carry it.
pub fn body_of(graph: &Graph, pool: &[PoolQuestion], op: Op, stream: bool) -> String {
    spec_render::render(graph, &pool[op.question].why.question, op.algo, stream).to_string()
}

/// One op straight into the service. Returns the client-observed latency.
pub fn call_direct(service: &QueryService, pool: &[PoolQuestion], op: Op) -> (f64, QueryResponse) {
    let request = QueryRequest::new(pool[op.question].why.question.clone(), op.algo);
    let started = Instant::now();
    let response = service.call(request);
    (started.elapsed().as_secs_f64() * 1e3, response)
}

/// One op through the serve path, in process. With a tracer, a `request`
/// span with `serve.parse`, `service.call` and `serve.encode` children is
/// recorded; without one the same calls run unobserved, which is what the
/// tracing overhead is measured against. Returns latency, the response,
/// and the encoded response's size.
pub fn call_served(
    service: &QueryService,
    graph: &Graph,
    body: &str,
    tracer: Option<&mut Tracer>,
    request_id: u64,
) -> (f64, QueryResponse, usize) {
    let parse = || {
        let spec: serde_json::Value = serde_json::from_str(body).expect("rendered body is JSON");
        parse_request(graph, &spec)
            .expect("rendered body is a valid request")
            .0
    };
    let encode = |response: &QueryResponse| response_json(response).to_string().len();
    let started = Instant::now();
    let (response, out_len) = match tracer {
        Some(t) => {
            let root = t.begin("request", None, request_id);
            let request = t.span("serve.parse", Some(root), request_id, parse);
            let response = t.span("service.call", Some(root), request_id, || {
                service.call(request)
            });
            let out_len = t.span("serve.encode", Some(root), request_id, || encode(&response));
            t.end(root);
            (response, out_len)
        }
        None => {
            let response = service.call(parse());
            let out_len = encode(&response);
            (response, out_len)
        }
    };
    (started.elapsed().as_secs_f64() * 1e3, response, out_len)
}
