//! Per-layer metrics of a traced run's replay: the workload's own op
//! sequence, driven through the in-process serve path once unobserved and
//! once with spans and a tracing oracle.

use crate::harness::{median, percentile, sorted};
use crate::metrics::Metrics;
use crate::servepath::{tail, ReadLog};
use crate::trace::{Span, Tracer};
use wqe_core::ServiceStats;

/// The program's own counters, summed over the services a replay used
/// (`search_cold` and `cold_start` make a fresh one per pass or cycle).
#[derive(Debug, Default, Clone, Copy)]
pub struct ServiceTotals {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub rejected: u64,
    pub shed: u64,
    pub failed: u64,
    pub retries: u64,
    pub degraded_serves: u64,
}

impl ServiceTotals {
    pub fn add(&mut self, stats: &ServiceStats) {
        let c = &stats.counters;
        self.hits += c.answer_cache_hits;
        self.misses += c.answer_cache_misses;
        self.evictions += c.answer_cache_evictions;
        self.rejected += stats.rejected;
        self.shed += c.shed_requests + c.rate_limited;
        self.failed += stats.failed;
        self.retries += c.retries;
        self.degraded_serves += c.degraded_serves;
    }
}

impl ServiceTotals {
    pub fn add_service(&mut self, service: Option<&wqe_core::QueryService>) {
        if let Some(service) = service {
            self.add(&service.stats());
        }
    }
}

impl From<&ServiceStats> for ServiceTotals {
    fn from(stats: &ServiceStats) -> Self {
        let mut t = ServiceTotals::default();
        t.add(stats);
        t
    }
}

/// Share of each `request` span that its three children cover.
fn request_coverage(spans: &[Span]) -> Vec<f64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .filter(|(s, _)| s.name == "request" && s.duration_ns() > 0)
        .map(|(s, c)| c as f64 / s.duration_ns() as f64)
        .collect()
}

/// `plain` and `traced` are the two replays of the same ops; `totals`
/// are the traced replay's services.
pub fn metrics(
    plain: &ReadLog,
    plain_wall_s: f64,
    traced: &ReadLog,
    traced_wall_s: f64,
    totals: ServiceTotals,
    tracer: &Tracer,
) -> Metrics {
    let mut m = Metrics::default();
    let us = |name| median(&tracer.durations_ms(name)) * 1e3;
    m.set("serve.parse_us_p50", us("serve.parse"));
    m.set("serve.encode_us_p50", us("serve.encode"));
    let n = traced.attempted().max(1) as f64;
    m.set("serve.bytes_in_per_req", traced.bytes_in as f64 / n);
    m.set("serve.bytes_out_per_req", traced.bytes_out as f64 / n);

    let queue = sorted(traced.queue_ms.clone());
    m.set("service.queue_ms_p50", percentile(&queue, 0.5));
    m.set("service.queue_ms_p90", percentile(&queue, 0.9));
    m.set("service.service_ms_p50", median(&traced.service_ms));
    let lookups = (totals.hits + totals.misses).max(1) as f64;
    m.set(
        "service.answer_cache_hit_ratio",
        totals.hits as f64 / lookups,
    );
    m.set("service.answer_cache_evictions", totals.evictions as f64);
    m.set("service.rejected", totals.rejected as f64);
    m.set("service.shed", totals.shed as f64);
    m.set("service.failed", totals.failed as f64);
    m.set("service.retries", totals.retries as f64);
    m.set("service.degraded_serves", totals.degraded_serves as f64);

    let (_, _, p99, max) = tail(&plain.pooled());
    m.set("client.latency_p99_ms", p99);
    m.set("client.latency_max_ms", max);
    let plain_rate = plain.attempted() as f64 / plain_wall_s;
    let traced_rate = traced.attempted() as f64 / traced_wall_s;
    m.set(
        "trace_overhead_pct",
        (plain_rate - traced_rate) / plain_rate * 100.0,
    );

    // Outside timing against the program's own: the three spans should
    // cover the request, and the call span should be what the service
    // says it spent queueing and serving (plus the hand-off back).
    m.set(
        "trace.request_coverage_p50",
        median(&request_coverage(tracer.spans())),
    );
    let program_ms: Vec<f64> = traced
        .queue_ms
        .iter()
        .zip(&traced.service_ms)
        .map(|(q, s)| q + s)
        .collect();
    let program = median(&program_ms);
    let call = median(&tracer.durations_ms("service.call"));
    m.set(
        "trace.call_vs_program_ratio",
        if program > 0.0 { call / program } else { 0.0 },
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_is_children_over_request() {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 1,
        };
        let spans = [
            span("request", 0, 100, None),
            span("serve.parse", 0, 10, Some(0)),
            span("service.call", 10, 90, Some(0)),
            span("serve.encode", 90, 98, Some(0)),
            span("live.publish", 100, 200, None),
        ];
        assert_eq!(request_coverage(&spans), vec![0.98]);
    }
}
