//! The benchmark's contract in one place: workloads, end-to-end metrics
//! with their regression bounds, and per-layer metrics. `BENCHMARK.json`
//! at the repository root is this table written out; a unit test keeps the
//! two in step.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base median by which the metric may worsen. Only
    /// end-to-end metrics are bounded.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Names are fixed: later issues refer to them.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "search_cold",
        "IMDB-like PLL graph, every op distinct, star cache emptied before each: search, matcher join and merge-join kernel do all the work; wire, queue and answer cache do none",
    ),
    (
        "serve_hot",
        "Zipf traffic over loopback HTTP, 2 closed-loop clients, working set 1.5x the answer cache: wire, accept loop, queue and cache do the work; a search change must show no change here",
    ),
    (
        "live_mixed",
        "50 cached reads then 1 publish, repeated, on a live GraphStore: repair, overlay and rebuild tiers trade publish cost against read cost on the same layers",
    ),
    (
        "cold_start",
        "build+write snapshot, open it and answer; open a BFS-tier snapshot past the PLL limit and answer: store, PLL construction and the BFS oracle work here and nowhere else",
    ),
];

use Better::{Higher, Lower};

pub const END_TO_END: [MetricDef; 8] = [
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("latency_p50_ms", "ms", Lower, 0.25),
    e2e("latency_p90_ms", "ms", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.15),
    e2e("anytime_t90_ms", "ms", Lower, 0.25),
    e2e("answer_delta_mean", "ratio", Higher, 0.02),
    e2e("index_build_s", "s", Lower, 0.25),
];

pub const PER_LAYER: [MetricDef; 90] = [
    // wqe-serve
    layer("serve.parse_us_p50", "us", Lower),
    layer("serve.encode_us_p50", "us", Lower),
    layer("serve.bytes_in_per_req", "B", Lower),
    layer("serve.bytes_out_per_req", "B", Lower),
    layer("serve.healthz_ms_p50", "ms", Lower),
    layer("serve.wire_overhead_ms_p50", "ms", Lower),
    layer("serve.sse_first_event_ms_p50", "ms", Lower),
    layer("serve.non_200", "count", Lower),
    // wqe-core::service
    layer("service.queue_ms_p50", "ms", Lower),
    layer("service.queue_ms_p90", "ms", Lower),
    layer("service.service_ms_p50", "ms", Lower),
    layer("service.call_hit_us_p50", "us", Lower),
    layer("service.answer_cache_hit_ratio", "ratio", Higher),
    layer("service.answer_cache_evictions", "count", Lower),
    layer("service.cache_carried_ratio", "ratio", Higher),
    layer("service.rejected", "count", Lower),
    layer("service.shed", "count", Lower),
    layer("service.failed", "count", Lower),
    layer("service.retries", "count", Lower),
    layer("service.degraded_serves", "count", Lower),
    // wqe-core search
    layer("search.run_ms_p50", "ms", Lower),
    layer("search.run_ms_p90", "ms", Lower),
    layer("search.engine_new_us_p50", "us", Lower),
    layer("search.expansions", "count", Lower),
    layer("search.frontier_peak_max", "count", Lower),
    layer("search.partial_share", "ratio", Lower),
    layer("search.chase_ms", "ms", Lower),
    layer("search.merge_ms", "ms", Lower),
    // wqe-query::matcher
    layer("matcher.evaluate_us_p50", "us", Lower),
    layer("matcher.evaluate_us_p50.warm", "us", Lower),
    layer("matcher.match_ms", "ms", Lower),
    layer("matcher.star_materialize_ms", "ms", Lower),
    layer("matcher.join_ms", "ms", Lower),
    layer("matcher.match_steps", "count", Lower),
    layer("matcher.star_cache_hit_ratio", "ratio", Higher),
    layer("matcher.star_cache_evictions", "count", Lower),
    // wqe-index oracle
    layer("oracle.dist_calls", "count", Lower),
    layer("oracle.dist_batch_calls", "count", Lower),
    layer("oracle.pairs", "count", Lower),
    layer("oracle.pairs_per_batch", "count", Higher),
    layer("oracle.within_ratio", "ratio", Higher),
    layer("oracle.busy_ms", "ms", Lower),
    layer("oracle.replay_ns_per_pair", "ns", Lower),
    layer("oracle.label_entries_scanned", "count", Lower),
    layer("oracle.entries_per_pair", "count", Lower),
    layer("oracle.bfs_steps", "count", Lower),
    layer("oracle.bfs_span_ms", "ms", Lower),
    layer("oracle.bfs_cached_sources", "count", Lower),
    // wqe-index::kernel
    layer("kernel.merge_join_ns_per_call", "ns", Lower),
    layer("kernel.entries_per_call", "count", Lower),
    layer("kernel.batch_probe_ns_per_pair", "ns", Lower),
    layer("kernel.active", "count", Higher),
    // wqe-index::pll
    layer("pll.build_s", "s", Lower),
    layer("pll.label_entries", "count", Lower),
    layer("pll.label_bytes", "B", Lower),
    layer("pll.avg_label_len", "count", Lower),
    layer("pll.repair_ms_p50", "ms", Lower),
    // wqe-store
    layer("store.write_ms", "ms", Lower),
    layer("store.bytes", "B", Lower),
    layer("store.bytes_per_node", "B", Lower),
    layer("store.open_ms_p50", "ms", Lower),
    layer("store.load_graph_ms", "ms", Lower),
    layer("store.ctx_from_snapshot_ms_p50", "ms", Lower),
    layer("store.open_mb_per_s", "MB/s", Higher),
    layer("store.is_mmap", "count", Higher),
    layer("store.ttfa_pll_ms", "ms", Lower),
    layer("store.ttfa_bfs_ms", "ms", Lower),
    // wqe-core::live
    layer("live.publish_mean_ms", "ms", Lower),
    layer("live.publish_ms_p50.repaired-pll", "ms", Lower),
    layer("live.publish_ms_p50.overlay", "ms", Lower),
    layer("live.publish_ms_p50.rebuilt-pll", "ms", Lower),
    layer("live.publishes.repaired-pll", "count", Higher),
    layer("live.publishes.overlay", "count", Lower),
    layer("live.publishes.rebuilt-pll", "count", Lower),
    layer("live.star_evicted_per_publish", "count", Lower),
    layer("live.pin_ns", "ns", Lower),
    layer("live.apply_updates_ms", "ms", Lower),
    layer("live.read_ms_p50.after_publish", "ms", Lower),
    layer("live.read_ms_p50.overlay", "ms", Lower),
    layer("live.read_ms_p50.pll", "ms", Lower),
    // wqe-pool
    layer("pool.runs", "count", Lower),
    layer("pool.tasks", "count", Lower),
    layer("pool.tasks_per_run", "count", Higher),
    layer("pool.map_overhead_us", "us", Lower),
    // driver
    layer("client.latency_p99_ms", "ms", Lower),
    layer("client.latency_max_ms", "ms", Lower),
    layer("trace_overhead_pct", "%", Lower),
    // outside timing against the program's own
    layer("trace.request_coverage_p50", "ratio", Higher),
    layer("trace.call_vs_program_ratio", "ratio", Lower),
    layer("trace.run_vs_profile_ratio", "ratio", Lower),
];

pub fn defs(trace: bool) -> &'static [MetricDef] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// The metric values of one run, by name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    /// Checks the values against the contract for this kind of run: every
    /// declared metric present and finite, nothing undeclared.
    pub fn check(&self, trace: bool) -> Result<(), String> {
        let defs = defs(trace);
        for d in defs {
            match self.0.get(d.name) {
                None => return Err(format!("metric {} was not measured", d.name)),
                Some(v) if !v.is_finite() => {
                    return Err(format!("metric {} is not finite: {v}", d.name))
                }
                Some(_) => {}
            }
        }
        match self.0.keys().find(|k| !defs.iter().any(|d| d.name == **k)) {
            Some(extra) => Err(format!("metric {extra} is not declared in the contract")),
            None => Ok(()),
        }
    }
}

/// The JSON text of `BENCHMARK.json` for this table.
pub fn benchmark_json(run_seconds: u64) -> String {
    let list = |defs: &[MetricDef]| {
        defs.iter()
            .map(|d| {
                let bound = d
                    .bound
                    .map_or(String::new(), |b| format!(", \"bound\": {b}"));
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
                    d.name,
                    d.unit,
                    d.better.as_str()
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let workloads = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {run_seconds},\n  \"workloads\": [\n{workloads}\n  ],\n  \
         \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        list(&END_TO_END),
        list(&PER_LAYER)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn table_meets_the_contract_limits() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(d.name), "bad metric name {}", d.name);
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.unit.len() <= 16, "unit of {} too long", d.name);
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for d in &END_TO_END {
            let b = d.bound.expect("end-to-end metrics are bounded");
            assert!(b > 0.0 && b <= 0.25);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|d| d.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s takes the largest bound");
        for (name, why) in WORKLOADS {
            assert!(name_ok(name) && seen.insert(name));
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: {}",
                why.len()
            );
        }
    }

    #[test]
    fn checked_in_benchmark_json_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        // Not assert_eq: a mismatch would print both 8 KiB documents.
        assert!(
            on_disk == benchmark_json(crate::config::RUN_SECONDS),
            "BENCHMARK.json is stale: regenerate with `benchmark/run.sh describe > BENCHMARK.json`"
        );
        assert!(on_disk.len() <= 64 * 1024);
    }

    #[test]
    fn check_rejects_missing_and_undeclared_metrics() {
        let mut m = Metrics::default();
        for d in &END_TO_END {
            m.set(d.name, 1.0);
        }
        assert!(m.check(false).is_ok());
        assert!(m.check(true).is_err());
        m.set("pool.runs", 3.0);
        assert!(m.check(false).unwrap_err().contains("pool.runs"));
        let mut m = Metrics::default();
        m.set("ops_per_s", f64::NAN);
        assert!(m.check(false).is_err());
    }
}
