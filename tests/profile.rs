//! The per-query observability layer end to end: reports carry a
//! `QueryProfile` with a stable JSON field set, a real `AnsW` run populates
//! the stage spans and the counter registry, and the report's governor
//! fields are a view over the profile.

use std::sync::Arc;
use wqe::core::obs::Stage;
use wqe::core::{Algorithm, EngineCtx, Session, WhyQuestion, WqeConfig, WqeEngine};
use wqe::index::{DistanceOracle, PllIndex};

fn paper_setup() -> (EngineCtx, WhyQuestion) {
    let graph = Arc::new(wqe::graph::product::product_graph().graph);
    let oracle: Arc<dyn DistanceOracle> = Arc::new(PllIndex::build(&graph));
    let wq = wqe::core::paper::paper_question(&graph);
    (EngineCtx::new(graph, oracle), wq)
}

fn cfg() -> WqeConfig {
    WqeConfig {
        budget: 4.0,
        ..Default::default()
    }
}

#[test]
fn answ_populates_stage_spans_and_counters() {
    let (ctx, wq) = paper_setup();
    let session = Session::new(ctx, &wq, cfg());
    let report = session.run(Algorithm::AnsW, &wq).unwrap();
    let profile = report
        .profile
        .as_ref()
        .expect("sessions record a profile by default");

    assert_eq!(profile.termination, "complete");
    assert!(!profile.partial);
    assert!(profile.elapsed_ms >= 0.0);
    assert_eq!(profile.expansions, report.expansions as u64);

    // The pipeline stages the paper scenario must exercise. (The Oracle
    // span only times cold BFS traversals; a PLL oracle answers from its
    // labels, so it is allowed to stay empty here.)
    for stage in [Stage::Match, Stage::Join, Stage::Chase, Stage::Merge] {
        let s = profile.stage(stage);
        assert!(s.count > 0, "{stage} spans recorded");
        assert!(s.total_us > 0.0, "{stage} time accumulated");
        assert!(
            s.max_us <= s.total_us + 1e-9,
            "{stage} max bounded by total"
        );
        assert_eq!(
            s.hist_log2_ns.iter().sum::<u64>(),
            s.count,
            "{stage} histogram mass equals span count"
        );
    }

    let c = &profile.counters;
    // The matcher's join asks in batches; pointwise calls come only from
    // operator generation's RfE check, which a query may never reach.
    assert!(
        c.oracle_dist_calls + c.oracle_dist_batch_calls > 0,
        "matching needs distances"
    );
    assert!(
        c.oracle_label_entries_scanned > 0,
        "a PLL oracle scans labels"
    );
    assert!(c.match_steps > 0);
    assert_eq!(c.match_steps, report.match_steps);
    assert_eq!(c.frontier_peak, report.frontier_peak as u64);
    assert!(c.frontier_peak > 0);
}

/// The JSON export contract consumed by readers of `paper_experiments
/// --profiles-dir` output and `wqe-cli --profile`: every field name and every stage name is
/// present in every profile, regardless of what a particular run recorded.
#[test]
fn profile_json_field_set_is_stable() {
    let (ctx, wq) = paper_setup();
    let session = Session::new(ctx, &wq, cfg());
    let report = session.run(Algorithm::AnsW, &wq).unwrap();
    let json = serde_json::to_string(report.profile.as_ref().unwrap()).unwrap();
    for key in [
        "\"termination\"",
        "\"partial\"",
        "\"elapsed_ms\"",
        "\"expansions\"",
        "\"stages\"",
        "\"counters\"",
        "\"stage\"",
        "\"count\"",
        "\"total_us\"",
        "\"max_us\"",
        "\"hist_log2_ns\"",
        "\"cache_hits\"",
        "\"cache_misses\"",
        "\"cache_evictions\"",
        "\"oracle_dist_calls\"",
        "\"oracle_dist_batch_calls\"",
        "\"oracle_label_entries_scanned\"",
        "\"pool_runs\"",
        "\"pool_tasks\"",
        "\"match_steps\"",
        "\"oracle_steps\"",
        "\"frontier_peak\"",
        "\"answer_cache_hits\"",
        "\"answer_cache_misses\"",
        "\"answer_cache_evictions\"",
        "\"faults_injected\"",
        "\"retries\"",
        "\"degraded_serves\"",
        "\"scratch_fallbacks\"",
        "\"stream_updates\"",
        "\"shed_requests\"",
        "\"rate_limited\"",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
    for stage in Stage::ALL {
        let name = format!("\"{}\"", stage.as_str());
        assert!(json.contains(&name), "missing stage {name}");
    }
}

#[test]
fn every_algorithm_attaches_a_profile() {
    let (ctx, wq) = paper_setup();
    let engine = WqeEngine::try_new(ctx, wq, cfg()).unwrap();
    for alg in [
        Algorithm::AnsW,
        Algorithm::AnsHeu,
        Algorithm::WhyMany,
        Algorithm::WhyEmpty,
        Algorithm::FMAnsW,
    ] {
        assert!(
            engine.try_run(alg).unwrap().profile.is_some(),
            "{alg} lost its profile"
        );
    }
}

#[test]
fn report_governor_fields_are_a_view_over_the_profile() {
    let (ctx, wq) = paper_setup();
    let session = Session::new(ctx, &wq, cfg());
    let report = session.run(Algorithm::AnsW, &wq).unwrap();
    let p = report.profile.as_ref().unwrap();
    assert_eq!(report.termination.as_str(), p.termination);
    assert_eq!(report.termination.is_partial(), p.partial);
    assert_eq!(report.elapsed_ms, p.elapsed_ms);
    assert_eq!(report.match_steps, p.counters.match_steps);
    assert_eq!(report.frontier_peak as u64, p.counters.frontier_peak);
}
