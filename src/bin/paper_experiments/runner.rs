//! Workload construction and algorithm execution.
//!
//! Workloads share their graph through an `Arc`, so one dataset (and one
//! distance index) serves every algorithm run over it.

use std::sync::Arc;
use std::time::Instant;
use wqe_core::{
    relative_closeness, Algorithm, EngineCtx, QueryProfile, Session, TracePoint, WqeConfig,
};
use wqe_datagen::{
    generate_query, generate_why, generate_why_empty, generate_why_many, GeneratedWhy,
    QueryGenConfig, WhyGenConfig,
};
use wqe_graph::Graph;
use wqe_index::{DistanceOracle, Oracle};

/// `AnsHeuB`, the random-selection ablation of Exp-3, with its fixed seed.
pub const ANS_HEU_B: Algorithm = Algorithm::AnsHeuB(0xC0FFEE);

/// The §7 series name of `algorithm` run under `config`; the beam
/// heuristics carry their width.
pub fn series_name(algorithm: Algorithm, config: &WqeConfig) -> String {
    match algorithm {
        Algorithm::AnsHeu => format!("AnsHeu(k={})", config.beam_width),
        Algorithm::AnsHeuB(_) => format!("AnsHeuB(k={})", config.beam_width),
        Algorithm::WhyMany => "ApxWhyM".into(),
        Algorithm::WhyEmpty => "AnsWE".into(),
        other => format!("{other:?}"),
    }
}

/// Which why-question generator a workload uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuestionKind {
    /// Standard why-questions (missing answers).
    Why,
    /// Why-Many (surplus answers).
    WhyMany,
    /// Why-Empty (no relevant answers).
    WhyEmpty,
}

/// A dataset plus a suite of generated why-questions.
pub struct Workload {
    /// The graph (shared; clones of the handle are cheap).
    pub graph: Arc<Graph>,
    /// The question suite with hidden ground truths.
    pub questions: Vec<GeneratedWhy>,
}

impl Workload {
    /// Builds a workload: generates ground-truth queries from seeds and
    /// disturbs each into a why-question, until `n` questions exist (or
    /// seeds are exhausted).
    pub fn build(
        graph: Graph,
        n: usize,
        qcfg: &QueryGenConfig,
        wcfg: &WhyGenConfig,
        kind: QuestionKind,
    ) -> Self {
        let graph = Arc::new(graph);
        let oracle: Arc<dyn DistanceOracle> = Arc::new(Oracle::build(&graph));
        let mut questions = Vec::new();
        let mut seed = qcfg.seed;
        let mut attempts = 0usize;
        while questions.len() < n && attempts < n * 30 {
            attempts += 1;
            seed += 1;
            let q = QueryGenConfig {
                seed,
                ..qcfg.clone()
            };
            let Some(truth) = generate_query(&graph, &q) else {
                continue;
            };
            let w = WhyGenConfig {
                seed: seed * 31 + wcfg.seed,
                ..wcfg.clone()
            };
            let generated = match kind {
                QuestionKind::Why => generate_why(&graph, &oracle, &truth, &w),
                QuestionKind::WhyMany => generate_why_many(&graph, &oracle, &truth, &w),
                QuestionKind::WhyEmpty => generate_why_empty(&graph, &oracle, &truth, &w),
            };
            if let Some(g) = generated {
                questions.push(g);
            }
        }
        Workload { graph, questions }
    }

    /// A shared engine context over this workload's graph, with a fresh
    /// distance oracle.
    pub fn ctx(&self) -> EngineCtx {
        EngineCtx::with_default_oracle(Arc::clone(&self.graph))
    }
}

/// Aggregated measurements of one algorithm over a workload.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// The series name ([`series_name`]).
    pub name: String,
    /// Mean wall-clock per question, milliseconds.
    pub mean_ms: f64,
    /// Mean absolute closeness of the best rewrite.
    pub mean_closeness: f64,
    /// Mean relative closeness `δ(Q', Q*)` against the hidden truth.
    pub mean_delta: f64,
    /// Questions executed.
    pub runs: usize,
    /// Anytime traces (per question) for Exp-3.
    pub traces: Vec<Vec<TracePoint>>,
    /// Mean Q-Chase steps simulated.
    pub mean_expansions: f64,
    /// Mean number of irrelevant matches remaining in the best rewrite's
    /// answers (the quantity Why-Many minimizes, Fig. 12(b)).
    pub mean_im_after: f64,
    /// Per-question observability profiles, in question order: stage spans
    /// and the full counter registry (exported as `PROFILE_*.json` under
    /// `--profiles-dir`).
    pub profiles: Vec<QueryProfile>,
}

/// Runs one algorithm over every question of a workload on a shared engine
/// context, so several algorithms reuse one distance index. `base` is
/// passed through [`Algorithm::apply_to`]; its `beam_width` sizes the beam
/// heuristics.
pub fn run_algo_with(
    workload: &Workload,
    ctx: &EngineCtx,
    algorithm: Algorithm,
    base: &WqeConfig,
) -> RunStats {
    let config = algorithm.apply_to(base.clone());
    let mut stats = RunStats {
        name: series_name(algorithm, &config),
        ..RunStats::default()
    };
    for gw in &workload.questions {
        let session = Session::new(ctx.clone(), &gw.question, config.clone());
        let t0 = Instant::now();
        let report = session
            .run(algorithm, &gw.question)
            .unwrap_or_else(|e| panic!("{e}"));
        let elapsed = t0.elapsed().as_secs_f64() * 1e3;
        stats.runs += 1;
        stats.mean_ms += elapsed;
        stats.mean_expansions += report.expansions as f64;
        if let Some(best) = &report.best {
            stats.mean_closeness += best.closeness;
            stats.mean_delta += relative_closeness(&best.matches, &gw.truth_answers);
            stats.mean_im_after += best
                .matches
                .iter()
                .filter(|&&v| !session.rep.contains(v))
                .count() as f64;
        }
        stats.traces.push(report.trace.clone());
        stats
            .profiles
            .push(report.profile.clone().unwrap_or_default());
    }
    if stats.runs > 0 {
        let n = stats.runs as f64;
        stats.mean_ms /= n;
        stats.mean_closeness /= n;
        stats.mean_delta /= n;
        stats.mean_expansions /= n;
        stats.mean_im_after /= n;
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use wqe_datagen::SynthConfig;

    fn tiny_workload(kind: QuestionKind) -> Workload {
        let g = wqe_datagen::generate(&SynthConfig {
            nodes: 400,
            avg_out_degree: 4.0,
            labels: 8,
            ..Default::default()
        });
        Workload::build(
            g,
            3,
            &QueryGenConfig {
                edges: 2,
                ..Default::default()
            },
            &WhyGenConfig::default(),
            kind,
        )
    }

    #[test]
    fn workload_builds_questions() {
        let w = tiny_workload(QuestionKind::Why);
        assert!(!w.questions.is_empty());
    }

    #[test]
    fn run_all_specs() {
        let w = tiny_workload(QuestionKind::Why);
        let base = WqeConfig {
            budget: 3.0,
            time_limit_ms: Some(500),
            max_expansions: 100,
            ..Default::default()
        };
        let base = WqeConfig {
            beam_width: 2,
            ..base
        };
        for algorithm in [
            Algorithm::AnsW,
            Algorithm::AnsWnc,
            Algorithm::AnsWb,
            Algorithm::AnsHeu,
            ANS_HEU_B,
            Algorithm::FMAnsW,
        ] {
            let stats = run_algo_with(&w, &w.ctx(), algorithm, &base);
            assert_eq!(stats.runs, w.questions.len(), "{}", stats.name);
            assert!(stats.mean_ms >= 0.0);
            assert!(stats.mean_delta >= 0.0 && stats.mean_delta <= 1.0);
            assert_eq!(
                stats.profiles.len(),
                stats.runs,
                "{}: one profile per question",
                stats.name
            );
        }
    }

    #[test]
    fn why_many_and_empty_workloads() {
        let base = WqeConfig {
            budget: 3.0,
            time_limit_ms: Some(500),
            max_expansions: 60,
            ..Default::default()
        };
        let wm = tiny_workload(QuestionKind::WhyMany);
        if !wm.questions.is_empty() {
            let s = run_algo_with(&wm, &wm.ctx(), Algorithm::WhyMany, &base);
            assert_eq!(s.runs, wm.questions.len());
        }
        let we = tiny_workload(QuestionKind::WhyEmpty);
        if !we.questions.is_empty() {
            let s = run_algo_with(&we, &we.ctx(), Algorithm::WhyEmpty, &base);
            assert_eq!(s.runs, we.questions.len());
        }
    }
}
