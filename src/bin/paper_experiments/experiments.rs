//! One function per paper figure (§7, Fig. 10 and Fig. 12, plus the Exp-5
//! user study in simulated form). See DESIGN.md §5 for the index.

use crate::report::Reporter;
use crate::runner::{run_algo_with, AlgoSpec, QuestionKind, Workload};
use wqe_core::{relative_closeness, Session, WqeConfig};
use wqe_datagen::{
    dbpedia_like, imdb_like, offshore_like, watdiv_like, QueryGenConfig, TopologyKind, WhyGenConfig,
};

/// Global experiment knobs (the paper uses 50 queries x 5 repetitions at
/// full dataset scale; defaults here are laptop-sized).
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// Dataset scale factor (1.0 = the presets' base size).
    pub scale: f64,
    /// Why-questions per data point.
    pub queries: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Rewrite budget `B` (paper default 3).
    pub budget: f64,
    /// Per-run wall-clock cap, ms.
    pub time_limit_ms: u64,
    /// Per-run Q-Chase step cap.
    pub max_expansions: usize,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            scale: 0.04,
            queries: 5,
            seed: 7,
            budget: 3.0,
            time_limit_ms: 1500,
            max_expansions: 250,
        }
    }
}

impl ExpConfig {
    /// The per-run algorithm configuration.
    pub fn wqe(&self) -> WqeConfig {
        WqeConfig {
            budget: self.budget,
            time_limit_ms: Some(self.time_limit_ms),
            max_expansions: self.max_expansions,
            ..Default::default()
        }
    }

    fn qcfg(&self, edges: usize, topology: TopologyKind) -> QueryGenConfig {
        QueryGenConfig {
            edges,
            predicates_per_node: 2,
            topology,
            max_bound: 4,
            loose_bound_prob: 0.25,
            seed: self.seed,
        }
    }

    fn wcfg(&self, tuples: usize) -> WhyGenConfig {
        WhyGenConfig {
            disturb_ops: 5,
            max_tuples: tuples,
            exemplar_attrs: 3,
            class: None,
            seed: self.seed,
        }
    }
}

const MAIN_ALGOS: [AlgoSpec; 5] = [
    AlgoSpec::AnsHeu(3),
    AlgoSpec::AnsW,
    AlgoSpec::AnsWnc,
    AlgoSpec::AnsWb,
    AlgoSpec::FMAnsW,
];

fn datasets(cfg: &ExpConfig) -> Vec<(&'static str, wqe_graph::Graph)> {
    vec![
        ("DBpedia", dbpedia_like(cfg.scale, cfg.seed)),
        ("IMDB", imdb_like(cfg.scale, cfg.seed + 1)),
        ("Offshore", offshore_like(cfg.scale, cfg.seed + 2)),
        ("WatDiv", watdiv_like(cfg.scale, cfg.seed + 3)),
    ]
}

/// Fig. 10(a): efficiency over the four datasets.
pub fn exp1_efficiency(cfg: &ExpConfig) -> Reporter {
    let mut rep = Reporter::new();
    for (name, graph) in datasets(cfg) {
        let w = Workload::build(
            graph,
            cfg.queries,
            &cfg.qcfg(3, TopologyKind::Star),
            &cfg.wcfg(5),
            QuestionKind::Why,
        );
        let ctx = w.ctx(4);
        for spec in MAIN_ALGOS {
            let stats = run_algo_with(&w, &ctx, spec, &cfg.wqe());
            rep.record("fig10a-efficiency", &spec.name(), name, stats.mean_ms, "ms");
            rep.record_profiles("fig10a-efficiency", &spec.name(), name, &stats.profiles);
        }
    }
    rep
}

/// Fig. 10(b): scalability — DBpedia-like at growing edge counts.
pub fn exp1_scalability(cfg: &ExpConfig) -> Reporter {
    let mut rep = Reporter::new();
    for frac in [0.47, 0.6, 0.73, 0.87, 1.0] {
        let graph = dbpedia_like(cfg.scale * frac, cfg.seed);
        let label = format!("{}-edges", graph.edge_count());
        let w = Workload::build(
            graph,
            cfg.queries,
            &cfg.qcfg(3, TopologyKind::Star),
            &cfg.wcfg(5),
            QuestionKind::Why,
        );
        let ctx = w.ctx(4);
        for spec in [AlgoSpec::AnsW, AlgoSpec::AnsHeu(3), AlgoSpec::AnsWb] {
            let stats = run_algo_with(&w, &ctx, spec, &cfg.wqe());
            rep.record(
                "fig10b-scalability",
                &spec.name(),
                &label,
                stats.mean_ms,
                "ms",
            );
            rep.record_profiles("fig10b-scalability", &spec.name(), &label, &stats.profiles);
        }
    }
    rep
}

/// Fig. 10(c): varying query size `|E_Q|` in 1..=6 (DBpedia-like).
pub fn exp1_querysize(cfg: &ExpConfig) -> Reporter {
    let mut rep = Reporter::new();
    let graph = dbpedia_like(cfg.scale, cfg.seed);
    for edges in 1..=6usize {
        let w = Workload::build(
            graph.clone(),
            cfg.queries,
            &cfg.qcfg(edges, TopologyKind::Tree),
            &cfg.wcfg(5),
            QuestionKind::Why,
        );
        let ctx = w.ctx(4);
        for spec in MAIN_ALGOS {
            let stats = run_algo_with(&w, &ctx, spec, &cfg.wqe());
            rep.record("fig10c-querysize", &spec.name(), edges, stats.mean_ms, "ms");
            rep.record_profiles("fig10c-querysize", &spec.name(), edges, &stats.profiles);
        }
    }
    rep
}

/// Fig. 10(d,e): varying budget `B` in 1..=5 on DBpedia- and IMDB-like.
pub fn exp1_budget(cfg: &ExpConfig) -> Reporter {
    let mut rep = Reporter::new();
    for (graph, fig) in [
        (dbpedia_like(cfg.scale, cfg.seed), "fig10d-budget-dbpedia"),
        (imdb_like(cfg.scale, cfg.seed + 1), "fig10e-budget-imdb"),
    ] {
        let w = Workload::build(
            graph,
            cfg.queries,
            &cfg.qcfg(3, TopologyKind::Star),
            &cfg.wcfg(5),
            QuestionKind::Why,
        );
        let ctx = w.ctx(4);
        for b in 1..=5u32 {
            let mut base = cfg.wqe();
            base.budget = b as f64;
            for spec in MAIN_ALGOS {
                let stats = run_algo_with(&w, &ctx, spec, &base);
                rep.record(fig, &spec.name(), b, stats.mean_ms, "ms");
                rep.record_profiles(fig, &spec.name(), b, &stats.profiles);
            }
        }
    }
    rep
}

/// Fig. 10(f,g): varying exemplar size `|T|` in 5..=25.
pub fn exp1_exemplars(cfg: &ExpConfig) -> Reporter {
    let mut rep = Reporter::new();
    for (graph, fig) in [
        (
            dbpedia_like(cfg.scale, cfg.seed),
            "fig10f-exemplars-dbpedia",
        ),
        (imdb_like(cfg.scale, cfg.seed + 1), "fig10g-exemplars-imdb"),
    ] {
        for tuples in [5usize, 10, 15, 20, 25] {
            let mut wcfg = cfg.wcfg(tuples);
            // Larger exemplars need truth queries with larger answers;
            // loosen the disturbance so more answers go missing.
            wcfg.disturb_ops = 4;
            let w = Workload::build(
                graph.clone(),
                cfg.queries,
                &cfg.qcfg(2, TopologyKind::Star),
                &wcfg,
                QuestionKind::Why,
            );
            let ctx = w.ctx(4);
            for spec in [AlgoSpec::AnsW, AlgoSpec::AnsHeu(3), AlgoSpec::AnsWb] {
                let stats = run_algo_with(&w, &ctx, spec, &cfg.wqe());
                rep.record(fig, &spec.name(), tuples, stats.mean_ms, "ms");
                rep.record_profiles(fig, &spec.name(), tuples, &stats.profiles);
            }
        }
    }
    rep
}

/// Fig. 10(h): varying topology (star / tree / cyclic).
pub fn exp1_topology(cfg: &ExpConfig) -> Reporter {
    let mut rep = Reporter::new();
    let graph = dbpedia_like(cfg.scale, cfg.seed);
    for (label, kind) in [
        ("star", TopologyKind::Star),
        ("tree", TopologyKind::Tree),
        ("cyclic", TopologyKind::Cyclic),
    ] {
        let w = Workload::build(
            graph.clone(),
            cfg.queries,
            &cfg.qcfg(3, kind),
            &cfg.wcfg(5),
            QuestionKind::Why,
        );
        let ctx = w.ctx(4);
        for spec in [AlgoSpec::AnsW, AlgoSpec::AnsHeu(3), AlgoSpec::AnsWb] {
            let stats = run_algo_with(&w, &ctx, spec, &cfg.wqe());
            rep.record("fig10h-topology", &spec.name(), label, stats.mean_ms, "ms");
            rep.record_profiles("fig10h-topology", &spec.name(), label, &stats.profiles);
        }
    }
    rep
}

/// Fig. 10(i): effectiveness — relative closeness `δ` over the datasets,
/// including the beam-size sweep for `AnsHeu`.
pub fn exp2_effectiveness(cfg: &ExpConfig) -> Reporter {
    let mut rep = Reporter::new();
    let algos = [
        AlgoSpec::AnsW,
        AlgoSpec::AnsHeu(1),
        AlgoSpec::AnsHeu(3),
        AlgoSpec::AnsHeu(5),
        AlgoSpec::AnsHeuB(3),
        AlgoSpec::FMAnsW,
    ];
    for (name, graph) in datasets(cfg) {
        let w = Workload::build(
            graph,
            cfg.queries,
            &cfg.qcfg(3, TopologyKind::Star),
            &cfg.wcfg(5),
            QuestionKind::Why,
        );
        let ctx = w.ctx(4);
        for spec in algos {
            let stats = run_algo_with(&w, &ctx, spec, &cfg.wqe());
            rep.record(
                "fig10i-effectiveness",
                &spec.name(),
                name,
                stats.mean_delta,
                "delta",
            );
            rep.record_profiles("fig10i-effectiveness", &spec.name(), name, &stats.profiles);
        }
    }
    rep
}

/// Fig. 10(j): relative closeness vs query size.
pub fn exp2_querysize(cfg: &ExpConfig) -> Reporter {
    let mut rep = Reporter::new();
    let graph = dbpedia_like(cfg.scale, cfg.seed);
    for edges in 1..=6usize {
        let w = Workload::build(
            graph.clone(),
            cfg.queries,
            &cfg.qcfg(edges, TopologyKind::Tree),
            &cfg.wcfg(5),
            QuestionKind::Why,
        );
        let ctx = w.ctx(4);
        for spec in [
            AlgoSpec::AnsW,
            AlgoSpec::AnsHeu(1),
            AlgoSpec::AnsHeu(5),
            AlgoSpec::FMAnsW,
        ] {
            let stats = run_algo_with(&w, &ctx, spec, &cfg.wqe());
            rep.record(
                "fig10j-delta-querysize",
                &spec.name(),
                edges,
                stats.mean_delta,
                "delta",
            );
            rep.record_profiles(
                "fig10j-delta-querysize",
                &spec.name(),
                edges,
                &stats.profiles,
            );
        }
    }
    rep
}

/// Fig. 10(k): relative closeness vs budget.
pub fn exp2_budget(cfg: &ExpConfig) -> Reporter {
    let mut rep = Reporter::new();
    let graph = dbpedia_like(cfg.scale, cfg.seed);
    let w = Workload::build(
        graph,
        cfg.queries,
        &cfg.qcfg(3, TopologyKind::Star),
        &cfg.wcfg(5),
        QuestionKind::Why,
    );
    let ctx = w.ctx(4);
    for b in 1..=5u32 {
        let mut base = cfg.wqe();
        base.budget = b as f64;
        for spec in [AlgoSpec::AnsW, AlgoSpec::AnsHeu(3), AlgoSpec::FMAnsW] {
            let stats = run_algo_with(&w, &ctx, spec, &base);
            rep.record(
                "fig10k-delta-budget",
                &spec.name(),
                b,
                stats.mean_delta,
                "delta",
            );
            rep.record_profiles("fig10k-delta-budget", &spec.name(), b, &stats.profiles);
        }
    }
    rep
}

/// Fig. 10(l): anytime performance — normalized best closeness over time
/// (`cl_t / cl*`, the shape proxy for `δ_t`; see EXPERIMENTS.md).
pub fn exp3_anytime(cfg: &ExpConfig) -> Reporter {
    let mut rep = Reporter::new();
    let graph = dbpedia_like(cfg.scale, cfg.seed);
    // Anytime curves need questions whose optimum takes real search: larger
    // queries, deeper disturbance, and a budget admitting long sequences.
    let mut wcfg = cfg.wcfg(8);
    wcfg.disturb_ops = 5;
    let w = Workload::build(
        graph,
        cfg.queries,
        &cfg.qcfg(4, TopologyKind::Tree),
        &wcfg,
        QuestionKind::Why,
    );
    // Compute cl* per question once.
    let ctx = w.ctx(4);
    let cl_stars: Vec<f64> = w
        .questions
        .iter()
        .map(|gw| Session::new(ctx.clone(), &gw.question, cfg.wqe()).cl_star)
        .collect();

    let checkpoints_ms = [1u64, 2, 5, 10, 25, 50, 100, 250, 1000, 4000];
    let mut base = cfg.wqe();
    base.budget = 5.0;
    base.time_limit_ms = Some(4000);
    base.max_expansions = usize::MAX >> 1;
    for spec in [AlgoSpec::AnsW, AlgoSpec::AnsHeu(3), AlgoSpec::AnsHeuB(3)] {
        let stats = run_algo_with(&w, &ctx, spec, &base);
        rep.record_profiles("fig10l-anytime", &spec.name(), "all", &stats.profiles);
        for &cp in &checkpoints_ms {
            let mut total = 0.0;
            let mut n = 0usize;
            for (trace, &cl_star) in stats.traces.iter().zip(&cl_stars) {
                if cl_star <= 0.0 {
                    continue;
                }
                let best_by_cp = trace
                    .iter()
                    .filter(|p| p.elapsed_us <= cp * 1000)
                    .map(|p| p.closeness)
                    .fold(f64::NEG_INFINITY, f64::max);
                total += (best_by_cp / cl_star).clamp(0.0, 1.0);
                n += 1;
            }
            if n > 0 {
                rep.record(
                    "fig10l-anytime",
                    &spec.name(),
                    format!("{cp}ms"),
                    total / n as f64,
                    "cl_t/cl*",
                );
            }
        }
    }
    rep
}

/// Fig. 12(a,b): Why-Many — efficiency and effectiveness.
pub fn exp4_whymany(cfg: &ExpConfig) -> Reporter {
    let mut rep = Reporter::new();
    for (name, graph) in [
        ("DBpedia", dbpedia_like(cfg.scale, cfg.seed)),
        ("IMDB", imdb_like(cfg.scale, cfg.seed + 1)),
    ] {
        let w = Workload::build(
            graph,
            cfg.queries,
            &cfg.qcfg(2, TopologyKind::Star),
            &cfg.wcfg(5),
            QuestionKind::WhyMany,
        );
        let ctx = w.ctx(4);
        for spec in [
            AlgoSpec::ApxWhyM,
            AlgoSpec::AnsW,
            AlgoSpec::AnsWb,
            AlgoSpec::FMAnsW,
        ] {
            let stats = run_algo_with(&w, &ctx, spec, &cfg.wqe());
            rep.record(
                "fig12a-whymany-time",
                &spec.name(),
                name,
                stats.mean_ms,
                "ms",
            );
            rep.record_profiles("fig12a-whymany-time", &spec.name(), name, &stats.profiles);
            rep.record(
                "fig12b-whymany-closeness",
                &spec.name(),
                name,
                stats.mean_closeness,
                "closeness",
            );
            rep.record(
                "fig12b-whymany-im-left",
                &spec.name(),
                name,
                stats.mean_im_after,
                "im",
            );
        }
    }
    rep
}

/// Fig. 12(c): Why-Empty — efficiency of `AnsWE` vs the general algorithms.
pub fn exp4_whyempty(cfg: &ExpConfig) -> Reporter {
    let mut rep = Reporter::new();
    for (name, graph) in [
        ("DBpedia", dbpedia_like(cfg.scale, cfg.seed)),
        ("IMDB", imdb_like(cfg.scale, cfg.seed + 1)),
        ("Offshore", offshore_like(cfg.scale, cfg.seed + 2)),
    ] {
        let w = Workload::build(
            graph,
            cfg.queries,
            &cfg.qcfg(2, TopologyKind::Star),
            &cfg.wcfg(5),
            QuestionKind::WhyEmpty,
        );
        let ctx = w.ctx(4);
        for spec in [AlgoSpec::AnsWE, AlgoSpec::AnsW, AlgoSpec::AnsWb] {
            let stats = run_algo_with(&w, &ctx, spec, &cfg.wqe());
            rep.record(
                "fig12c-whyempty-time",
                &spec.name(),
                name,
                stats.mean_ms,
                "ms",
            );
            rep.record_profiles("fig12c-whyempty-time", &spec.name(), name, &stats.profiles);
        }
    }
    rep
}

/// Exp-5 (simulated user study): top-3 rewrites from `AnsW` are ranked by a
/// simulated judge whose relevance signal is the hidden ground truth. Two
/// judges are reported: a *consistent* oracle (gains = exact δ to the
/// truth) and a *noisy* judge that perturbs each gain by ±30% — a stand-in
/// for the disagreement of the paper's human raters. Reports nDCG@3 of
/// AnsW's presented ranking and the precision of the best rewrite.
pub fn exp5_userstudy(cfg: &ExpConfig) -> Reporter {
    let mut rep = Reporter::new();
    let graph = dbpedia_like(cfg.scale, cfg.seed);
    let w = Workload::build(
        graph,
        cfg.queries.max(8),
        &cfg.qcfg(3, TopologyKind::Star),
        &cfg.wcfg(5),
        QuestionKind::Why,
    );
    let ctx = w.ctx(4);
    let mut base = cfg.wqe();
    base.top_k = 3;
    let mut ndcg_sum = 0.0;
    let mut noisy_sum = 0.0;
    let mut prec_sum = 0.0;
    let mut n = 0usize;
    let mut nn = 0usize;
    // Deterministic noise stream for the noisy judge.
    let mut noise_state = cfg.seed | 1;
    let mut next_noise = move || -> f64 {
        // xorshift in [-0.3, 0.3]
        noise_state ^= noise_state << 13;
        noise_state ^= noise_state >> 7;
        noise_state ^= noise_state << 17;
        ((noise_state >> 11) as f64 / (1u64 << 53) as f64) * 0.6 - 0.3
    };
    for gw in &w.questions {
        let session = Session::new(ctx.clone(), &gw.question, base.clone());
        let report = wqe_core::answ(&session, &gw.question);
        if let Some(profile) = &report.profile {
            rep.record_profiles(
                "exp5-userstudy",
                "AnsW",
                "all",
                std::slice::from_ref(profile),
            );
        }
        if report.top_k.is_empty() {
            continue;
        }
        // Oracle gains: δ to the hidden truth, in AnsW's presented order.
        let gains: Vec<f64> = report
            .top_k
            .iter()
            .map(|r| relative_closeness(&r.matches, &gw.truth_answers))
            .collect();
        if let Some(score) = wqe_core::metrics::ndcg_at(&gains, 3) {
            ndcg_sum += score;
            n += 1;
        }
        // Noisy judge: the same gains perturbed multiplicatively.
        let noisy: Vec<f64> = gains
            .iter()
            .map(|g| (g * (1.0 + next_noise())).max(0.0))
            .collect();
        if let Some(score) = wqe_core::metrics::ndcg_at(&noisy, 3) {
            noisy_sum += score;
            nn += 1;
        }
        // Precision of the best rewrite's answers against the truth.
        let best = &report.top_k[0];
        if !best.matches.is_empty() {
            prec_sum +=
                wqe_core::metrics::PrecisionRecall::of(&best.matches, &gw.truth_answers).precision;
        }
    }
    if n > 0 {
        rep.record(
            "exp5-userstudy",
            "AnsW",
            "nDCG@3",
            ndcg_sum / n as f64,
            "score",
        );
        rep.record(
            "exp5-userstudy",
            "AnsW",
            "precision",
            prec_sum / n as f64,
            "score",
        );
    }
    if nn > 0 {
        rep.record(
            "exp5-userstudy",
            "AnsW (noisy judge)",
            "nDCG@3",
            noisy_sum / nn as f64,
            "score",
        );
    }
    rep
}

/// Extension experiment (not in the paper): recall of *planted* pattern
/// copies. A known number of target-pattern instances is embedded in a
/// synthetic background; the planted query is disturbed and each algorithm
/// must recover the copies. Controlled ground-truth size removes the
/// answer-set-size variance of anchor-grown queries.
pub fn exp6_planted(cfg: &ExpConfig) -> Reporter {
    use wqe_datagen::{generate_planted, PlantTemplate, SynthConfig};
    let mut rep = Reporter::new();
    for copies in [10usize, 25, 50] {
        let background = SynthConfig {
            nodes: (10_000.0 * cfg.scale).max(300.0) as usize,
            avg_out_degree: 3.0,
            labels: 20,
            seed: cfg.seed,
            ..Default::default()
        };
        let template = PlantTemplate {
            decoys: copies,
            ..Default::default()
        };
        let planted = generate_planted(&background, &template, copies);
        let graph = std::sync::Arc::new(planted.graph.clone());
        let oracle: std::sync::Arc<dyn wqe_index::DistanceOracle> =
            std::sync::Arc::new(wqe_index::HybridOracle::default_for(&graph, 4));
        let ctx = wqe_core::EngineCtx::new(
            std::sync::Arc::clone(&graph),
            std::sync::Arc::clone(&oracle),
        );
        // Disturb the planted query and build the why-question.
        let truth = wqe_datagen::GeneratedQuery {
            query: planted.query.clone(),
            anchor: planted.planted[0],
        };
        let wcfg = WhyGenConfig {
            disturb_ops: 4,
            max_tuples: 5,
            exemplar_attrs: 2,
            class: None,
            seed: cfg.seed + copies as u64,
        };
        let Some(gw) = wqe_datagen::generate_why(&graph, &oracle, &truth, &wcfg) else {
            continue;
        };
        for spec in [AlgoSpec::AnsW, AlgoSpec::AnsHeu(3), AlgoSpec::FMAnsW] {
            let config = spec.config(cfg.wqe());
            let session = Session::new(ctx.clone(), &gw.question, config);
            let report = spec.execute(&session, &gw.question);
            if let Some(profile) = &report.profile {
                rep.record_profiles(
                    "exp6-planted-recall",
                    &spec.name(),
                    copies,
                    std::slice::from_ref(profile),
                );
            }
            let recall = report
                .best
                .as_ref()
                .map(|b| {
                    let hit = planted
                        .planted
                        .iter()
                        .filter(|v| b.matches.contains(v))
                        .count();
                    hit as f64 / planted.planted.len() as f64
                })
                .unwrap_or(0.0);
            rep.record(
                "exp6-planted-recall",
                &spec.name(),
                copies,
                recall,
                "recall",
            );
        }
    }
    rep
}

/// Ablation (not in the paper): the `relevance_sample` cap — how many
/// RC/RM nodes `NextOp` inspects per analysis. Trades operator-generation
/// cost against repair coverage.
pub fn exp7_sample_ablation(cfg: &ExpConfig) -> Reporter {
    let mut rep = Reporter::new();
    let graph = imdb_like(cfg.scale, cfg.seed + 1);
    let w = Workload::build(
        graph,
        cfg.queries,
        &cfg.qcfg(3, TopologyKind::Star),
        &cfg.wcfg(5),
        QuestionKind::Why,
    );
    let ctx = w.ctx(4);
    for sample in [8usize, 32, 128] {
        let mut base = cfg.wqe();
        base.relevance_sample = sample;
        for spec in [AlgoSpec::AnsW, AlgoSpec::AnsHeu(3)] {
            let stats = run_algo_with(&w, &ctx, spec, &base);
            rep.record(
                "exp7-sample-time",
                &spec.name(),
                sample,
                stats.mean_ms,
                "ms",
            );
            rep.record_profiles("exp7-sample-time", &spec.name(), sample, &stats.profiles);
            rep.record(
                "exp7-sample-delta",
                &spec.name(),
                sample,
                stats.mean_delta,
                "delta",
            );
        }
    }
    rep
}

/// Exp-8 (extension): per-query governor telemetry. Runs `AnsW` once
/// ungoverned and once under a deadline + step cap, and reports each
/// query's termination reason, matcher work, and frontier peak — the
/// series name is the termination reason, so the rendered table shows at a
/// glance how many queries ended `complete` vs `deadline`/`step_cap`.
pub fn exp8_governor(cfg: &ExpConfig) -> Reporter {
    let mut rep = Reporter::new();
    let graph = dbpedia_like(cfg.scale, cfg.seed);
    let w = Workload::build(
        graph,
        cfg.queries,
        &cfg.qcfg(2, TopologyKind::Star),
        &cfg.wcfg(5),
        QuestionKind::Why,
    );
    let ctx = w.ctx(4);
    let mut governed = cfg.wqe();
    // A tight deadline plus a matcher-step cap, so partial terminations
    // actually occur at laptop scale.
    governed.deadline_ms = (cfg.time_limit_ms as f64 / 4.0).max(1.0);
    governed.max_match_steps = (cfg.max_expansions as u64).max(1);
    for (mode, base) in [("ungoverned", cfg.wqe()), ("governed", governed)] {
        let stats = run_algo_with(&w, &ctx, AlgoSpec::AnsW, &base);
        rep.record_profiles("exp8-governor", "AnsW", mode, &stats.profiles);
        for (i, t) in stats.governor.iter().enumerate() {
            let q = format!("{mode}/q{i}");
            rep.record(
                "exp8-governor-elapsed",
                &t.termination,
                &q,
                t.elapsed_ms,
                "ms",
            );
            rep.record(
                "exp8-governor-steps",
                &t.termination,
                &q,
                t.match_steps as f64,
                "steps",
            );
            rep.record(
                "exp8-governor-frontier",
                &t.termination,
                &q,
                t.frontier_peak as f64,
                "states",
            );
            rep.record(
                "exp8-governor-partial",
                &t.termination,
                &q,
                t.partial as u8 as f64,
                "flag",
            );
        }
    }
    rep
}

/// All experiment ids in paper order.
pub const ALL_EXPERIMENTS: [&str; 16] = [
    "exp1-efficiency",
    "exp1-scalability",
    "exp1-querysize",
    "exp1-budget",
    "exp1-exemplars",
    "exp1-topology",
    "exp2-effectiveness",
    "exp2-querysize",
    "exp2-budget",
    "exp3-anytime",
    "exp4-whymany",
    "exp4-whyempty",
    "exp5-userstudy",
    "exp6-planted-recall",
    "exp7-sample-ablation",
    "exp8-governor",
];

/// Dispatches an experiment by id.
pub fn run_experiment(id: &str, cfg: &ExpConfig) -> Option<Reporter> {
    Some(match id {
        "exp1-efficiency" => exp1_efficiency(cfg),
        "exp1-scalability" => exp1_scalability(cfg),
        "exp1-querysize" => exp1_querysize(cfg),
        "exp1-budget" => exp1_budget(cfg),
        "exp1-exemplars" => exp1_exemplars(cfg),
        "exp1-topology" => exp1_topology(cfg),
        "exp2-effectiveness" => exp2_effectiveness(cfg),
        "exp2-querysize" => exp2_querysize(cfg),
        "exp2-budget" => exp2_budget(cfg),
        "exp3-anytime" => exp3_anytime(cfg),
        "exp4-whymany" => exp4_whymany(cfg),
        "exp4-whyempty" => exp4_whyempty(cfg),
        "exp5-userstudy" => exp5_userstudy(cfg),
        "exp6-planted-recall" => exp6_planted(cfg),
        "exp7-sample-ablation" => exp7_sample_ablation(cfg),
        "exp8-governor" => exp8_governor(cfg),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExpConfig {
        ExpConfig {
            scale: 0.01,
            queries: 2,
            time_limit_ms: 300,
            max_expansions: 40,
            ..Default::default()
        }
    }

    #[test]
    fn efficiency_experiment_produces_all_series() {
        let rep = exp1_efficiency(&tiny());
        let series: std::collections::HashSet<&str> =
            rep.rows().iter().map(|r| r.series.as_str()).collect();
        assert!(series.contains("AnsW"));
        assert!(series.contains("AnsWb"));
        assert!(series.contains("FMAnsW"));
        // 4 datasets x 5 algorithms.
        assert_eq!(rep.rows().len(), 20);
    }

    #[test]
    fn governor_experiment_reports_per_query() {
        let cfg = tiny();
        let rep = exp8_governor(&cfg);
        // Four metrics x two modes x one row per query.
        let steps: Vec<_> = rep
            .rows()
            .iter()
            .filter(|r| r.experiment == "exp8-governor-steps")
            .collect();
        assert!(!steps.is_empty());
        assert!(steps.iter().any(|r| r.x.starts_with("ungoverned/")));
        assert!(steps.iter().any(|r| r.x.starts_with("governed/")));
        // Series names are termination reasons.
        for r in rep.rows() {
            assert!(
                [
                    "complete",
                    "deadline",
                    "cancelled",
                    "frontier_cap",
                    "step_cap"
                ]
                .contains(&r.series.as_str()),
                "{r:?}"
            );
        }
    }

    #[test]
    fn userstudy_scores_bounded() {
        let rep = exp5_userstudy(&tiny());
        for r in rep.rows() {
            assert!(r.value >= 0.0 && r.value <= 1.0, "{r:?}");
        }
    }

    #[test]
    fn unknown_experiment_rejected() {
        assert!(run_experiment("nope", &tiny()).is_none());
    }
}
