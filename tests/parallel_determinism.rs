//! Intra-query parallelism must never change answers: `AnsW` and `AnsHeu`
//! at any thread count produce byte-identical reports, and the rank-windowed
//! parallel PLL build answers exactly like sequential construction.
//!
//! The search trajectory is a function of `answ::FRONTIER_BATCH` alone;
//! `parallelism` only decides how many workers evaluate each batch. These
//! tests pin that contract across paper and generated workloads.
//!
//! The PLL tests also pin the index's work counts: the build's labels, and
//! the label entries a batched probe scans against pointwise merge-joins.

use std::sync::Arc;
use wqe::core::obs::{Counter, Profiler};
use wqe::core::{Algorithm, EngineCtx, Session, WhyQuestion, WqeConfig};
use wqe::datagen::{
    dbpedia_like, generate_query, generate_why, imdb_like, QueryGenConfig, TopologyKind,
    WhyGenConfig,
};
use wqe::graph::NodeId;
use wqe::index::{BoundedBfsOracle, DistanceOracle, Oracle, PllIndex};
use wqe::pool::scope::Scope;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// A comparable summary of a full report: the best rewrite plus the whole
/// top-k list, with float fields compared bit-exactly.
fn fingerprint(report: &wqe::core::AnswerReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    fn push(out: &mut String, r: &wqe::core::RewriteResult) {
        let _ = write!(
            out,
            "[{:x}/{:x}/{:?}/{:?}/{}]",
            r.closeness.to_bits(),
            r.cost.to_bits(),
            r.ops,
            r.matches,
            r.satisfies
        );
    }
    match &report.best {
        None => out.push_str("none"),
        Some(b) => push(&mut out, b),
    }
    for r in &report.top_k {
        push(&mut out, r);
    }
    let _ = write!(out, "|opt={}", report.optimal_reached);
    out
}

fn generated_questions(
    graph: &Arc<wqe::graph::Graph>,
    oracle: &Arc<dyn DistanceOracle>,
    n: usize,
) -> Vec<WhyQuestion> {
    let mut out = Vec::new();
    let mut seed = 0u64;
    while out.len() < n && seed < 200 {
        seed += 1;
        let qcfg = QueryGenConfig {
            edges: 2,
            seed,
            topology: TopologyKind::Star,
            ..Default::default()
        };
        if let Some(truth) = generate_query(graph, &qcfg) {
            let wcfg = WhyGenConfig {
                seed: seed * 13,
                ..Default::default()
            };
            if let Some(gw) = generate_why(graph, oracle, &truth, &wcfg) {
                out.push(gw.question);
            }
        }
    }
    out
}

fn config(parallelism: usize) -> WqeConfig {
    WqeConfig {
        budget: 3.0,
        max_expansions: 300,
        top_k: 3,
        parallelism,
        ..Default::default()
    }
}

#[test]
fn answ_identical_across_thread_counts_paper_scenario() {
    let graph = Arc::new(wqe::graph::product::product_graph().graph);
    let ctx = EngineCtx::with_default_oracle(Arc::clone(&graph));
    let wq = wqe::core::paper::paper_question(&graph);
    let runs: Vec<String> = THREAD_COUNTS
        .iter()
        .map(|&t| {
            let session = Session::new(
                ctx.clone(),
                &wq,
                WqeConfig {
                    budget: 4.0,
                    top_k: 3,
                    parallelism: t,
                    ..Default::default()
                },
            );
            fingerprint(&session.run(Algorithm::AnsW, &wq).unwrap())
        })
        .collect();
    assert_eq!(runs[0], runs[1], "parallelism 1 vs 2 diverged");
    assert_eq!(runs[0], runs[2], "parallelism 1 vs 8 diverged");
}

#[test]
fn answ_identical_across_thread_counts_generated_workload() {
    let graph = Arc::new(dbpedia_like(0.02, 5));
    let oracle: Arc<dyn DistanceOracle> = Arc::new(Oracle::build(&graph));
    let qs = generated_questions(&graph, &oracle, 4);
    assert!(qs.len() >= 2, "suite too small");
    let ctx = EngineCtx::new(Arc::clone(&graph), Arc::clone(&oracle));

    for wq in &qs {
        let runs: Vec<String> = THREAD_COUNTS
            .iter()
            .map(|&t| {
                let session = Session::new(ctx.clone(), wq, config(t));
                fingerprint(&session.run(Algorithm::AnsW, wq).unwrap())
            })
            .collect();
        assert_eq!(runs[0], runs[1], "parallelism 1 vs 2 diverged");
        assert_eq!(runs[0], runs[2], "parallelism 1 vs 8 diverged");
    }
}

#[test]
fn ans_heu_identical_across_thread_counts() {
    let graph = Arc::new(dbpedia_like(0.02, 5));
    let oracle: Arc<dyn DistanceOracle> = Arc::new(Oracle::build(&graph));
    let qs = generated_questions(&graph, &oracle, 3);
    assert!(!qs.is_empty());
    let ctx = EngineCtx::new(Arc::clone(&graph), Arc::clone(&oracle));

    for wq in &qs {
        for algorithm in [Algorithm::AnsHeu, Algorithm::AnsHeuB(7)] {
            let runs: Vec<String> = THREAD_COUNTS
                .iter()
                .map(|&t| {
                    let session = Session::new(ctx.clone(), wq, config(t));
                    fingerprint(&session.run(algorithm, wq).unwrap())
                })
                .collect();
            assert_eq!(runs[0], runs[1], "{algorithm:?}: parallelism 1 vs 2");
            assert_eq!(runs[0], runs[2], "{algorithm:?}: parallelism 1 vs 8");
        }
    }
}

#[test]
fn parallel_pll_build_matches_bfs_and_is_thread_count_invariant() {
    let graph = dbpedia_like(0.03, 4);
    let arc = Arc::new(graph.clone());
    let bfs = BoundedBfsOracle::new(Arc::clone(&arc), u32::MAX);

    let builds: Vec<PllIndex> = THREAD_COUNTS
        .iter()
        .map(|&t| PllIndex::build_with(&graph, t))
        .collect();
    // Same window size => identical labels regardless of thread count.
    let serialized: Vec<String> = builds
        .iter()
        .map(|i| serde_json::to_string(i).expect("serializable"))
        .collect();
    assert_eq!(serialized[0], serialized[1]);
    assert_eq!(serialized[0], serialized[2]);

    // And the answers are exact (spot-check against an uncapped BFS).
    let nodes: Vec<_> = graph.node_ids().collect();
    for (i, &u) in nodes.iter().enumerate().step_by(7) {
        for &v in nodes.iter().skip(i % 3).step_by(11) {
            assert_eq!(
                builds[0].distance(u, v),
                bfs.distance_within(u, v, u32::MAX),
                "{u:?}->{v:?}"
            );
        }
    }
}

/// FNV-1a over every word of the six label arrays.
fn label_digest(idx: &PllIndex) -> u64 {
    let p = idx.parts();
    let mut h: u64 = 0xcbf29ce484222325;
    for arr in [
        &p.out_offsets,
        &p.out_ranks,
        &p.out_dists,
        &p.in_offsets,
        &p.in_ranks,
        &p.in_dists,
    ] {
        for b in arr.iter().flat_map(|x| x.to_le_bytes()) {
            h = (h ^ b as u64).wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// Table certification changed how a BFS visit is pruned, never which
/// visits are: the label arrays still hash to the values recorded from the
/// merge-join-certified build (PR 11), at every thread count.
#[test]
fn pll_build_labels_pinned_to_merge_join_certified_build() {
    let pinned: [(&str, u64, u64); 4] = [
        ("imdb", 1, 0xfe67a4b86e1e22ab),
        ("dbpedia", 1, 0xd32b417bc3abd319),
        ("imdb", 7, 0x8c9c01f1f25454b9),
        ("dbpedia", 7, 0x4b3aa777dcaa8bb8),
    ];
    for (kind, seed, want) in pinned {
        let graph = match kind {
            "imdb" => imdb_like(0.02, seed),
            _ => dbpedia_like(0.02, seed),
        };
        for threads in THREAD_COUNTS {
            assert_eq!(
                label_digest(&PllIndex::build_with(&graph, threads)),
                want,
                "{kind}_like(0.02, {seed}) at {threads} threads"
            );
        }
    }
}

/// The batched oracle path's headline number, in work counts (identical on
/// the scalar and AVX2 kernels): answering many targets per source through
/// `dist_batch` scans at least 2x fewer PLL label entries than the same
/// pairs through pointwise `distance_within`, with identical answers.
#[test]
fn batched_probes_scan_half_the_label_entries_of_pointwise() {
    let graph = dbpedia_like(0.02, 33);
    let pll = PllIndex::build(&graph);
    let n = graph.node_count() as u32;
    let bound = 6;
    let pairs: Vec<(NodeId, NodeId)> = (0..(n / 13).clamp(1, 128))
        .flat_map(|s| {
            (0..64u32).map(move |t| (NodeId((s * 13) % n), NodeId((s * 31 + t * 17 + 1) % n)))
        })
        .collect();

    let scanned = |run: &dyn Fn() -> Vec<Option<u32>>| {
        let profiler = Arc::new(Profiler::new());
        let answers = {
            let _scope = Scope {
                profiler: Some(Arc::clone(&profiler)),
                ..Scope::default()
            }
            .enter();
            run()
        };
        (answers, profiler.counter(Counter::OracleLabelEntries))
    };
    let (point, point_entries) = scanned(&|| {
        pairs
            .iter()
            .map(|&(u, v)| pll.distance_within(u, v, bound))
            .collect()
    });
    let (batch, batch_entries) = scanned(&|| pll.dist_batch(&pairs, bound));
    assert_eq!(point, batch, "batched answers differ from pointwise");
    assert!(
        point_entries >= 2 * batch_entries,
        "{} pairs: pointwise scanned {point_entries} entries, batched {batch_entries}",
        pairs.len()
    );
}
