//! The work ledger: machine-independent work counts for a fixed set of
//! seeded why-questions, pinned in `tests/work/ledger.txt`.
//!
//! Every question — the paper's Fig. 1 scenario plus generated questions
//! on small IMDB-like and DBpedia-like graphs — runs under each of the
//! eight `Algorithm`s with no wall-clock limit, so no row depends on the
//! clock. A row holds the run's expansions, charged match steps, frontier
//! peak, the profile's oracle counters, the star rows materialized and the
//! nodes their BFS expanded (`rows`, `pops`: the work a star-cache hit
//! saves), the two cl⁺ prune counts (`spruned`: evaluated states kept off
//! the frontier; `gpruned`: operator generation passes withheld) and a
//! hash of the answer fingerprint. One more row per index build holds its
//! PLL label entries.
//! Rows must agree at parallelism 1 and 8; a counter that does not must
//! be left out of the rows.
//!
//! A change that moves a row fails with a per-row diff. To bless an
//! intentional change and review it:
//!
//! ```text
//! WQE_BLESS_WORK=1 cargo test --test work_ledger
//! git diff tests/work/
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use wqe::core::{Algorithm, AnswerReport, EngineCtx, Session, WhyQuestion, WqeConfig};
use wqe::datagen::{
    dbpedia_like, generate_query, generate_why, imdb_like, QueryGenConfig, TopologyKind,
    WhyGenConfig,
};
use wqe::graph::Graph;
use wqe::index::{DistanceOracle, Oracle};

const PARALLELISM: [usize; 2] = [1, 8];

const ALGORITHMS: [Algorithm; 8] = [
    Algorithm::AnsW,
    Algorithm::AnsWnc,
    Algorithm::AnsWb,
    Algorithm::AnsHeu,
    Algorithm::AnsHeuB(7),
    Algorithm::FMAnsW,
    Algorithm::WhyMany,
    Algorithm::WhyEmpty,
];

/// Generated questions per graph.
const QUESTIONS_PER_GRAPH: usize = 6;

fn ledger_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/work/ledger.txt")
}

/// One graph with its oracle and the questions asked on it.
struct Workload {
    name: &'static str,
    graph: Arc<Graph>,
    oracle: Arc<dyn DistanceOracle>,
    label_entries: usize,
    questions: Vec<(WhyQuestion, f64)>,
}

impl Workload {
    fn new(name: &'static str, graph: Graph) -> Self {
        let graph = Arc::new(graph);
        let oracle = Oracle::build(&graph);
        let label_entries = oracle.owned_labels().map_or(0, |p| p.label_entries());
        Workload {
            name,
            graph,
            oracle: Arc::new(oracle),
            label_entries,
            questions: Vec::new(),
        }
    }

    /// The first [`QUESTIONS_PER_GRAPH`] seeds that generate a question.
    fn generated(name: &'static str, graph: Graph) -> Self {
        let mut w = Workload::new(name, graph);
        let mut seed = 0u64;
        while w.questions.len() < QUESTIONS_PER_GRAPH && seed < 200 {
            seed += 1;
            let qcfg = QueryGenConfig {
                edges: 2,
                seed,
                topology: TopologyKind::Star,
                ..Default::default()
            };
            let Some(truth) = generate_query(&w.graph, &qcfg) else {
                continue;
            };
            let wcfg = WhyGenConfig {
                seed: seed * 13,
                ..Default::default()
            };
            if let Some(gw) = generate_why(&w.graph, &w.oracle, &truth, &wcfg) {
                w.questions.push((gw.question, 3.0));
            }
        }
        assert_eq!(w.questions.len(), QUESTIONS_PER_GRAPH, "{name}: too few");
        w
    }
}

fn workloads() -> Vec<Workload> {
    let mut fig1 = Workload::new("fig1", wqe::graph::product::product_graph().graph);
    let wq = wqe::core::paper::paper_question(&fig1.graph);
    fig1.questions.push((wq, 4.0));
    vec![
        fig1,
        Workload::generated("imdb", imdb_like(0.02, 3)),
        Workload::generated("dbpedia", dbpedia_like(0.02, 5)),
    ]
}

/// FNV-1a, so a fingerprint fits on a row.
fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf29ce484222325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

fn row(id: &str, report: &AnswerReport) -> String {
    let profile = report.profile.as_ref().expect("Session::run profiles");
    let c = &profile.counters;
    let cl = report.best.as_ref().map_or(f64::NAN, |b| b.closeness);
    format!(
        "{id} exp={} steps={} peak={} dist={} batch={} entries={} rows={} pops={} spruned={} gpruned={} term={} cl={cl:.3} fp={:016x}",
        report.expansions,
        report.match_steps,
        report.frontier_peak,
        c.oracle_dist_calls,
        c.oracle_dist_batch_calls,
        c.oracle_label_entries_scanned,
        c.star_rows,
        c.star_bfs_pops,
        c.states_pruned,
        c.generations_pruned,
        report.termination,
        fnv(&report.fingerprint())
    )
}

/// Every row of the ledger at one parallelism.
fn rows(workloads: &[Workload], parallelism: usize) -> Vec<String> {
    let mut out = Vec::new();
    for w in workloads {
        out.push(format!("{} pll.label_entries={}", w.name, w.label_entries));
        for (i, (wq, budget)) in w.questions.iter().enumerate() {
            for algorithm in ALGORITHMS {
                let config = algorithm.apply_to(WqeConfig {
                    budget: *budget,
                    time_limit_ms: None,
                    max_expansions: 200,
                    top_k: 2,
                    parallelism,
                    ..Default::default()
                });
                // A fresh context per run: an empty star cache, so no row
                // depends on the runs before it.
                let ctx = EngineCtx::new(Arc::clone(&w.graph), Arc::clone(&w.oracle));
                let report = Session::new(ctx, wq, config)
                    .run(algorithm, wq)
                    .expect("ledger run completes");
                out.push(row(&format!("{}/q{i} {algorithm}", w.name), &report));
            }
        }
    }
    out
}

/// The row's key: everything before its first counter.
fn key(row: &str) -> &str {
    row.find('=')
        .and_then(|eq| row[..eq].rfind(' '))
        .map_or(row, |sp| &row[..sp])
}

/// The rows that differ, keyed, as `- want` / `+ got` pairs.
fn diff(want: &[&str], got: &[String]) -> String {
    let want: BTreeMap<&str, &str> = want.iter().map(|r| (key(r), *r)).collect();
    let got: BTreeMap<&str, &str> = got.iter().map(|r| (key(r), r.as_str())).collect();
    let mut out = String::new();
    for k in want
        .keys()
        .chain(got.keys().filter(|k| !want.contains_key(*k)))
    {
        let (w, g) = (want.get(k), got.get(k));
        if w != g {
            if let Some(w) = w {
                let _ = writeln!(out, "- {w}");
            }
            if let Some(g) = g {
                let _ = writeln!(out, "+ {g}");
            }
        }
    }
    out
}

#[test]
fn work_counts_match_the_ledger() {
    let workloads = workloads();
    let serial = rows(&workloads, PARALLELISM[0]);
    let parallel = rows(&workloads, PARALLELISM[1]);
    let drift = diff(
        &serial.iter().map(String::as_str).collect::<Vec<_>>(),
        &parallel,
    );
    assert!(
        drift.is_empty(),
        "rows differ between parallelism {} (-) and {} (+); leave the \
         differing counter out of the rows:\n{drift}",
        PARALLELISM[0],
        PARALLELISM[1]
    );

    let text = format!(
        "# Work ledger: one row per (question, algorithm) run and per index\n\
         # build. Bless with WQE_BLESS_WORK=1 cargo test --test work_ledger\n{}\n",
        serial.join("\n")
    );
    let path = ledger_path();
    if std::env::var("WQE_BLESS_WORK").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create tests/work");
        std::fs::write(&path, &text).expect("bless ledger");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("missing {path:?}; run WQE_BLESS_WORK=1 to create it"));
    let want: Vec<&str> = want.lines().filter(|l| !l.starts_with('#')).collect();
    let drift = diff(&want, &serial);
    assert!(
        drift.is_empty(),
        "work counts moved from tests/work/ledger.txt (- ledger, + this \
         tree); if intentional, bless with WQE_BLESS_WORK=1 cargo test \
         --test work_ledger and say why in CHANGES.md:\n{drift}"
    );
}
