//! The durable store must be invisible to the algorithms: a context loaded
//! from a snapshot (`EngineCtx::from_snapshot`) answers every question
//! bit-identically to a context built fresh from the same graph — across
//! all five algorithm families and at any parallelism — and a written
//! snapshot decodes back to exactly the graph that produced it.
//!
//! Corrupted files must surface as structured `LoadError`s, never panics:
//! every section is protected by its own checksum, and truncation at any
//! point is detected before any array is interpreted.

use std::path::PathBuf;
use std::sync::Arc;
use wqe::core::engine::{Algorithm, WqeEngine};
use wqe::core::{EngineCtx, WhyQuestion, WqeConfig};
use wqe::datagen::{
    dbpedia_like, generate, generate_query, generate_why, QueryGenConfig, SynthConfig,
    TopologyKind, WhyGenConfig,
};
use wqe::graph::{Graph, LoadError, NodeId};
use wqe::index::DistanceOracle;
use wqe::store::{build_and_write_snapshot, Snapshot};

use proptest::prelude::*;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Every algorithm family the engine dispatches (§5–§6).
const ALGORITHMS: [Algorithm; 5] = [
    Algorithm::AnsW,
    Algorithm::AnsHeu,
    Algorithm::FMAnsW,
    Algorithm::WhyMany,
    Algorithm::WhyEmpty,
];

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("wqe-snapdet-{tag}-{}.wqs", std::process::id()))
}

/// A comparable summary of a full report, floats compared bit-exactly.
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

/// Deep structural equality: everything the engine can observe about a
/// graph, with float statistics compared bit-exactly.
fn assert_graphs_equal(a: &Graph, b: &Graph) {
    assert_eq!(a.node_count(), b.node_count());
    assert_eq!(a.edge_count(), b.edge_count());
    let (sa, sb) = (a.schema(), b.schema());
    assert_eq!(sa.label_count(), sb.label_count());
    assert_eq!(sa.attr_count(), sb.attr_count());
    assert_eq!(sa.edge_label_count(), sb.edge_label_count());
    for i in 0..sa.label_count() as u32 {
        assert_eq!(sa.label_name(i.into()), sb.label_name(i.into()));
    }
    for i in 0..sa.attr_count() as u32 {
        assert_eq!(sa.attr_name(i.into()), sb.attr_name(i.into()));
    }
    for i in 0..sa.edge_label_count() as u32 {
        assert_eq!(sa.edge_label_name(i.into()), sb.edge_label_name(i.into()));
    }
    for v in a.node_ids() {
        assert_eq!(a.node(v).label, b.node(v).label, "{v:?}");
        assert_eq!(a.node(v).attrs, b.node(v).attrs, "{v:?}");
    }
    assert_eq!(a.out_csr(), b.out_csr());
    assert_eq!(a.in_csr(), b.in_csr());
    assert_eq!(a.label_index(), b.label_index());
    assert_eq!(a.raw_diameter(), b.raw_diameter());
    for (x, y) in a.attr_stats_all().iter().zip(b.attr_stats_all()) {
        assert_eq!(x.count, y.count);
        assert_eq!(x.numeric_count, y.numeric_count);
        assert_eq!(x.min_num.to_bits(), y.min_num.to_bits());
        assert_eq!(x.max_num.to_bits(), y.max_num.to_bits());
        assert_eq!(x.distinct_categorical, y.distinct_categorical);
    }
}

fn generated_questions(
    graph: &Arc<Graph>,
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

/// The headline contract: five algorithms, three thread counts, two
/// provenances (fresh build vs snapshot load) — one fingerprint.
#[test]
fn snapshot_loaded_answers_bit_identical_to_fresh() {
    let graph = Arc::new(dbpedia_like(0.02, 5));
    let path = temp_path("identical");
    build_and_write_snapshot(&path, &graph).unwrap();

    let fresh = EngineCtx::with_default_oracle(Arc::clone(&graph));
    let loaded = EngineCtx::from_snapshot(&path).unwrap();
    assert!(loaded.snapshot_startup().is_some());
    assert_graphs_equal(fresh.graph(), loaded.graph());

    let qs = generated_questions(&graph, fresh.oracle(), 3);
    assert!(qs.len() >= 2, "suite too small");
    for wq in &qs {
        for algo in ALGORITHMS {
            for &t in &THREAD_COUNTS {
                let cfg = algo.apply_to(config(t));
                let a = WqeEngine::try_new(fresh.clone(), wq.clone(), cfg.clone())
                    .expect("fresh engine")
                    .try_run(algo)
                    .expect("fresh run");
                let b = WqeEngine::try_new(loaded.clone(), wq.clone(), cfg)
                    .expect("snapshot engine")
                    .try_run(algo)
                    .expect("snapshot run");
                assert_eq!(
                    fingerprint(&a),
                    fingerprint(&b),
                    "{algo:?} at parallelism {t} diverged between fresh and snapshot"
                );
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

/// The batched oracle path must be provenance-invariant too: `dist_batch`
/// through the snapshot's zero-copy labels (the `Oracle`'s mapped tier,
/// shared scratch behind a `try_lock`) answers exactly like the freshly built
/// `PllIndex`, at every bound, on every batch shape, and under concurrent
/// callers (which exercise the per-call scratch fallback).
#[test]
fn dist_batch_parity_fresh_vs_snapshot() {
    let graph = Arc::new(dbpedia_like(0.02, 5));
    let path = temp_path("distbatch");
    build_and_write_snapshot(&path, &graph).unwrap();
    let fresh = EngineCtx::with_default_oracle(Arc::clone(&graph));
    let loaded = EngineCtx::from_snapshot(&path).unwrap();

    let n = graph.node_count() as u32;
    let pairs: Vec<(NodeId, NodeId)> = (0..n)
        .step_by(7)
        .flat_map(|s| (0..24u32).map(move |t| (NodeId(s), NodeId((s * 31 + t * 17 + 1) % n))))
        .collect();
    assert!(pairs.len() > 500, "suite too small");

    for bound in [1, 2, 4, 8, u32::MAX] {
        assert_eq!(
            fresh.oracle().dist_batch(&pairs, bound),
            loaded.oracle().dist_batch(&pairs, bound),
            "bound {bound}"
        );
    }

    // The whole-batch shapes: one source against every node, and every
    // node against one target (the matcher's join), equal to pointwise.
    for anchor in [NodeId(0), NodeId(n / 2), NodeId(n - 1)] {
        let fixed_source: Vec<_> = graph.node_ids().map(|v| (anchor, v)).collect();
        let fixed_target: Vec<_> = graph.node_ids().map(|u| (u, anchor)).collect();
        for shape in [&fixed_source, &fixed_target] {
            let batched = loaded.oracle().dist_batch(shape, 4);
            assert_eq!(batched, fresh.oracle().dist_batch(shape, 4));
            for (&(u, v), got) in shape.iter().zip(&batched) {
                assert_eq!(
                    *got,
                    loaded.oracle().distance_within(u, v, 4),
                    "{u:?}->{v:?}"
                );
            }
        }
    }

    let expected = fresh.oracle().dist_batch(&pairs, 4);
    for &t in &THREAD_COUNTS {
        let handles: Vec<_> = (0..t)
            .map(|_| {
                let ctx = loaded.clone();
                let pairs = pairs.clone();
                std::thread::spawn(move || ctx.oracle().dist_batch(&pairs, 4))
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), expected, "{t} concurrent callers");
        }
    }
    std::fs::remove_file(&path).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any generated graph survives write → load losslessly, and when a
    /// why-question can be generated for it, `answ` from the snapshot
    /// context matches the fresh context bit-for-bit at every parallelism.
    #[test]
    fn roundtrip_is_lossless_for_generated_graphs(nodes in 60usize..200, seed in 0u64..1_000) {
        let graph = Arc::new(generate(&SynthConfig {
            nodes,
            seed,
            ..Default::default()
        }));
        let path = temp_path(&format!("prop-{nodes}-{seed}"));
        build_and_write_snapshot(&path, &graph).unwrap();

        let snap = Snapshot::open(&path).unwrap();
        let decoded = snap.load_graph().unwrap();
        assert_graphs_equal(&graph, &decoded);

        let fresh = EngineCtx::with_default_oracle(Arc::clone(&graph));
        let loaded = EngineCtx::from_snapshot(&path).unwrap();
        if let Some(wq) = generated_questions(&graph, fresh.oracle(), 1).pop() {
            for &t in &THREAD_COUNTS {
                let a = WqeEngine::try_new(fresh.clone(), wq.clone(), config(t))
                    .expect("fresh engine")
                    .try_run(Algorithm::AnsW)
                    .expect("fresh run");
                let b = WqeEngine::try_new(loaded.clone(), wq.clone(), config(t))
                    .expect("snapshot engine")
                    .try_run(Algorithm::AnsW)
                    .expect("snapshot run");
                prop_assert_eq!(fingerprint(&a), fingerprint(&b), "parallelism {}", t);
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

/// Flipping one payload byte in *any* section is caught by that section's
/// checksum — never a panic and never a silently-wrong graph. Under
/// `open_strict` every mismatch is a structured error naming the section;
/// under `open`, required (graph) sections still refuse to load while
/// optional PLL label sections are *quarantined*: the snapshot serves via
/// the BFS fallback and answers stay bit-identical to the fresh context.
#[test]
fn every_section_corruption_is_detected() {
    let graph = Arc::new(dbpedia_like(0.01, 9));
    let path = temp_path("corrupt");
    build_and_write_snapshot(&path, &graph).unwrap();
    let pristine = std::fs::read(&path).unwrap();
    let sections: Vec<_> = Snapshot::open(&path)
        .unwrap()
        .section_infos()
        .into_iter()
        .filter(|s| s.len > 0)
        .collect();
    assert!(sections.len() >= 13, "expected every required section");
    assert!(
        sections.iter().any(|s| s.name.starts_with("pll_")),
        "suite must cover the v2 flat-PLL sections"
    );

    let fresh = EngineCtx::with_default_oracle(Arc::clone(&graph));
    let wq = generated_questions(&graph, fresh.oracle(), 1)
        .pop()
        .expect("a why-question for the quarantine parity check");
    let expected = fingerprint(
        &WqeEngine::try_new(fresh.clone(), wq.clone(), config(2))
            .unwrap()
            .try_run(Algorithm::AnsW)
            .unwrap(),
    );

    for s in &sections {
        let mut bytes = pristine.clone();
        let at = (s.offset + s.len / 2) as usize;
        bytes[at] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        // Strict open: every mismatch is fatal and blames its section.
        match Snapshot::open_strict(&path) {
            Err(LoadError::ChecksumMismatch { section }) => {
                assert_eq!(section, s.name, "blamed the wrong section");
            }
            other => panic!("corrupt {} accepted by open_strict: {other:?}", s.name),
        }
        // Serving open: required sections stay fatal; PLL sections are
        // quarantined and the context degrades without changing answers.
        let optional = s.name.starts_with("pll_");
        match Snapshot::open(&path) {
            Err(LoadError::ChecksumMismatch { section }) if !optional => {
                assert_eq!(section, s.name, "blamed the wrong section");
            }
            Ok(snap) if optional => {
                assert_eq!(snap.quarantined(), vec![s.name]);
                assert!(!snap.pll_available());
                let degraded = EngineCtx::from_snapshot(&path).unwrap();
                let startup = degraded.snapshot_startup().unwrap();
                assert_eq!(startup.quarantined_sections, vec![s.name]);
                let got = fingerprint(
                    &WqeEngine::try_new(degraded, wq.clone(), config(2))
                        .unwrap()
                        .try_run(Algorithm::AnsW)
                        .unwrap(),
                );
                assert_eq!(got, expected, "quarantined {} changed answers", s.name);
            }
            other => panic!("corrupt {}: unexpected outcome {other:?}", s.name),
        }
    }
    std::fs::write(&path, &pristine).unwrap();
    assert!(Snapshot::open(&path).is_ok(), "pristine bytes must reload");
    std::fs::remove_file(&path).ok();
}

/// The corruption/truncation sweep holds for *streamed* snapshots too
/// (`wqe_datagen::stream_snapshot` — the paper-scale writer): every
/// nonempty section's checksum catches a byte flip, and truncation at any
/// point (including mid-section-table, simulating a partial copy of the
/// file) is a structured error. Streamed snapshots carry no PLL, so every
/// section is required and nothing is quarantined.
#[test]
fn streamed_snapshot_corruption_and_truncation_detected() {
    use wqe::datagen::{stream_snapshot, ScaleConfig};
    let path = temp_path("streamed");
    stream_snapshot(&ScaleConfig::new(500, 77), &path).unwrap();
    let pristine = std::fs::read(&path).unwrap();

    let sections: Vec<_> = Snapshot::open(&path)
        .unwrap()
        .section_infos()
        .into_iter()
        .filter(|s| s.len > 0)
        .collect();
    assert!(!sections.is_empty());
    for s in &sections {
        let mut bytes = pristine.clone();
        bytes[(s.offset + s.len / 2) as usize] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        match Snapshot::open(&path) {
            Err(LoadError::ChecksumMismatch { section }) => assert_eq!(section, s.name),
            other => panic!("corrupt streamed {} accepted: {other:?}", s.name),
        }
    }
    for cut in [0, 7, 31, 40, 200, pristine.len() / 3, pristine.len() - 1] {
        std::fs::write(&path, &pristine[..cut]).unwrap();
        assert!(
            Snapshot::open(&path).is_err(),
            "streamed truncation at {cut} accepted"
        );
    }
    std::fs::write(&path, &pristine).unwrap();
    let loaded = EngineCtx::from_snapshot(&path).unwrap();
    assert_eq!(loaded.graph().node_count(), 500);
    std::fs::remove_file(&path).ok();
}

/// Crash-safety of the streaming writer: the destination path is born
/// complete or not at all. A writer abandoned mid-`end_section` (simulating
/// a crash between payload flush and table update) leaves a pre-existing
/// destination byte-identical and cleans up its temp file.
#[test]
fn crashed_streaming_write_never_damages_the_destination() {
    use wqe::store::{SectionId, SnapshotWriter};
    let dir = std::env::temp_dir();
    let path = temp_path("crash");

    // A good snapshot already lives at the destination.
    let graph = dbpedia_like(0.01, 9);
    build_and_write_snapshot(&path, &graph).unwrap();
    let pristine = std::fs::read(&path).unwrap();

    {
        // Rewrite the same path, then "crash" mid-section: begin a section,
        // write part of its payload, and drop the writer without
        // end_section/finish.
        let mut w = SnapshotWriter::create(&path, 3).unwrap();
        w.begin_section(SectionId::NodeLabels).unwrap();
        w.write(&[0xde, 0xad, 0xbe, 0xef]).unwrap();
        // Destination untouched while the rewrite is in flight.
        assert_eq!(std::fs::read(&path).unwrap(), pristine);
    }
    // After the simulated crash: destination bytes identical, still opens,
    // and no temp litter remains next to it.
    assert_eq!(std::fs::read(&path).unwrap(), pristine);
    assert!(Snapshot::open(&path).is_ok());
    let file_name = path.file_name().unwrap().to_string_lossy().into_owned();
    let litter: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| {
            n.contains(&file_name)
                && n.ends_with(|c: char| c.is_ascii_digit())
                && n.starts_with('.')
        })
        .collect();
    assert!(litter.is_empty(), "temp files left behind: {litter:?}");
    std::fs::remove_file(&path).ok();
}

/// Truncation anywhere — mid-header, mid-table, mid-payload, one byte
/// short — is an error, not a panic, and `from_snapshot` wraps it.
#[test]
fn truncated_snapshots_error_cleanly() {
    let graph = dbpedia_like(0.01, 9);
    let path = temp_path("trunc");
    build_and_write_snapshot(&path, &graph).unwrap();
    let pristine = std::fs::read(&path).unwrap();
    for cut in [
        0,
        7,
        16,
        31,
        32,
        200,
        pristine.len() / 2,
        pristine.len() - 1,
    ] {
        std::fs::write(&path, &pristine[..cut]).unwrap();
        assert!(
            Snapshot::open(&path).is_err(),
            "truncation at {cut} accepted"
        );
        let err = EngineCtx::from_snapshot(&path).unwrap_err();
        assert!(
            matches!(err, wqe::core::WqeError::Snapshot { .. }),
            "truncation at {cut}: {err:?}"
        );
    }
    std::fs::remove_file(&path).ok();
}

/// The snapshot format, pinned byte for byte: FNV-1a 64 digests of three
/// whole files, one from each way a snapshot is written — a graph with its
/// PLL labels, the build-and-write fast path, and the streaming paper-scale
/// generator. A change to any section's encoding (string pool order, stats
/// folds, label index, diameter tie-break) moves a digest.
#[test]
fn snapshot_bytes_are_pinned() {
    use wqe::datagen::{stream_snapshot, ScaleConfig};
    use wqe::index::PllIndex;
    use wqe::store::{format::fnv1a64, write_snapshot};

    let digest = |path: &PathBuf| {
        let d = fnv1a64(&std::fs::read(path).unwrap());
        std::fs::remove_file(path).ok();
        d
    };
    let product = wqe::graph::product::product_graph().graph;
    let path = temp_path("pinned-product");
    write_snapshot(&path, &product, Some(&PllIndex::build(&product))).unwrap();
    let product_digest = digest(&path);

    let path = temp_path("pinned-dbpedia");
    build_and_write_snapshot(&path, &dbpedia_like(0.01, 9)).unwrap();
    let dbpedia_digest = digest(&path);

    let path = temp_path("pinned-stream");
    stream_snapshot(&ScaleConfig::new(1500, 11), &path).unwrap();
    let stream_digest = digest(&path);

    assert_eq!(
        [product_digest, dbpedia_digest, stream_digest],
        [
            0x4df4_578a_2d7d_3a59,
            0x978c_52f1_2fee_7271,
            0x1b9a_1d47_8fce_a573
        ],
        "snapshot bytes moved: {product_digest:#018x} {dbpedia_digest:#018x} {stream_digest:#018x}"
    );
}
