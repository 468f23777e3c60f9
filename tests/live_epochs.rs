//! Live-graph contract: epochs must be invisible to the algorithms.
//!
//! A query pinned to epoch `N` answers bit-identically to a fresh
//! `EngineCtx` built from scratch over epoch `N`'s graph — across all
//! eight algorithm families, at parallelism 1/2/8, no matter which
//! maintenance tier produced the epoch's oracle (repaired PLL, overlay,
//! rebuild, BFS), and no matter how many writers publish while the query
//! runs. Cache maintenance is keyed, not wholesale: a publish that cannot
//! affect a cached answer carries it into the new head's cache, still
//! serving hits.

use std::sync::Arc;
use wqe::core::engine::{Algorithm, WqeEngine};
use wqe::core::{
    EngineCtx, EpochId, GraphStore, QueryRequest, QueryService, ServiceConfig, WhyQuestion,
    WqeConfig,
};
use wqe::datagen::{
    generate, generate_query, generate_why, QueryGenConfig, SynthConfig, TopologyKind, WhyGenConfig,
};
use wqe::graph::{AttrValue, Graph, GraphUpdate, NodeId};
use wqe::index::DistanceOracle;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Every algorithm family the engine dispatches — the full eight.
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
        max_expansions: 200,
        top_k: 3,
        parallelism,
        ..Default::default()
    }
}

fn synth_graph() -> Arc<Graph> {
    Arc::new(generate(&SynthConfig {
        nodes: 140,
        seed: 11,
        ..Default::default()
    }))
}

fn insert(from: u32, to: u32) -> GraphUpdate {
    GraphUpdate::InsertEdge {
        from: NodeId(from),
        to: NodeId(to),
        label: "live".into(),
    }
}

/// Finds one real edge on `g` so a delete batch is never a semantic no-op.
fn some_edge(g: &Graph) -> (NodeId, NodeId) {
    g.node_ids()
        .find_map(|u| g.out_neighbors(u).first().map(|&(v, _)| (u, v)))
        .expect("graph has an edge")
}

/// The headline contract: after a sequence of publishes exercising the
/// repaired-PLL and overlay tiers, every still-pinned epoch answers every
/// question bit-identically to a context built fresh from that epoch's
/// graph — eight algorithms, three thread counts.
#[test]
fn epoch_pinned_answers_bit_identical_to_fresh_context() {
    let graph = synth_graph();
    let n = graph.node_count() as u32;
    let store = GraphStore::new(Arc::clone(&graph));

    // Pin epoch 0, then publish a pure-insert batch (repair tier) and a
    // mixed batch (overlay tier), pinning each epoch as it lands.
    let mut pins = vec![store.pin()];
    let r1 = store
        .apply(&[insert(3, n - 5), insert(n / 2, 9)])
        .expect("pure-insert publish");
    assert!(!r1.no_op);
    pins.push(store.pin());
    let (du, dv) = some_edge(pins[1].ctx().graph());
    let r2 = store
        .apply(&[
            GraphUpdate::DeleteEdge { from: du, to: dv },
            insert(7, n - 2),
        ])
        .expect("mixed publish");
    assert!(!r2.no_op);
    pins.push(store.pin());
    assert_eq!(pins.last().unwrap().id(), EpochId(2));

    for pin in &pins {
        let ctx = pin.ctx();
        let fresh = EngineCtx::with_default_oracle(Arc::clone(ctx.graph()));
        let qs = generated_questions(ctx.graph(), fresh.oracle(), 2);
        assert!(!qs.is_empty(), "no questions for {}", pin.id());
        for wq in &qs {
            for algo in ALGORITHMS {
                for &t in &THREAD_COUNTS {
                    let cfg = algo.apply_to(config(t));
                    let a = WqeEngine::try_new(ctx.clone(), wq.clone(), cfg.clone())
                        .expect("pinned engine")
                        .try_run(algo)
                        .expect("pinned run");
                    let b = WqeEngine::try_new(fresh.clone(), wq.clone(), cfg)
                        .expect("fresh engine")
                        .try_run(algo)
                        .expect("fresh run");
                    assert_eq!(
                        fingerprint(&a),
                        fingerprint(&b),
                        "{algo:?} at parallelism {t} diverged on {}",
                        pin.id()
                    );
                }
            }
        }
    }
}

/// Concurrent writers must be invisible to pinned readers: queries pinned
/// to epoch 0 keep answering bit-identically to the pre-publish baseline
/// while a writer thread publishes batch after batch mid-query.
#[test]
fn pinned_queries_are_stable_under_concurrent_publishes() {
    let graph = synth_graph();
    let n = graph.node_count() as u32;
    let store = Arc::new(GraphStore::new(Arc::clone(&graph)));
    let service = QueryService::with_store(
        Arc::clone(&store),
        ServiceConfig {
            max_inflight: 2,
            queue_cap: 64,
            base_config: config(2),
            ..Default::default()
        },
    );
    // Hold epoch 0 live for the whole test.
    let pin0 = store.pin();
    assert_eq!(pin0.id(), EpochId(0));

    let fresh = EngineCtx::with_default_oracle(Arc::clone(&graph));
    let wq = generated_questions(&graph, fresh.oracle(), 1)
        .pop()
        .expect("a question");
    let baseline = fingerprint(
        &WqeEngine::try_new(fresh, wq.clone(), config(2))
            .expect("baseline engine")
            .try_run(Algorithm::AnsW)
            .expect("baseline run"),
    );

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writer = {
        let store = Arc::clone(&store);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut i = 0u32;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let batch = [insert(i % n, (i * 31 + 13) % n)];
                store.apply(&batch).expect("writer publish");
                i += 1;
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            i
        })
    };

    for round in 0..10 {
        let req = QueryRequest::new(wq.clone(), Algorithm::AnsW).with_epoch(EpochId(0));
        let resp = service.call(req);
        let report = resp
            .report()
            .unwrap_or_else(|| panic!("round {round}: pinned query failed: {:?}", resp.status));
        assert_eq!(
            fingerprint(report),
            baseline,
            "round {round}: a concurrent publish leaked into a pinned query"
        );
        // Unpinned queries ride the moving head and must still complete.
        let head = service.call(QueryRequest::new(wq.clone(), Algorithm::AnsW));
        assert!(
            head.report().is_some(),
            "round {round}: head query failed: {:?}",
            head.status
        );
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let published = writer.join().expect("writer thread");
    assert!(published > 0, "writer never published");
    drop(service);

    // Epoch 0 was only live because we pinned it: dropping the last pin
    // retires it, and late arrivals asking for it are told so.
    let service = QueryService::with_store(
        Arc::clone(&store),
        ServiceConfig {
            max_inflight: 1,
            queue_cap: 8,
            base_config: config(1),
            ..Default::default()
        },
    );
    drop(pin0);
    let resp = service.call(QueryRequest::new(wq, Algorithm::AnsW).with_epoch(EpochId(0)));
    match &resp.status {
        wqe::core::QueryStatus::Failed { error } => {
            assert!(error.to_string().contains("not live"), "{error}");
        }
        other => panic!("retired epoch should fail the request, got {other:?}"),
    }
}

/// Answer-cache maintenance is keyed by footprint, not a wholesale flush:
/// a publish touching only an attribute the question never reads carries
/// the entry into the new epoch (still a hit, zero evictions); a publish
/// touching an attribute the question *does* read evicts exactly then.
#[test]
fn answer_cache_invalidation_is_keyed_by_footprint() {
    let graph = synth_graph();
    let store = Arc::new(GraphStore::new(Arc::clone(&graph)));
    let service = QueryService::with_store(
        Arc::clone(&store),
        ServiceConfig {
            max_inflight: 1,
            queue_cap: 16,
            base_config: config(1),
            ..Default::default()
        },
    );
    let fresh = EngineCtx::with_default_oracle(Arc::clone(&graph));
    let wq = generated_questions(&graph, fresh.oracle(), 1)
        .pop()
        .expect("a question");
    // An attribute the question's footprint covers (exemplar tuples always
    // carry at least one cell), and a node to mutate.
    let used_attr = wq
        .exemplar
        .tuples
        .first()
        .and_then(|t| t.cells.keys().next().copied())
        .expect("exemplar has a cell");
    let used_attr_name = graph.schema().attr_name(used_attr).to_string();
    let victim = graph.node_ids().next().expect("a node");

    let call = |wq: &WhyQuestion| service.call(QueryRequest::new(wq.clone(), Algorithm::AnsW));
    let hits = || service.stats().counters.answer_cache_hits;
    let evictions = || service.stats().counters.answer_cache_evictions;

    // Prime, then hit, at epoch 0.
    assert!(call(&wq).report().is_some());
    assert!(call(&wq).report().is_some());
    assert_eq!(hits(), 1, "second identical call must hit");

    // Publish an attr-only delta on a brand-new attribute: outside every
    // footprint, so the entry is carried — the next call still hits.
    let r = store
        .apply(&[GraphUpdate::SetAttr {
            node: victim,
            attr: "UnrelatedTelemetry".into(),
            value: Some(AttrValue::Int(1)),
        }])
        .expect("unrelated publish");
    assert!(!r.no_op && !r.delta.topology_changed());
    assert!(call(&wq).report().is_some());
    assert_eq!(hits(), 2, "unrelated publish must not evict");
    assert_eq!(evictions(), 0);

    // Publish a change to an attribute the question reads: keyed eviction
    // fires, and the next call recomputes.
    let r = store
        .apply(&[GraphUpdate::SetAttr {
            node: victim,
            attr: used_attr_name,
            value: Some(AttrValue::Str("mutated".into())),
        }])
        .expect("related publish");
    assert!(!r.no_op && !r.delta.topology_changed());
    assert!(evictions() >= 1, "related publish must evict the entry");
    assert!(call(&wq).report().is_some());
    assert_eq!(hits(), 2, "evicted entry cannot hit");
}

/// One answer cache per head epoch: a publish moves the carried answers
/// into the new head's cache instead of copying them beside the old ones,
/// so the cache holds each question once however many publishes pass. A
/// request pinned to a superseded epoch is answered without the cache.
#[test]
fn carried_answers_move_into_the_head_epoch_cache() {
    let graph = synth_graph();
    let store = Arc::new(GraphStore::new(Arc::clone(&graph)));
    let service = QueryService::with_store(
        Arc::clone(&store),
        ServiceConfig {
            max_inflight: 1,
            queue_cap: 16,
            base_config: config(1),
            ..Default::default()
        },
    );
    let fresh = EngineCtx::with_default_oracle(Arc::clone(&graph));
    let qs = generated_questions(&graph, fresh.oracle(), 3);
    assert!(qs.len() >= 2, "need several distinct questions");
    let call = |wq: &WhyQuestion| service.call(QueryRequest::new(wq.clone(), Algorithm::AnsW));
    for wq in &qs {
        assert!(!call(wq).cache_hit(), "first ask must compute");
    }
    assert_eq!(service.stats().cache_len, qs.len());

    let pin0 = store.pin();
    let victim = graph.node_ids().next().expect("a node");
    for k in 0..3 {
        let r = store
            .apply(&[GraphUpdate::SetAttr {
                node: victim,
                attr: "UnrelatedTelemetry".into(),
                value: Some(AttrValue::Int(k)),
            }])
            .expect("unrelated publish");
        assert!(!r.no_op && !r.delta.topology_changed());
        assert_eq!(
            service.stats().cache_len,
            qs.len(),
            "publish {k} must carry every answer once"
        );
        for wq in &qs {
            assert!(call(wq).cache_hit(), "publish {k}: carried answer missed");
        }
    }

    // Epoch 0 is superseded but still pinned: answered uncached, exactly
    // as a fresh context over its graph answers.
    let wq = &qs[0];
    let pinned = service.call(QueryRequest::new(wq.clone(), Algorithm::AnsW).with_epoch(pin0.id()));
    assert!(!pinned.cache_hit());
    let expected = WqeEngine::try_new(fresh, wq.clone(), Algorithm::AnsW.apply_to(config(1)))
        .expect("fresh engine")
        .try_run(Algorithm::AnsW)
        .expect("fresh run");
    let report = pinned.report().expect("pinned request answers");
    assert_eq!(fingerprint(report), fingerprint(&expected));
    assert_eq!(service.stats().cache_len, qs.len());
}

/// The per-epoch star cache is maintained the same way: carried across an
/// unrelated publish (head sessions keep their hit rate), evicted by a
/// topology change.
#[test]
fn star_cache_carries_across_unrelated_publishes() {
    let graph = synth_graph();
    let store = GraphStore::new(Arc::clone(&graph));
    let pin0 = store.pin();
    let fresh = EngineCtx::with_default_oracle(Arc::clone(&graph));
    let wq = generated_questions(&graph, fresh.oracle(), 1)
        .pop()
        .expect("a question");

    // Warm epoch 0's star cache.
    let star_counters = |ctx: &EngineCtx| {
        let report = WqeEngine::try_new(ctx.clone(), wq.clone(), config(1))
            .expect("engine")
            .try_run(Algorithm::AnsW)
            .expect("run");
        report.profile.expect("every run is profiled").counters
    };
    let warm = star_counters(pin0.ctx());
    assert!(
        warm.cache_misses > 0,
        "warm run must populate the star cache"
    );

    // An attr-only publish on a fresh attribute evicts nothing: the new
    // epoch's cache starts with every entry carried over.
    let r = store
        .apply(&[GraphUpdate::SetAttr {
            node: graph.node_ids().next().unwrap(),
            attr: "UnrelatedTelemetry".into(),
            value: Some(AttrValue::Int(7)),
        }])
        .expect("unrelated publish");
    assert_eq!(r.star_evicted, 0, "unrelated attr must not evict stars");

    // Same star tables requested at the new head: all hits, no recompute.
    let carried = star_counters(store.pin().ctx());
    assert_eq!(
        carried.cache_misses, 0,
        "carried star entries must serve without recompute"
    );
    assert!(carried.cache_hits > 0);

    // A topology change flushes: the next epoch's cache recomputes.
    let n = graph.node_count() as u32;
    let r = store.apply(&[insert(1, n - 3)]).expect("topology publish");
    assert!(r.star_evicted > 0, "topology change must evict stars");
}
