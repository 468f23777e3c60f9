//! Property tests for `NextOp`'s bookkeeping: the production `next_ops`
//! (sorted-key `AddNodeEdge`, keys built once, merge-walk relevance sets)
//! against a reference that keeps hash-map label coverage, a sort that
//! formats both operators in every comparison, and the `O(|V_uo|)`
//! relevance classification; and the session's label-key memo against the
//! graph's radius-2 bounded BFS.

use crate::chase::Phase;
use crate::ctx::EngineCtx;
use crate::exemplar::Representation;
use crate::opsgen::{generate_refinements, generate_relaxations, next_ops, ScoredOp};
use crate::relevance::RelevanceSets;
use crate::session::{EvalResult, Session, WhyQuestion, WqeConfig};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use wqe_datagen::{
    dbpedia_like, generate_query, generate_why, imdb_like, QueryGenConfig, TopologyKind,
    WhyGenConfig,
};
use wqe_graph::{Graph, LabelId, NodeId};
use wqe_index::{DistanceOracle, Oracle};
use wqe_query::{AtomicOp, OpClass, PatternQuery};

/// The relevance sets by one pass over `V_uo`, testing each member
/// against a hash set of the answers; IC alongside.
fn reference_classify(
    answers: &[NodeId],
    rep: &Representation,
    v_uo: &[NodeId],
) -> (RelevanceSets, Vec<NodeId>) {
    let matched: HashSet<NodeId> = answers.iter().copied().collect();
    let mut sets = RelevanceSets::default();
    let mut ic = Vec::new();
    for &v in answers {
        if rep.contains(v) {
            sets.rm.push(v);
        } else {
            sets.im.push(v);
        }
    }
    for &v in v_uo {
        if matched.contains(&v) {
            continue;
        }
        if rep.contains(v) {
            sets.rc.push(v);
        } else {
            ic.push(v);
        }
    }
    sets.rm.sort();
    sets.im.sort();
    sets.rc.sort();
    ic.sort();
    (sets, ic)
}

/// `AddNodeEdge` by RM/IM coverage per `(label, distance, direction)` key,
/// collected in hash maps from two bounded BFS runs per member.
fn reference_add_node_edge(
    session: &Session,
    q: &PatternQuery,
    eval: &EvalResult,
) -> Vec<ScoredOp> {
    type Coverage = HashMap<(u32, u32, bool), (HashSet<NodeId>, HashSet<NodeId>)>;
    let g = session.graph();
    let sample = session.config.relevance_sample;
    let lambda = session.config.closeness.lambda;
    let v_uo = session.v_uo.len().max(1) as f64;
    let rm: Vec<NodeId> = eval.relevance.rm.iter().copied().take(sample).collect();
    let im: Vec<NodeId> = eval.relevance.im.iter().copied().take(sample).collect();
    let mut cov: Coverage = HashMap::new();
    for (members, is_rm) in [(&rm, true), (&im, false)] {
        for &m in members {
            for (reach, outgoing) in [
                (g.bounded_bfs(m, 2), true),
                (g.bounded_bfs_rev(m, 2), false),
            ] {
                let mut seen = HashSet::new();
                for (w, d) in reach {
                    let key = (g.label(w).0, d, outgoing);
                    if d == 0 || !seen.insert(key) {
                        continue;
                    }
                    let entry = cov.entry(key).or_default();
                    if is_rm {
                        entry.0.insert(m);
                    } else {
                        entry.1.insert(m);
                    }
                }
            }
        }
    }
    let mut ops = Vec::new();
    for ((label, d, outgoing), (rm_cov, im_cov)) in &cov {
        if rm_cov.len() < rm.len() || im_cov.len() >= im.len() || *d > q.max_bound() {
            continue;
        }
        let killed: Vec<NodeId> = im.iter().copied().filter(|m| !im_cov.contains(m)).collect();
        ops.push(ScoredOp {
            op: AtomicOp::AddNodeEdge {
                anchor: q.focus(),
                label: Some(LabelId(*label)),
                bound: *d,
                outgoing: *outgoing,
            },
            pickiness: (lambda * killed.len() as f64) / v_uo,
            affected: killed,
        });
    }
    ops.retain(|s| s.op.applicable(q).is_ok());
    ops
}

/// `next_ops` as the reference computes it: the production generators
/// with `AddNodeEdge` swapped for [`reference_add_node_edge`], a
/// hash-set dedupe, and a sort formatting both operators per comparison.
fn reference_next_ops(
    session: &Session,
    q: &PatternQuery,
    eval: &EvalResult,
    phase: Phase,
    best_closeness: f64,
) -> Vec<ScoredOp> {
    let pruning = session.config.pruning;
    let mut out: Vec<ScoredOp> = Vec::new();
    let mut seen: HashSet<String> = HashSet::new();
    let refine_cond =
        !eval.relevance.im.is_empty() && (!pruning || eval.upper_bound > best_closeness + 1e-12);
    if refine_cond {
        let refinements = generate_refinements(session, q, eval)
            .into_iter()
            .filter(|s| !matches!(s.op, AtomicOp::AddNodeEdge { .. }))
            .chain(reference_add_node_edge(session, q, eval));
        for sop in refinements {
            if seen.insert(format!("{:?}", sop.op)) {
                out.push(sop);
            }
        }
    }
    let relax_cond =
        phase == Phase::Relax && (!pruning || eval.upper_bound < session.cl_star - 1e-12);
    if relax_cond && !eval.relevance.rc.is_empty() {
        for sop in generate_relaxations(session, q, eval) {
            if seen.insert(format!("{:?}", sop.op)) {
                out.push(sop);
            }
        }
    }
    out.sort_by(|a, b| {
        b.pickiness
            .total_cmp(&a.pickiness)
            .then_with(|| format!("{:?}", a.op).cmp(&format!("{:?}", b.op)))
    });
    out
}

/// What a caller can observe of a generated operator list.
fn observed(ops: &[ScoredOp]) -> Vec<(String, u64, Vec<NodeId>)> {
    ops.iter()
        .map(|s| {
            (
                format!("{:?}", s.op),
                s.pickiness.to_bits(),
                s.affected.clone(),
            )
        })
        .collect()
}

/// A generated why-question with its session, on a small synthetic graph.
fn generated_session(
    imdb: bool,
    seed: u64,
    topology: TopologyKind,
) -> Option<(Session, PatternQuery)> {
    let graph = Arc::new(if imdb {
        imdb_like(0.012, seed)
    } else {
        dbpedia_like(0.008, seed)
    });
    let oracle: Arc<dyn DistanceOracle> = Arc::new(Oracle::build(&graph));
    let qcfg = QueryGenConfig {
        edges: 2 + (seed % 2) as usize,
        seed,
        topology,
        ..Default::default()
    };
    let truth = generate_query(&graph, &qcfg)?;
    let wcfg = WhyGenConfig {
        seed: seed * 13 + 1,
        ..Default::default()
    };
    let why = generate_why(&graph, &oracle, &truth, &wcfg)?;
    let config = WqeConfig {
        parallelism: 1,
        ..Default::default()
    };
    // The generator's `WhyQuestion` is the one of the `wqe-core` it links;
    // it crosses into this crate's through its serde form.
    let question: WhyQuestion = serde_json::from_value(serde_json::to_value(&why.question)).ok()?;
    let session = Session::new(EngineCtx::new(graph, oracle), &question, config);
    Some((session, question.query))
}

/// Checks production against reference at one chase state; returns the
/// production operators.
fn assert_same_ops(
    session: &Session,
    q: &PatternQuery,
    phase: Phase,
    best: f64,
) -> Result<Vec<ScoredOp>, TestCaseError> {
    let eval = session.evaluate(q);
    let (sets, ic) = reference_classify(&eval.outcome.matches, &session.rep, &session.v_uo);
    prop_assert_eq!(&eval.relevance, &sets);
    prop_assert_eq!(eval.relevance.ic(&session.v_uo), ic);
    let got = next_ops(session, q, &eval, phase, best);
    let reference_eval = EvalResult {
        relevance: sets,
        ..eval.clone()
    };
    let want = reference_next_ops(session, q, &reference_eval, phase, best);
    prop_assert_eq!(observed(&got), observed(&want));
    Ok(got)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `next_ops` equals the reference — operators, order, pickiness bits
    /// and `affected` — at the root and at up to three children, each
    /// under a missing and a met closeness threshold.
    #[test]
    fn next_ops_equals_the_reference(
        imdb in any::<bool>(),
        seed in 1u64..400,
        topology in prop_oneof![
            Just(TopologyKind::Star),
            Just(TopologyKind::Tree),
            Just(TopologyKind::Cyclic),
        ],
    ) {
        let Some((session, q)) = generated_session(imdb, seed, topology) else {
            return Ok(());
        };
        let root_cl = session.evaluate(&q).closeness;
        let mut states = vec![(q.clone(), Phase::Relax)];
        for sop in assert_same_ops(&session, &q, Phase::Relax, f64::NEG_INFINITY)?.iter().take(3) {
            let mut child = q.clone();
            if sop.op.apply(&mut child).is_ok() {
                let phase = match sop.op.class() {
                    OpClass::Relax => Phase::Relax,
                    OpClass::Refine => Phase::Refine,
                };
                states.push((child, phase));
            }
        }
        for (state, phase) in &states {
            for best in [f64::NEG_INFINITY, root_cl] {
                assert_same_ops(&session, state, *phase, best)?;
            }
        }
    }

    /// `Session::label_keys` holds exactly the `(label, distance,
    /// direction)` keys of the radius-2 `bounded_bfs` / `bounded_bfs_rev`
    /// sets, sorted and distinct, and a second ask returns the memo.
    #[test]
    fn label_keys_equal_bounded_bfs(seed in 1u64..400, edges in 0usize..60) {
        let graph = random_graph(seed, edges);
        let session = Session::new(
            EngineCtx::with_default_oracle(Arc::new(graph.clone())),
            &WhyQuestion {
                query: PatternQuery::new(None, 2),
                exemplar: crate::exemplar::Exemplar::new(),
            },
            WqeConfig::default(),
        );
        for m in graph.node_ids() {
            let mut want: Vec<(u32, u32, bool)> = Vec::new();
            for (reach, outgoing) in [(graph.bounded_bfs(m, 2), true), (graph.bounded_bfs_rev(m, 2), false)] {
                want.extend(reach.into_iter().filter(|&(_, d)| d > 0).map(|(w, d)| (graph.label(w).0, d, outgoing)));
            }
            want.sort_unstable();
            want.dedup();
            let got = session.label_keys(m);
            prop_assert_eq!(&got[..], &want[..], "node {:?}", m);
            prop_assert!(Arc::ptr_eq(&got, &session.label_keys(m)));
        }
    }
}

/// 12 nodes over 3 labels with `edges` random edges: self-loops and
/// parallel edges included.
fn random_graph(seed: u64, edges: usize) -> Graph {
    let mut b = wqe_graph::GraphBuilder::new();
    let nodes: Vec<NodeId> = (0..12)
        .map(|i| b.add_node(["A", "B", "C"][(i * 7 + seed as usize) % 3], []))
        .collect();
    let mut x = seed;
    let mut next = || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) as usize
    };
    for _ in 0..edges {
        let (u, v) = (nodes[next() % 12], nodes[next() % 12]);
        b.add_edge(u, v, ["e", "f"][next() % 2]);
    }
    b.finalize()
}
