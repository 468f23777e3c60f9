//! Property tests for the star-view matcher: equivalence with the naive
//! reference on random attributed graphs, cache transparency across
//! rewrite sequences, and parity of the chunked batch join with its
//! pointwise twin.

use crate::literal::Literal;
use crate::matcher::candidates::node_candidates;
use crate::matcher::{
    assignment_order, naive_evaluate, verify_candidate, Matcher, Truncated, Valuation,
};
use crate::ops::AtomicOp;
use crate::pattern::{PatternQuery, QNodeId};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use wqe_graph::{AttrValue, CmpOp, Graph, GraphBuilder, NodeId};
use wqe_index::{DistanceOracle, PllIndex};

/// The pointwise twin of `join::verify_candidate`: the same backtracking
/// search asking the oracle about one pair at a time, one `within` per
/// constraint per domain value. The reference the batched join must match
/// in result, valuation, and steps left.
fn verify_candidate_pointwise(
    oracle: &dyn DistanceOracle,
    q: &PatternQuery,
    order: &[QNodeId],
    domains: &HashMap<QNodeId, Vec<NodeId>>,
    focus_match: NodeId,
    steps: &mut usize,
) -> Result<Option<Valuation>, Truncated> {
    #[allow(clippy::too_many_arguments)]
    fn backtrack(
        oracle: &dyn DistanceOracle,
        q: &PatternQuery,
        order: &[QNodeId],
        domains: &HashMap<QNodeId, Vec<NodeId>>,
        depth: usize,
        assignment: &mut Valuation,
        used: &mut HashSet<NodeId>,
        steps: &mut usize,
    ) -> Result<bool, Truncated> {
        if depth == order.len() {
            return Ok(true);
        }
        let u = order[depth];
        for &v in domains.get(&u).map_or(&[][..], Vec::as_slice) {
            if *steps == 0 {
                return Err(Truncated);
            }
            *steps -= 1;
            if used.contains(&v) {
                continue;
            }
            let ok = q.edges().iter().all(|e| {
                if e.from == u {
                    assignment
                        .get(&e.to)
                        .is_none_or(|&t| oracle.within(v, t, e.bound))
                } else if e.to == u {
                    assignment
                        .get(&e.from)
                        .is_none_or(|&s| oracle.within(s, v, e.bound))
                } else {
                    true
                }
            });
            if !ok {
                continue;
            }
            assignment.insert(u, v);
            used.insert(v);
            if backtrack(
                oracle,
                q,
                order,
                domains,
                depth + 1,
                assignment,
                used,
                steps,
            )? {
                return Ok(true);
            }
            assignment.remove(&u);
            used.remove(&v);
        }
        Ok(false)
    }
    let mut assignment: Valuation = HashMap::from([(q.focus(), focus_match)]);
    let mut used = HashSet::from([focus_match]);
    Ok(backtrack(
        oracle,
        q,
        order,
        domains,
        1,
        &mut assignment,
        &mut used,
        steps,
    )?
    .then_some(assignment))
}

/// Verifies every focus candidate of `q` through both joins under a sweep
/// of step limits — unlimited, then every limit around and below the work
/// the candidate actually needs, so truncation lands on every value of
/// every chunk — and demands the same outcome and the same steps left.
/// Returns how many candidates matched.
fn assert_join_parity(g: &Graph, oracle: &dyn DistanceOracle, q: &PatternQuery) -> usize {
    let order = assignment_order(q);
    let domains: HashMap<QNodeId, Vec<NodeId>> = q
        .node_ids()
        .map(|u| (u, node_candidates(g, q, u)))
        .collect();
    let mut matched = 0;
    for &v in &domains[&q.focus()] {
        let run = |limit: usize| {
            let (mut batched, mut pointwise) = (limit, limit);
            let got = verify_candidate(g, oracle, q, &order, &domains, v, &mut batched);
            let want = verify_candidate_pointwise(oracle, q, &order, &domains, v, &mut pointwise);
            assert_eq!(got, want, "focus {v:?}, step limit {limit}");
            assert_eq!(batched, pointwise, "steps left, focus {v:?}, limit {limit}");
            (got, limit - batched)
        };
        let (full, needed) = run(usize::MAX);
        matched += usize::from(matches!(full, Ok(Some(_))));
        let sweep = needed.saturating_sub(70)..=needed + 1;
        for limit in (0..needed.min(70)).chain(sweep) {
            let (got, _) = run(limit);
            assert_eq!(
                got == Err(Truncated),
                limit < needed,
                "limit {limit} of {needed}"
            );
        }
    }
    matched
}

/// Domains several chunks long (8, then 16, then 32 values), an
/// injectivity conflict in the middle of a chunk, a witness in a late
/// chunk, and a step limit landing on every position of all of them.
#[test]
fn batched_join_equals_pointwise_across_chunk_boundaries() {
    let mut b = GraphBuilder::new();
    let a: Vec<_> = (0..40).map(|_| b.add_node("A", [])).collect();
    let hub = b.add_node("B", []);
    for &x in &a {
        b.add_edge(x, hub, "e");
    }
    // Only the A-nodes from position 30 on are reachable *from* the hub,
    // so the second A of the pattern finds its witness in the third chunk.
    for &x in &a[30..] {
        b.add_edge(hub, x, "e");
    }
    let c = b.add_node("C", []);
    b.add_edge(a[35], c, "e");
    let g = b.finalize();
    let oracle = PllIndex::build(&g);
    let s = g.schema();

    // A -> B -> A': A' ranges over all 40 A-nodes, one of them used.
    let mut q = PatternQuery::new(s.label_id("A"), 2);
    let ub = q.add_node(s.label_id("B"));
    let ua2 = q.add_node(s.label_id("A"));
    q.add_edge(q.focus(), ub, 1).unwrap();
    q.add_edge(ub, ua2, 1).unwrap();
    // Every focus matches (a[30] itself is used when it is the focus, so
    // its witness is a[31]: the conflict sits inside the chunk).
    assert_eq!(assert_join_parity(&g, &oracle, &q), 40);

    // A -> B -> A' -> C: two constraints meet on A' only after C is placed
    // last; only a[35] has a C, so the search backtracks across chunks.
    let uc = q.add_node(s.label_id("C"));
    q.add_edge(ua2, uc, 1).unwrap();
    assert_eq!(assert_join_parity(&g, &oracle, &q), 39);
}

fn matcher_for(g: &Graph) -> Matcher {
    let graph = Arc::new(g.clone());
    let oracle: Arc<dyn DistanceOracle> = Arc::new(PllIndex::build(g));
    Matcher::new(graph, oracle)
}

/// A random attributed digraph: `n` nodes over 3 labels with one numeric
/// attribute `x` in 0..20, plus random edges.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (4usize..16).prop_flat_map(|n| {
        (
            proptest::collection::vec((0..n, 0..n), 2..(n * 2)),
            proptest::collection::vec(0u8..3, n),
            proptest::collection::vec(0i64..20, n),
        )
            .prop_map(move |(edges, labels, xs)| {
                let mut b = GraphBuilder::new();
                let ids: Vec<_> = (0..n)
                    .map(|i| b.add_node(&format!("L{}", labels[i]), [("x", AttrValue::Int(xs[i]))]))
                    .collect();
                for (u, v) in edges {
                    if u != v {
                        b.add_edge(ids[u], ids[v], "e");
                    }
                }
                b.finalize()
            })
    })
}

/// A random query over the graph's schema: 1–3 edges with bounds 1–2,
/// random labels, and numeric literals on random nodes.
fn arb_query(g: &Graph) -> impl Strategy<Value = PatternQuery> {
    let label_count = g.schema().label_count() as u32;
    let x = g.schema().attr_id("x").expect("x attr");
    (
        proptest::collection::vec((0u32..label_count, 1u32..3), 1..4),
        proptest::collection::vec((0usize..4, 0u8..5, 0i64..20), 0..4),
        0u32..label_count,
    )
        .prop_map(move |(spokes, lits, focus_label)| {
            let mut q = PatternQuery::new(Some(wqe_graph::LabelId(focus_label)), 2);
            let mut nodes = vec![q.focus()];
            for (i, &(label, bound)) in spokes.iter().enumerate() {
                let new = q.add_node(Some(wqe_graph::LabelId(label)));
                // Alternate directions and attachment points.
                let anchor = nodes[i % nodes.len()];
                if i % 2 == 0 {
                    let _ = q.add_edge(anchor, new, bound);
                } else {
                    let _ = q.add_edge(new, anchor, bound);
                }
                nodes.push(new);
            }
            for (node_ix, op_ix, c) in lits {
                let u = nodes[node_ix % nodes.len()];
                let op = CmpOp::ALL[op_ix as usize % 5];
                let _ = q.add_literal(u, Literal::new(x, op, c));
            }
            q
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The star-view matcher agrees with the naive reference on arbitrary
    /// graphs, bounds, and literal sets.
    #[test]
    fn star_matcher_equals_naive((g, q) in arb_graph().prop_flat_map(|g| {
        let q = arb_query(&g);
        (Just(g), q)
    })) {
        let oracle = PllIndex::build(&g);
        let matcher = matcher_for(&g);
        let ours = matcher.evaluate(&q);
        let reference = naive_evaluate(&g, &oracle, &q);
        prop_assert!(!ours.truncated);
        prop_assert_eq!(ours.matches, reference, "query:\n{}", q.display(g.schema()));
    }

    /// The chunked batch join and its pointwise twin agree on outcome,
    /// valuation, and steps consumed for every focus candidate at every
    /// step limit, on arbitrary graphs and queries (same-label pattern
    /// nodes make `used` conflicts routine here).
    #[test]
    fn batched_join_equals_pointwise((g, q) in arb_graph().prop_flat_map(|g| {
        let q = arb_query(&g);
        (Just(g), q)
    })) {
        assert_join_parity(&g, &PllIndex::build(&g), &q);
    }

    /// Cache transparency: a matcher that has evaluated *other* rewrites
    /// first returns exactly what a fresh matcher returns.
    #[test]
    fn cache_is_transparent((g, q) in arb_graph().prop_flat_map(|g| {
        let q = arb_query(&g);
        (Just(g), q)
    })) {
        let warm = matcher_for(&g);
        // Warm the cache with literal rewrites of the query.
        let x = g.schema().attr_id("x").expect("x");
        let focus = q.focus();
        for c in [0i64, 5, 10, 15] {
            let mut variant = q.clone();
            let _ = variant.add_literal(focus, Literal::new(x, CmpOp::Ge, c));
            warm.evaluate(&variant);
        }
        // Also evaluate edge-modified variants.
        if let Some(e) = q.edges().first().copied() {
            let mut variant = q.clone();
            let _ = variant.remove_edge(e.from, e.to);
            warm.evaluate(&variant);
        }
        let from_warm = warm.evaluate(&q).matches;
        let fresh = matcher_for(&g).evaluate(&q).matches;
        prop_assert_eq!(from_warm, fresh);
    }

    /// Applying a relaxation never shrinks and a refinement never grows
    /// the answer, evaluated through the production matcher.
    #[test]
    fn operator_classes_are_monotone((g, q) in arb_graph().prop_flat_map(|g| {
        let q = arb_query(&g);
        (Just(g), q)
    })) {
        let matcher = matcher_for(&g);
        let before: std::collections::HashSet<_> =
            matcher.evaluate(&q).matches.into_iter().collect();
        let x = g.schema().attr_id("x").expect("x");
        let focus = q.focus();

        // A refinement: add a literal.
        let mut refined = q.clone();
        let add = AtomicOp::AddL {
            node: focus,
            lit: Literal::new(x, CmpOp::Ge, 10),
        };
        if add.apply(&mut refined).is_ok() {
            let after: std::collections::HashSet<_> =
                matcher.evaluate(&refined).matches.into_iter().collect();
            prop_assert!(after.is_subset(&before));
        }

        // A relaxation: remove the first literal of the focus.
        if let Some(lit) = q.node(focus).and_then(|n| n.literals.first().cloned()) {
            let mut relaxed = q.clone();
            AtomicOp::RmL { node: focus, lit }.apply(&mut relaxed).expect("applicable");
            let after: std::collections::HashSet<_> =
                matcher.evaluate(&relaxed).matches.into_iter().collect();
            prop_assert!(before.is_subset(&after));
        }

        // A relaxation: grow the first edge's bound.
        if let Some(e) = q.edges().iter().find(|e| e.bound < q.max_bound()).copied() {
            let mut relaxed = q.clone();
            AtomicOp::RxE {
                from: e.from,
                to: e.to,
                old_bound: e.bound,
                new_bound: e.bound + 1,
            }
            .apply(&mut relaxed)
            .expect("applicable");
            let after: std::collections::HashSet<_> =
                matcher.evaluate(&relaxed).matches.into_iter().collect();
            prop_assert!(before.is_subset(&after));
        }
    }
}
