//! Verification of focus candidates against full valuations.
//!
//! Procedure `Match` (§5.2) computes `Q(G)` over star tables as materialized
//! views: each focus candidate admitted by the views is verified by a
//! backtracking search for an *injective* valuation `h` with
//! `dist(h(u), h(u')) <= L_Q(e)` for every pattern edge, and the
//! verification of a candidate stops as soon as one valuation is found
//! (the Threshold-Algorithm-style early exit the paper describes).
//!
//! ## The join probes the stars
//!
//! [`star::decompose`](super::star::decompose) makes star `i` from pattern
//! edge `i`, and its table lists, per center, every leaf candidate within
//! the edge's bound. So the join computes no distance: an edge constraint
//! between two placed nodes is answered by [`StarTable::admits`] on that
//! edge's table, two binary searches. This agrees with the distance for
//! every value the join sees, because the domains it walks are subsets of
//! each star's live centers and leaves, and injectivity keeps the two
//! endpoints apart.
//!
//! Placing pattern node `u` walks its domain value by value in domain
//! order, charging each value one step *before* it is looked at. `steps`,
//! the value at which [`Truncated`] fires, and the valuation found are
//! pinned against the oracle join of `naive_evaluate` in
//! `matcher/proptests.rs`.

use super::star::StarTable;
use crate::pattern::{PatternQuery, QNodeId};
use std::collections::{HashMap, HashSet, VecDeque};
use wqe_graph::NodeId;

/// One witness valuation `h : V_Q -> V`.
pub type Valuation = HashMap<QNodeId, NodeId>;

/// Search exhausted its step budget; the candidate's status is unknown and
/// reported as a non-match with `truncated = true` on the outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truncated;

/// An assignment order: pattern nodes BFS-ordered from the focus so every
/// node (in a connected query) has an already-assigned neighbor when it is
/// placed.
pub fn assignment_order(q: &PatternQuery) -> Vec<QNodeId> {
    let mut order = Vec::with_capacity(q.node_count());
    let mut seen = HashSet::new();
    let mut queue = VecDeque::new();
    seen.insert(q.focus());
    queue.push_back(q.focus());
    while let Some(u) = queue.pop_front() {
        order.push(u);
        let mut nbrs: Vec<QNodeId> = q.neighbors(u).into_iter().map(|(w, _)| w).collect();
        nbrs.sort();
        for w in nbrs {
            if seen.insert(w) {
                queue.push_back(w);
            }
        }
    }
    // Disconnected leftovers (shouldn't happen for valid queries) go last.
    for u in q.node_ids() {
        if seen.insert(u) {
            order.push(u);
        }
    }
    order
}

/// Tries to extend `focus -> focus_match` to a full injective valuation.
///
/// `domains` restricts each pattern node to the nodes admitted by the star
/// tables (an over-approximation of its true matches); `tables[i]` is the
/// table of star `i` of [`star::decompose`](super::star::decompose), the
/// star of pattern edge `i`, and every domain value must be a live center
/// or leaf of the stars of its node. `steps` is a decrementing budget;
/// exhaustion aborts with [`Truncated`].
pub fn verify_candidate(
    q: &PatternQuery,
    order: &[QNodeId],
    domains: &HashMap<QNodeId, Vec<NodeId>>,
    tables: &[StarTable],
    focus_match: NodeId,
    steps: &mut usize,
) -> Result<Option<Valuation>, Truncated> {
    assert_eq!(tables.len(), q.edge_count(), "one star table per edge");
    let depth_of = |u: QNodeId| order.iter().position(|&w| w == u);
    // Per depth: the domain walked and the edges to shallower placements.
    let levels: Vec<Level<'_>> = order
        .iter()
        .enumerate()
        .map(|(depth, &u)| Level {
            domain: domains.get(&u).map_or(&[][..], Vec::as_slice),
            probes: q
                .edges()
                .iter()
                .zip(tables)
                .filter_map(|(e, table)| {
                    let other = match (e.from == u, e.to == u) {
                        (true, _) => e.to,
                        (_, true) => e.from,
                        _ => return None,
                    };
                    let other = depth_of(other).filter(|&d| d < depth)?;
                    Some(Probe {
                        table,
                        other,
                        placed_is_center: table.star.center == u,
                    })
                })
                .collect(),
        })
        .collect();
    let mut placed = Vec::with_capacity(order.len());
    placed.push(focus_match);
    if !backtrack(&levels, &mut placed, steps)? {
        return Ok(None);
    }
    Ok(Some(order.iter().copied().zip(placed).collect()))
}

/// What placing the pattern node at one depth of the order looks at.
struct Level<'a> {
    domain: &'a [NodeId],
    probes: Vec<Probe<'a>>,
}

/// One edge constraint against an earlier placement: the edge's star
/// table, the depth of the other endpoint, and which end is the center.
struct Probe<'a> {
    table: &'a StarTable,
    other: usize,
    placed_is_center: bool,
}

/// Places `levels[placed.len()..]`; `placed[d]` is the image of the
/// pattern node at depth `d`.
fn backtrack(
    levels: &[Level<'_>],
    placed: &mut Vec<NodeId>,
    steps: &mut usize,
) -> Result<bool, Truncated> {
    let Some(level) = levels.get(placed.len()) else {
        return Ok(true);
    };
    for &v in level.domain {
        if *steps == 0 {
            return Err(Truncated);
        }
        *steps -= 1;
        if placed.contains(&v) {
            continue;
        }
        let fits = level.probes.iter().all(|p| {
            let other = placed[p.other];
            if p.placed_is_center {
                p.table.admits(v, 0, other)
            } else {
                p.table.admits(other, 0, v)
            }
        });
        if !fits {
            continue;
        }
        placed.push(v);
        if backtrack(levels, placed, steps)? {
            return Ok(true);
        }
        placed.pop();
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::Matcher;
    use std::sync::Arc;
    use wqe_graph::{Graph, GraphBuilder};
    use wqe_index::PllIndex;

    /// Verifies `v` on the matcher's own tables and support domains.
    fn verify(
        g: &Graph,
        q: &PatternQuery,
        v: NodeId,
        steps: &mut usize,
    ) -> Result<Option<Valuation>, Truncated> {
        let m = Matcher::new(Arc::new(g.clone()), Arc::new(PllIndex::build(g)));
        let (tables, domains) = m.plan(q);
        verify_candidate(q, &assignment_order(q), &domains, &tables, v, steps)
    }

    /// Triangle data graph, query path a->b->c: injectivity must hold.
    #[test]
    fn injectivity_enforced() {
        let mut b = GraphBuilder::new();
        let x = b.add_node("A", []);
        let y = b.add_node("B", []);
        b.add_edge(x, y, "e");
        b.add_edge(y, x, "e");
        let g = b.finalize();

        let s = g.schema();
        // Query: A -> B -> A' (two distinct A-nodes required).
        let mut q = PatternQuery::new(s.label_id("A"), 2);
        let ub = q.add_node(s.label_id("B"));
        let ua2 = q.add_node(s.label_id("A"));
        q.add_edge(q.focus(), ub, 1).unwrap();
        q.add_edge(ub, ua2, 1).unwrap();

        let mut steps = 10_000;
        // Only one A exists; ua2 would need to reuse x => no valuation.
        let r = verify(&g, &q, x, &mut steps).unwrap();
        assert!(r.is_none(), "injectivity must reject reusing x");
    }

    #[test]
    fn finds_valuation_on_path() {
        let mut b = GraphBuilder::new();
        let x = b.add_node("A", []);
        let y = b.add_node("B", []);
        let z = b.add_node("C", []);
        b.add_edge(x, y, "e");
        b.add_edge(y, z, "e");
        let g = b.finalize();
        let s = g.schema();
        let mut q = PatternQuery::new(s.label_id("A"), 2);
        let uc = q.add_node(s.label_id("C"));
        q.add_edge(q.focus(), uc, 2).unwrap();
        let mut steps = 1000;
        let r = verify(&g, &q, x, &mut steps)
            .unwrap()
            .expect("x reaches z within 2");
        assert_eq!(r[&uc], z);
    }

    #[test]
    fn truncation_signals() {
        // Another A reaches 50 Bs with a C each, so the B domain holds 50
        // values the focus x does not reach before the one it does.
        let mut b = GraphBuilder::new();
        let x = b.add_node("A", []);
        let other = b.add_node("A", []);
        let c = b.add_node("C", []);
        for _ in 0..50 {
            let w = b.add_node("B", []);
            b.add_edge(other, w, "e");
            b.add_edge(w, c, "e");
        }
        let y = b.add_node("B", []);
        b.add_edge(x, y, "e");
        b.add_edge(y, c, "e");
        let g = b.finalize();
        let s = g.schema();
        let mut q = PatternQuery::new(s.label_id("A"), 2);
        let ub = q.add_node(s.label_id("B"));
        let uc = q.add_node(s.label_id("C"));
        q.add_edge(q.focus(), ub, 1).unwrap();
        q.add_edge(ub, uc, 1).unwrap();
        let mut steps = 5; // tiny budget
        assert_eq!(verify(&g, &q, x, &mut steps), Err(Truncated));
        let mut steps = 1000;
        let h = verify(&g, &q, x, &mut steps).unwrap().expect("x -> y -> c");
        assert_eq!((h[&ub], h[&uc]), (y, c));
        assert_eq!(1000 - steps, 52, "50 misses, then y, then c");
    }

    #[test]
    fn order_starts_at_focus_and_follows_bfs() {
        let mut q = PatternQuery::new(None, 2);
        let a = q.add_node(None);
        let b = q.add_node(None);
        q.add_edge(q.focus(), a, 1).unwrap();
        q.add_edge(a, b, 1).unwrap();
        let order = assignment_order(&q);
        assert_eq!(order[0], q.focus());
        assert_eq!(order, vec![q.focus(), a, b]);
    }
}
