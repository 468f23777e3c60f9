//! Verification of focus candidates against full valuations.
//!
//! Procedure `Match` (§5.2) computes `Q(G)` over star tables as materialized
//! views: each focus candidate admitted by the views is verified by a
//! backtracking search for an *injective* valuation `h` with
//! `dist(h(u), h(u')) <= L_Q(e)` for every pattern edge, and the
//! verification of a candidate stops as soon as one valuation is found
//! (the Threshold-Algorithm-style early exit the paper describes).
//!
//! ## Chunked batch filtering
//!
//! Placing pattern node `u` means testing every value of its domain
//! against the already-placed neighbors of `u`. Each such constraint has
//! one endpoint *fixed* (the neighbor's image) and one varying (the domain
//! value), which is exactly the shape `DistanceOracle::dist_batch` answers
//! from a single rank table instead of one merge-join per pair. So the
//! search never asks about one pair at a time: it takes the domain in
//! chunks, drops values already used (injectivity), and filters the rest
//! through one `dist_batch` per constraint — the first constraint over the
//! whole chunk, later ones over the survivors only, the same short-circuit
//! a per-value `all` performs.
//!
//! Chunks start at [`CHUNK_START`] values and double up to [`CHUNK_CAP`]:
//! the search returns at the first witness, so everything asked about
//! *after* the witness in its chunk is wasted, and a small first chunk
//! bounds that waste where witnesses come early while long fruitless
//! domains still amortize into large batches.
//!
//! Batching moves oracle calls, not search steps: after a chunk is
//! filtered its values are still walked one by one in domain order, each
//! charged one step *before* it is looked at, recursing exactly where the
//! pointwise search would. `steps`, the value at which [`Truncated`]
//! fires, and the valuation found are therefore those of the pointwise
//! search (pinned against a `#[cfg(test)]` pointwise twin in
//! `matcher/proptests.rs`); only the oracle sees a few more pairs (the
//! chunk overshoot).

use crate::pattern::{PatternQuery, QNodeId};
use std::collections::{HashMap, HashSet, VecDeque};
use wqe_graph::{Graph, NodeId};
use wqe_index::DistanceOracle;

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
/// tables (an over-approximation of its true matches). `steps` is a
/// decrementing budget; exhaustion aborts with [`Truncated`].
pub fn verify_candidate<O: DistanceOracle + ?Sized>(
    graph: &Graph,
    oracle: &O,
    q: &PatternQuery,
    order: &[QNodeId],
    domains: &HashMap<QNodeId, Vec<NodeId>>,
    focus_match: NodeId,
    steps: &mut usize,
) -> Result<Option<Valuation>, Truncated> {
    let mut assignment: Valuation = HashMap::with_capacity(order.len());
    assignment.insert(q.focus(), focus_match);
    let mut used: HashSet<NodeId> = HashSet::with_capacity(order.len());
    used.insert(focus_match);
    if order.len() == 1 {
        return Ok(Some(assignment));
    }
    if backtrack(
        graph,
        oracle,
        q,
        order,
        domains,
        1,
        &mut assignment,
        &mut used,
        steps,
    )? {
        Ok(Some(assignment))
    } else {
        Ok(None)
    }
}

/// Domain values filtered per oracle round trip: the first chunk of each
/// domain scan, doubling per chunk up to [`CHUNK_CAP`] (see module docs).
const CHUNK_START: usize = 8;
/// Largest chunk; past this the table load is long amortized and a bigger
/// batch only delays the step-budget check.
const CHUNK_CAP: usize = 256;

#[allow(clippy::too_many_arguments, clippy::only_used_in_recursion)]
fn backtrack<O: DistanceOracle + ?Sized>(
    graph: &Graph,
    oracle: &O,
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
    let domain = domains.get(&u).map_or(&[][..], Vec::as_slice);
    // Constraints against already-assigned neighbors.
    let constraints: Vec<(NodeId, bool, u32)> = q
        .edges()
        .iter()
        .filter_map(|e| {
            if e.from == u {
                assignment.get(&e.to).map(|&t| (t, true, e.bound))
            } else if e.to == u {
                assignment.get(&e.from).map(|&s| (s, false, e.bound))
            } else {
                None
            }
        })
        .collect();
    // Positions (within the current chunk) of the values that are unused
    // and satisfy every constraint, ascending; `pairs` is the batch buffer.
    let mut survivors: Vec<usize> = Vec::new();
    let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
    let mut rest = domain;
    let mut chunk_len = CHUNK_START;
    while !rest.is_empty() {
        let (chunk, tail) = rest.split_at(chunk_len.min(rest.len()));
        rest = tail;
        chunk_len = (chunk_len * 2).min(CHUNK_CAP);
        // `used` holds only shallower placements here (deeper ones are
        // undone before the recursion returns), so it is constant across
        // the chunk and can be applied up front.
        survivors.clear();
        survivors.extend((0..chunk.len()).filter(|&i| !used.contains(&chunk[i])));
        for &(other, u_is_source, bound) in &constraints {
            if survivors.is_empty() {
                break;
            }
            pairs.clear();
            pairs.extend(survivors.iter().map(|&i| {
                if u_is_source {
                    // edge u -> other: dist(v, h(other)) <= bound
                    (chunk[i], other)
                } else {
                    (other, chunk[i])
                }
            }));
            let within = oracle.dist_batch(&pairs, bound);
            let mut answers = within.iter();
            survivors.retain(|_| answers.next().is_some_and(Option::is_some));
        }
        let mut next_survivor = survivors.iter().copied().peekable();
        for (i, &v) in chunk.iter().enumerate() {
            if *steps == 0 {
                return Err(Truncated);
            }
            *steps -= 1;
            if next_survivor.next_if_eq(&i).is_none() {
                continue;
            }
            assignment.insert(u, v);
            used.insert(v);
            if backtrack(
                graph,
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
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::candidates::node_candidates;
    use wqe_graph::GraphBuilder;
    use wqe_index::PllIndex;

    /// Triangle data graph, query path a->b->c: injectivity must hold.
    #[test]
    fn injectivity_enforced() {
        let mut b = GraphBuilder::new();
        let x = b.add_node("A", []);
        let y = b.add_node("B", []);
        b.add_edge(x, y, "e");
        b.add_edge(y, x, "e");
        let g = b.finalize();
        let oracle = PllIndex::build(&g);

        let s = g.schema();
        // Query: A -> B -> A' (two distinct A-nodes required).
        let mut q = PatternQuery::new(s.label_id("A"), 2);
        let ub = q.add_node(s.label_id("B"));
        let ua2 = q.add_node(s.label_id("A"));
        q.add_edge(q.focus(), ub, 1).unwrap();
        q.add_edge(ub, ua2, 1).unwrap();

        let order = assignment_order(&q);
        let mut domains = HashMap::new();
        for u in q.node_ids() {
            domains.insert(u, node_candidates(&g, &q, u));
        }
        let mut steps = 10_000;
        // Only one A exists; ua2 would need to reuse x => no valuation.
        let r = verify_candidate(&g, &oracle, &q, &order, &domains, x, &mut steps).unwrap();
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
        let oracle = PllIndex::build(&g);
        let s = g.schema();
        let mut q = PatternQuery::new(s.label_id("A"), 2);
        let uc = q.add_node(s.label_id("C"));
        q.add_edge(q.focus(), uc, 2).unwrap();
        let order = assignment_order(&q);
        let mut domains = HashMap::new();
        for u in q.node_ids() {
            domains.insert(u, node_candidates(&g, &q, u));
        }
        let mut steps = 1000;
        let r = verify_candidate(&g, &oracle, &q, &order, &domains, x, &mut steps)
            .unwrap()
            .expect("x reaches z within 2");
        assert_eq!(r[&uc], z);
    }

    #[test]
    fn truncation_signals() {
        let mut b = GraphBuilder::new();
        let x = b.add_node("A", []);
        let ys: Vec<_> = (0..50).map(|_| b.add_node("B", [])).collect();
        for &y in &ys {
            b.add_edge(x, y, "e");
        }
        let g = b.finalize();
        let oracle = PllIndex::build(&g);
        let s = g.schema();
        let mut q = PatternQuery::new(s.label_id("A"), 2);
        let ub = q.add_node(s.label_id("B"));
        let uc = q.add_node(s.label_id("C")); // no C exists
        q.add_edge(q.focus(), ub, 1).unwrap();
        q.add_edge(ub, uc, 1).unwrap();
        let order = assignment_order(&q);
        let mut domains = HashMap::new();
        for u in q.node_ids() {
            domains.insert(u, node_candidates(&g, &q, u));
        }
        let mut steps = 5; // tiny budget
        let r = verify_candidate(&g, &oracle, &q, &order, &domains, x, &mut steps);
        assert_eq!(r, Err(Truncated));
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
