//! Verification of focus candidates against full valuations.
//!
//! Procedure `Match` (§5.2) computes `Q(G)` over star tables as materialized
//! views: each focus candidate admitted by the views is verified by a
//! backtracking search for an *injective* valuation `h` with
//! `dist(h(u), h(u')) <= L_Q(e)` for every pattern edge, and the
//! verification of a candidate stops as soon as one valuation is found
//! (the Threshold-Algorithm-style early exit the paper describes).
//!
//! ## The join walks the stars
//!
//! [`star::decompose`](super::star::decompose) makes star `i` from pattern
//! edge `i`, and its table lists, per center, every leaf candidate within
//! the edge's bound: rows sorted by center, each leaf list by node id. So
//! the join computes no distance: an edge constraint between two placed
//! nodes is answered by that edge's table. This agrees with the distance
//! for every value the join sees, because the domains it walks are subsets
//! of each star's live centers and leaves, and injectivity keeps the two
//! endpoints apart.
//!
//! [`JoinPlan::new`] plans the join once per evaluation: per depth of the
//! assignment order, the domain walked and the probes, the edges to
//! shallower placements. Domains are sorted too, so each probe walks its
//! table beside the domain with a cursor, restarted whenever its depth
//! starts a walk:
//! - a *leaf-side* probe (the node being placed is the star's leaf) finds
//!   the placed center's row once and walks that row's leaf list;
//! - a *center-side* probe walks the table's rows, and searches the row it
//!   lands on for the placed leaf.
//!
//! Once a probe's list holds nothing at or past the current value, no
//! later value of the walk fits, and the rest of the domain is charged at
//! once.
//!
//! Placing pattern node `u` walks its domain value by value in domain
//! order, charging each value one step *before* it is looked at. `steps`,
//! the value at which [`Truncated`] fires, and the valuation found are
//! pinned against the oracle join of `naive_evaluate` in
//! `matcher/proptests.rs`.

use super::star::{StarRow, StarTable};
use crate::pattern::{PatternQuery, QNodeId};
use std::collections::{HashMap, HashSet, VecDeque};
use std::ops::Range;
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

/// The join of one evaluation, planned once: per depth of the assignment
/// order, the domain walked and the probes against shallower placements,
/// plus the scratch every verification reuses.
///
/// `domains` restricts each pattern node to the nodes admitted by the star
/// tables (an over-approximation of its true matches), each sorted
/// ascending; `tables[i]` is the table of star `i` of
/// [`star::decompose`](super::star::decompose), the star of pattern edge
/// `i`.
pub(crate) struct JoinPlan<'a> {
    order: Vec<QNodeId>,
    levels: Vec<Level<'a>>,
    probes: Vec<Probe<'a>>,
    /// Per probe, where its walk stands; restarted when its depth starts
    /// a walk.
    cursors: Vec<Cursor<'a>>,
    /// `placed[d]` is the image of the pattern node at depth `d`.
    placed: Vec<NodeId>,
}

/// What placing the pattern node at one depth of the order looks at: its
/// domain and its range of [`JoinPlan::probes`].
struct Level<'a> {
    domain: &'a [NodeId],
    probes: Range<usize>,
}

/// One edge constraint against an earlier placement: the rows of the
/// edge's star table, the depth of the other endpoint, and which end is
/// the center.
struct Probe<'a> {
    rows: &'a [StarRow],
    other: usize,
    placed_is_center: bool,
}

/// A probe's position: a leaf-side probe walks `leaves`, the leaf list of
/// the placed center's row (empty when the center has no row); a
/// center-side probe walks the table's rows. `at` indexes the walked list.
#[derive(Clone, Copy, Default)]
struct Cursor<'a> {
    leaves: &'a [(NodeId, u32)],
    at: usize,
}

/// What a probe says of one domain value.
enum Fit {
    Yes,
    No,
    /// No later value of the walk can fit either: the walked list holds
    /// nothing at or past it.
    Never,
}

impl<'a> JoinPlan<'a> {
    /// Plans the join of `q` over `domains` and `tables`.
    pub(crate) fn new(
        q: &PatternQuery,
        domains: &'a HashMap<QNodeId, Vec<NodeId>>,
        tables: &'a [StarTable],
    ) -> Self {
        assert_eq!(tables.len(), q.edge_count(), "one star table per edge");
        let order = assignment_order(q);
        let depth_of = |u: QNodeId| order.iter().position(|&w| w == u);
        let mut probes = Vec::new();
        let levels = order
            .iter()
            .enumerate()
            .map(|(depth, &u)| {
                let first = probes.len();
                for (e, table) in q.edges().iter().zip(tables) {
                    let other = match (e.from == u, e.to == u) {
                        (true, _) => e.to,
                        (_, true) => e.from,
                        _ => continue,
                    };
                    if let Some(other) = depth_of(other).filter(|&d| d < depth) {
                        probes.push(Probe {
                            rows: &table.rows,
                            other,
                            placed_is_center: table.star.center == u,
                        });
                    }
                }
                let domain = domains.get(&u).map_or(&[][..], Vec::as_slice);
                debug_assert!(domain.windows(2).all(|w| w[0] < w[1]), "sorted domain");
                Level {
                    domain,
                    probes: first..probes.len(),
                }
            })
            .collect();
        JoinPlan {
            cursors: vec![Cursor::default(); probes.len()],
            placed: Vec::with_capacity(order.len()),
            order,
            levels,
            probes,
        }
    }

    /// Tries to extend `focus -> focus_match` to a full injective
    /// valuation. `steps` is a decrementing budget; exhaustion aborts with
    /// [`Truncated`].
    pub(crate) fn verify(
        &mut self,
        focus_match: NodeId,
        steps: &mut usize,
    ) -> Result<Option<Valuation>, Truncated> {
        self.placed.clear();
        self.placed.push(focus_match);
        let found = place(
            &self.levels,
            &self.probes,
            &mut self.cursors,
            &mut self.placed,
            steps,
        )?;
        Ok(found.then(|| {
            self.order
                .iter()
                .copied()
                .zip(self.placed.iter().copied())
                .collect()
        }))
    }
}

/// Places `levels[placed.len()..]`, walking each depth's domain in order
/// and charging every value one step before looking at it.
fn place<'a>(
    levels: &[Level<'a>],
    probes: &[Probe<'a>],
    cursors: &mut [Cursor<'a>],
    placed: &mut Vec<NodeId>,
    steps: &mut usize,
) -> Result<bool, Truncated> {
    let Some(level) = levels.get(placed.len()) else {
        return Ok(true);
    };
    let range = level.probes.clone();
    for (p, c) in probes[range.clone()]
        .iter()
        .zip(&mut cursors[range.clone()])
    {
        *c = p.start(placed);
    }
    for (k, &v) in level.domain.iter().enumerate() {
        if *steps == 0 {
            return Err(Truncated);
        }
        *steps -= 1;
        if placed.contains(&v) {
            continue;
        }
        let fit = probes[range.clone()]
            .iter()
            .zip(&mut cursors[range.clone()])
            .map(|(p, c)| p.fit(c, v, placed))
            .find(|f| !matches!(f, Fit::Yes));
        match fit {
            None | Some(Fit::Yes) => {}
            Some(Fit::No) => continue,
            Some(Fit::Never) => {
                // The rest of the walk, charged as it would be value by
                // value.
                let rest = level.domain.len() - k - 1;
                if *steps < rest {
                    *steps = 0;
                    return Err(Truncated);
                }
                *steps -= rest;
                return Ok(false);
            }
        }
        placed.push(v);
        if place(levels, probes, cursors, placed, steps)? {
            return Ok(true);
        }
        placed.pop();
    }
    Ok(false)
}

impl<'a> Probe<'a> {
    /// The cursor a walk starts from: a leaf-side probe finds the placed
    /// center's row once, here.
    fn start(&self, placed: &[NodeId]) -> Cursor<'a> {
        let leaves = if self.placed_is_center {
            &[][..]
        } else {
            let center = placed[self.other];
            self.rows
                .binary_search_by_key(&center, |r| r.center)
                .map_or(&[][..], |r| &self.rows[r].leaf_matches[0])
        };
        Cursor { leaves, at: 0 }
    }

    /// Whether `v` fits this constraint, moving the cursor up to `v`. The
    /// walk's values ascend, so the cursor never moves back.
    fn fit(&self, c: &mut Cursor<'a>, v: NodeId, placed: &[NodeId]) -> Fit {
        if self.placed_is_center {
            c.at = seek(self.rows, c.at, v, |r| r.center);
            match self.rows.get(c.at) {
                None => Fit::Never,
                Some(row) if row.center == v => {
                    let leaf = placed[self.other];
                    match row.leaf_matches[0].binary_search_by_key(&leaf, |&(w, _)| w) {
                        Ok(_) => Fit::Yes,
                        Err(_) => Fit::No,
                    }
                }
                Some(_) => Fit::No,
            }
        } else {
            c.at = seek(c.leaves, c.at, v, |&(w, _)| w);
            match c.leaves.get(c.at) {
                None => Fit::Never,
                Some(&(w, _)) if w == v => Fit::Yes,
                Some(_) => Fit::No,
            }
        }
    }
}

/// The first index at or past `at` whose key is not below `v`: a gallop
/// from `at`, then a binary search inside the last stride, so a cursor
/// that moves a little costs a comparison or two and one that leaps costs
/// a logarithm of the leap.
fn seek<T>(s: &[T], at: usize, v: NodeId, key: impl Fn(&T) -> NodeId) -> usize {
    let (mut lo, mut hi, mut stride) = (at, at, 1);
    while hi < s.len() && key(&s[hi]) < v {
        lo = hi + 1;
        hi = (hi + stride).min(s.len());
        stride *= 2;
    }
    lo + s[lo..hi].partition_point(|x| key(x) < v)
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
        JoinPlan::new(q, &domains, &tables).verify(v, steps)
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
