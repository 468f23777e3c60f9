//! Incremental index maintenance for live graphs.
//!
//! When an epoch publishes a graph delta, rebuilding the PLL index from
//! scratch costs the full `O(Σ label sizes · avg degree)` construction —
//! wasteful when a handful of edges changed. This module provides the two
//! cheaper tiers [`crate::Oracle::publish`] picks from:
//!
//! * [`repair_insertions`] — incremental label repair for pure edge
//!   insertions (the resumed pruned-BFS scheme of Akiba et al., WWW 2014):
//!   for each inserted edge `(a, b)` and each hub covering `a`, the hub's
//!   pruned BFS is *resumed* through the new edge, patching only the labels
//!   the insertion can actually shorten. A visit budget bounds the work;
//!   repair past the budget returns `None` and the caller falls back.
//! * the overlay tier — exact for arbitrary deltas (deletions, new
//!   nodes): answers from the previous epoch's tier when the delta provably
//!   cannot have changed the pair, and routes *affected* source/target
//!   pairs to an exact BFS on the new graph (the bounded-staleness
//!   fallback — answers are never stale, only slower for touched regions).
//!
//! Both tiers answer bit-identically to a fresh index on the new graph;
//! they only trade construction time against per-query time.

use crate::bfs::BoundedBfsOracle;
use crate::kernel::BatchScratch;
use crate::oracle::{DistanceOracle, Oracle};
use crate::pll::{BuildLabels, PllIndex};
use std::collections::VecDeque;
use std::sync::Arc;
use wqe_graph::{DeltaSummary, Graph, NodeId};

/// Incrementally repairs a PLL index after pure edge insertions.
///
/// `index` must have been built on the old graph; `graph` is the *new*
/// graph (old edges plus exactly `inserted`, same node set). For each
/// inserted edge `(a, b)`: every hub `w` covering `a` in the forward
/// direction resumes its pruned BFS from `b` at depth `d(w, a) + 1`, and
/// symmetrically every hub covering `b` backward resumes from `a` —
/// patching only labels the new edge can have shortened, with the same
/// certify-then-label pruning as the static build: each resumed search
/// tables the hub's fixed label side once and probes every visited node's
/// label against it (the build's own `BuildLabels` store and certifier).
///
/// `budget` caps total BFS visits across all resumed searches; exceeding
/// it returns `None` with no partial effects (the caller keeps the old
/// index and uses a different tier). The repaired index answers exactly on
/// the new graph (labels may be non-minimal — entries are real path
/// lengths and the 2-hop cover is restored, which is all exactness needs).
pub fn repair_insertions(
    index: &PllIndex,
    graph: &Graph,
    inserted: &[(NodeId, NodeId)],
    budget: u64,
) -> Option<PllIndex> {
    let parts = index.parts();
    if parts.out_offsets.len() != graph.node_count() + 1 {
        return None; // node set changed: not a pure insertion delta
    }
    let mut labels = BuildLabels::unflatten(parts);
    let n = graph.node_count();
    // Inverse of the landmark order: `node_of_rank[r]` is the node whose
    // pruned BFS committed entries at rank `r` (recovered from the
    // self-entries `(rank(v), 0)` every labeled node carries).
    let mut node_of_rank = vec![u32::MAX; n];
    for v in 0..n {
        let (ranks, dists) = labels.visited_label(v, true);
        for (&r, &d) in ranks.iter().zip(dists) {
            if d == 0 {
                node_of_rank[r as usize] = v as u32;
            }
        }
    }
    let mut visits = 0u64;
    let mut visited = vec![false; n];
    let mut queue: VecDeque<(u32, u32)> = VecDeque::new();
    let mut table = BatchScratch::new();

    // One resumed pruned BFS: hub `wr` continues from `start` at depth
    // `d0`, patching the forward (`L_in`) or backward (`L_out`) labels.
    // The hub's fixed side is never written by its own traversal, so it
    // is tabled once per resume.
    let mut resume = |labels: &mut BuildLabels, wr: u32, start: u32, d0: u32, forward: bool| {
        labels.load_landmark(&mut table, node_of_rank[wr as usize] as usize, forward);
        queue.clear();
        queue.push_back((start, d0));
        visited[start as usize] = true;
        let mut touched = vec![start];
        let mut ok = true;
        while let Some((x, d)) = queue.pop_front() {
            visits += 1;
            if visits > budget {
                ok = false;
                break;
            }
            if labels.certified(&table, x as usize, forward) <= d {
                continue;
            }
            labels.upsert(x as usize, forward, wr, d);
            let neighbors = if forward {
                graph.out_neighbors(NodeId(x))
            } else {
                graph.in_neighbors(NodeId(x))
            };
            for &(y, _) in neighbors {
                if !visited[y.index()] {
                    visited[y.index()] = true;
                    touched.push(y.0);
                    queue.push_back((y.0, d + 1));
                }
            }
        }
        for t in touched {
            visited[t as usize] = false;
        }
        ok
    };

    // Hubs covering `x` on the side a `forward` traversal writes, copied
    // out because the resumed searches patch the labels they came from.
    let hubs_of = |labels: &BuildLabels, x: NodeId, forward: bool| -> Vec<(u32, u32)> {
        let (ranks, dists) = labels.visited_label(x.index(), forward);
        ranks.iter().copied().zip(dists.iter().copied()).collect()
    };
    for &(a, b) in inserted {
        // Forward: hubs that reach `a` now also reach through `a -> b`.
        for (wr, delta) in hubs_of(&labels, a, true) {
            if !resume(&mut labels, wr, b.0, delta + 1, true) {
                return None;
            }
        }
        // Backward: hubs reachable from `b` are now reachable from `a`.
        for (wr, delta) in hubs_of(&labels, b, false) {
            if !resume(&mut labels, wr, a.0, delta + 1, false) {
                return None;
            }
        }
    }

    PllIndex::from_parts(labels.flatten()).ok()
}

/// The overlay tier: exact distances after an arbitrary graph delta.
///
/// Holds the previous epoch's oracle (`base`, asked through its tier,
/// never its ladder) plus the delta (`inserted`/`deleted` edge pairs, old
/// node count). Queries decompose along the first inserted edge on a
/// candidate path:
///
/// `d_new(s, t) = min( d_mid(s, t), min over inserted (p, q) of
/// d_mid(s, p) + 1 + d_new(q, t) )`
///
/// where `d_mid` is the old graph minus deleted edges. `d_mid(s, x)`
/// equals the old answer unless some deleted edge `(a, b)` sat on an old
/// shortest path (`d_old(s, a) + 1 + d_old(b, x) == d_old(s, x)`); such
/// *suspect* pairs — and any pair touching a node added after the old
/// build — are routed to the exact BFS on the new graph that the owning
/// [`Oracle`] also falls back to. The `d_new(q, t)` tails come from one
/// BFS per inserted edge head, run at construction. Every branch is exact;
/// "bounded staleness" bounds only the latency of affected pairs, never
/// the answer.
pub(crate) struct Overlay {
    pub(crate) base: Arc<Oracle>,
    old_n: u32,
    inserted: Vec<(NodeId, NodeId)>,
    deleted: Vec<(NodeId, NodeId)>,
    /// `tails[i][t] = d_new(q_i, t)` for inserted edge `(p_i, q_i)`.
    tails: Vec<Vec<u32>>,
}

impl Overlay {
    /// The overlay for `graph`, which is `base`'s graph with `delta`
    /// applied. `base` answers *unbounded* exact distances on the old
    /// graph; the delta's edge pairs are endpoint pairs (parallel labels
    /// collapse, which is sound because distances ignore edge labels).
    pub(crate) fn new(base: Arc<Oracle>, graph: &Graph, delta: &DeltaSummary) -> Self {
        let tails = delta
            .inserted_edges
            .iter()
            .map(|&(_, q)| {
                let mut dist = vec![u32::MAX; graph.node_count()];
                for (v, d) in graph.bounded_bfs(q, u32::MAX) {
                    dist[v.index()] = d;
                }
                dist
            })
            .collect();
        Overlay {
            old_n: base.graph().node_count() as u32,
            base,
            inserted: delta.inserted_edges.clone(),
            deleted: delta.deleted_edges.clone(),
            tails,
        }
    }

    fn old(&self, s: NodeId, t: NodeId) -> Option<u32> {
        self.base.tier_distance(s, t, u32::MAX)
    }

    /// True when some deleted edge lay on an old shortest `s -> t` path,
    /// i.e. the old answer for the pair cannot be trusted.
    fn suspect(&self, s: NodeId, t: NodeId, d_old: Option<u32>) -> bool {
        let Some(d) = d_old else {
            // Unreachable pairs only get *more* unreachable under deletion.
            return false;
        };
        self.deleted.iter().any(|&(a, b)| {
            let front = self.old(s, a);
            let back = self.old(b, t);
            matches!((front, back), (Some(f), Some(k)) if f.saturating_add(1).saturating_add(k) == d)
        })
    }

    /// `dist(s, t)` on the new graph within `bound`; `exact` is the new
    /// graph's BFS, which answers the affected pairs.
    pub(crate) fn distance_within(
        &self,
        exact: &BoundedBfsOracle,
        s: NodeId,
        t: NodeId,
        bound: u32,
    ) -> Option<u32> {
        if s == t {
            return Some(0);
        }
        // Nodes added after the old build have no base answers at all.
        if s.0 >= self.old_n || t.0 >= self.old_n {
            return exact.distance_within(s, t, bound);
        }
        let d_old = self.old(s, t);
        if !self.deleted.is_empty() && self.suspect(s, t, d_old) {
            return exact.distance_within(s, t, bound);
        }
        let mut best = d_old;
        for (&(p, _), tail) in self.inserted.iter().zip(&self.tails) {
            let leg = if s == p {
                Some(0)
            } else if p.0 >= self.old_n {
                // Prefix to a brand-new node cannot avoid inserted edges;
                // covered by the decomposition through earlier insertions.
                None
            } else {
                let d_sp = self.old(s, p);
                if !self.deleted.is_empty() && self.suspect(s, p, d_sp) {
                    return exact.distance_within(s, t, bound);
                }
                d_sp
            };
            let (Some(leg), tail) = (leg, tail[t.index()]) else {
                continue;
            };
            if tail != u32::MAX {
                let cand = leg.saturating_add(1).saturating_add(tail);
                best = Some(best.map_or(cand, |b| b.min(cand)));
            }
        }
        best.filter(|&d| d <= bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use wqe_graph::GraphBuilder;

    fn build_graph(n: usize, edges: &[(u32, u32)]) -> Graph {
        let mut b = GraphBuilder::new();
        let ids: Vec<_> = (0..n).map(|_| b.add_node("N", [])).collect();
        for &(u, v) in edges {
            b.add_edge(ids[u as usize], ids[v as usize], "e");
        }
        b.finalize()
    }

    /// An overlay for `new` over labels built on `old`.
    fn overlay(
        old: &Graph,
        new: &Graph,
        inserted: Vec<(NodeId, NodeId)>,
        deleted: Vec<(NodeId, NodeId)>,
    ) -> Oracle {
        let base = Arc::new(Oracle::build(&Arc::new(old.clone())));
        let delta = DeltaSummary {
            inserted_edges: inserted,
            deleted_edges: deleted,
            ..Default::default()
        };
        Oracle::overlay(&base, &Arc::new(new.clone()), &delta)
    }

    fn assert_exact(oracle: &dyn DistanceOracle, g: &Graph) {
        let truth = BoundedBfsOracle::new(Arc::new(g.clone()), u32::MAX);
        for u in g.node_ids() {
            for v in g.node_ids() {
                assert_eq!(
                    oracle.distance_within(u, v, u32::MAX),
                    truth.distance_within(u, v, u32::MAX),
                    "pair {u:?} -> {v:?}"
                );
            }
        }
    }

    #[test]
    fn repair_shortcut_edge() {
        // Path 0 -> 1 -> 2 -> 3 -> 4, then insert the shortcut 0 -> 4.
        let old = build_graph(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let new = build_graph(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]);
        let idx = PllIndex::build(&old);
        let repaired =
            repair_insertions(&idx, &new, &[(NodeId(0), NodeId(4))], u64::MAX).expect("repairs");
        assert_eq!(repaired.distance(NodeId(0), NodeId(4)), Some(1));
        assert_exact(&repaired, &new);
    }

    #[test]
    fn repair_budget_overrun_returns_none() {
        let old = build_graph(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let new = build_graph(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]);
        let idx = PllIndex::build(&old);
        assert!(repair_insertions(&idx, &new, &[(NodeId(0), NodeId(5))], 0).is_none());
    }

    #[test]
    fn repair_rejects_node_count_mismatch() {
        let old = build_graph(4, &[(0, 1)]);
        let new = build_graph(5, &[(0, 1), (1, 4)]);
        let idx = PllIndex::build(&old);
        assert!(repair_insertions(&idx, &new, &[(NodeId(1), NodeId(4))], u64::MAX).is_none());
    }

    #[test]
    fn overlay_handles_deletion() {
        // Delete the only 1 -> 2 link: pairs through it must re-route.
        let old = build_graph(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let new = build_graph(4, &[(0, 1), (2, 3), (0, 3)]);
        let overlay = overlay(&old, &new, vec![], vec![(NodeId(1), NodeId(2))]);
        assert_exact(&overlay, &new);
        assert_eq!(
            overlay.distance_within(NodeId(1), NodeId(3), u32::MAX),
            None
        );
    }

    #[test]
    fn overlay_handles_new_node() {
        let old = build_graph(3, &[(0, 1), (1, 2)]);
        let mut b = GraphBuilder::with_schema(old.schema().clone());
        for v in old.node_ids() {
            let d = old.node(v);
            b.add_node_raw(d.label, d.attrs.clone());
        }
        let fresh = b.add_node("N", []);
        for v in old.node_ids() {
            for &(t, l) in old.out_neighbors(v) {
                b.add_edge_raw(v, t, l);
            }
        }
        b.add_edge(NodeId(2), fresh, "e");
        b.add_edge(fresh, NodeId(0), "e");
        let new = b.finalize();
        let overlay = overlay(
            &old,
            &new,
            vec![(NodeId(2), fresh), (fresh, NodeId(0))],
            vec![],
        );
        assert_exact(&overlay, &new);
        assert_eq!(overlay.distance_within(NodeId(0), fresh, u32::MAX), Some(3));
        assert_eq!(overlay.distance_within(fresh, NodeId(1), u32::MAX), Some(2));
    }

    /// Raw draw of the repair properties: node count, base edges, and
    /// candidate insertions (normalized by [`repair_case`]).
    type RepairDraw = (usize, Vec<(u32, u32)>, Vec<(u32, u32)>);

    /// Old graph, new graph, and the distinct fresh edges between them.
    type RepairCase = (Graph, Graph, Vec<(NodeId, NodeId)>);

    fn arb_repair_draw() -> impl Strategy<Value = RepairDraw> {
        (
            3usize..14,
            proptest::collection::vec((0u32..14, 0u32..14), 0..30),
            proptest::collection::vec((0u32..14, 0u32..14), 1..5),
        )
    }

    /// Normalizes a draw into a [`RepairCase`]; `None` when the draw
    /// inserts nothing new.
    fn repair_case(
        n: usize,
        base_edges: Vec<(u32, u32)>,
        new_edges: Vec<(u32, u32)>,
    ) -> Option<RepairCase> {
        let base_edges: Vec<(u32, u32)> = base_edges
            .into_iter()
            .map(|(u, v)| (u % n as u32, v % n as u32))
            .filter(|(u, v)| u != v)
            .collect();
        let mut all = base_edges.clone();
        let mut inserted = Vec::new();
        for (u, v) in new_edges {
            let e = (u % n as u32, v % n as u32);
            if e.0 != e.1 && !all.contains(&e) {
                all.push(e);
                inserted.push((NodeId(e.0), NodeId(e.1)));
            }
        }
        (!inserted.is_empty())
            .then(|| (build_graph(n, &base_edges), build_graph(n, &all), inserted))
    }

    /// Build and repair changed how a BFS visit is certified (one table
    /// probe instead of a merge-join), never what it certifies: the
    /// repaired label arrays over the very cases
    /// `repair_matches_fresh_build` draws still hash to the value recorded
    /// with merge-join certification.
    #[test]
    fn repaired_labels_match_merge_join_certified_repair() {
        let mut h: u64 = 0xcbf29ce484222325; // FNV-1a over every label word
        for case in 0..64 {
            let mut rng = proptest::deterministic_rng("repair_matches_fresh_build", case);
            let (n, base_edges, new_edges) = arb_repair_draw().sample(&mut rng);
            let Some((old, new, inserted)) = repair_case(n, base_edges, new_edges) else {
                continue;
            };
            let repaired = repair_insertions(&PllIndex::build(&old), &new, &inserted, u64::MAX)
                .expect("unbounded budget always repairs");
            let p = repaired.parts();
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
        }
        assert_eq!(h, 0xc72936e9385513fe);
    }

    proptest! {
        /// Repaired labels answer exactly like a fresh build on the new
        /// graph, for random base graphs and random insertion batches.
        #[test]
        fn repair_matches_fresh_build((n, base_edges, new_edges) in arb_repair_draw()) {
            let Some((old, new, inserted)) = repair_case(n, base_edges, new_edges) else {
                return Ok(());
            };
            let idx = PllIndex::build(&old);
            let repaired = repair_insertions(&idx, &new, &inserted, u64::MAX)
                .expect("unbounded budget always repairs");
            let fresh = PllIndex::build(&new);
            for u in new.node_ids() {
                for v in new.node_ids() {
                    prop_assert_eq!(repaired.distance(u, v), fresh.distance(u, v));
                }
            }
        }

        /// The delta overlay is exact under mixed insert + delete batches.
        #[test]
        fn overlay_matches_bfs(
            n in 3usize..12,
            base_edges in proptest::collection::vec((0u32..12, 0u32..12), 2..26),
            ins in proptest::collection::vec((0u32..12, 0u32..12), 0..4),
            del_picks in proptest::collection::vec(0usize..26, 0..4),
        ) {
            let base_edges: Vec<(u32, u32)> = base_edges
                .into_iter()
                .map(|(u, v)| (u % n as u32, v % n as u32))
                .filter(|(u, v)| u != v)
                .collect();
            prop_assume!(!base_edges.is_empty());
            let mut survivors = base_edges.clone();
            let mut deleted = Vec::new();
            for p in del_picks {
                if survivors.is_empty() { break; }
                let e = survivors.remove(p % survivors.len());
                survivors.retain(|&x| x != e);
                deleted.push((NodeId(e.0), NodeId(e.1)));
            }
            let mut inserted = Vec::new();
            for (u, v) in ins {
                let e = (u % n as u32, v % n as u32);
                if e.0 != e.1 && !survivors.contains(&e) {
                    survivors.push(e);
                    inserted.push((NodeId(e.0), NodeId(e.1)));
                }
            }
            let old = build_graph(n, &base_edges);
            let new = build_graph(n, &survivors);
            let overlay = overlay(&old, &new, inserted, deleted);
            let truth = BoundedBfsOracle::new(Arc::new(new.clone()), u32::MAX);
            for u in new.node_ids() {
                for v in new.node_ids() {
                    prop_assert_eq!(
                        overlay.distance_within(u, v, u32::MAX),
                        truth.distance_within(u, v, u32::MAX)
                    );
                }
            }
        }
    }
}
