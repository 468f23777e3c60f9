//! # wqe-index
//!
//! Exact shortest-path distance indexes for the WQE system.
//!
//! Edge-to-path matching (§2.1) requires `dist(h(u), h(u')) <= L_Q(e)` for
//! every pattern edge, making distance queries the innermost loop of every
//! algorithm in the paper. The experiments note that "all the algorithms …
//! access a fast distance index \[2\]" (Akiba et al., pruned landmark
//! labeling). This crate provides:
//!
//! * [`Oracle`] — the one production oracle: per graph it serves one tier
//!   (labels, owned or mapped from a snapshot; bounded BFS past the PLL
//!   crossover; or, on a live-graph publish, an overlay over the previous
//!   epoch's tier — [`Oracle::publish`]), behind one degradation ladder
//!   (retry → circuit breaker → exact BFS fallback);
//! * [`DistanceOracle`] — the seam the matcher calls, for [`Oracle`], test
//!   fakes and wrappers;
//! * [`PllIndex`] — a from-scratch pruned-landmark-labeling (2-hop cover)
//!   index for directed graphs, exact at any distance, and
//!   [`repair_insertions`], its incremental repair;
//! * [`BoundedBfsOracle`] — a memoizing BFS oracle, exact at every bound,
//!   that memoizes reach sets up to a horizon;
//! * [`PllParts`] / [`PllSlices`] — flat struct-of-arrays label export for
//!   the durable snapshot store and a zero-copy borrowed-slice view over it
//!   ([`PllSlices`] is *the* query path — owned and mapped labels both
//!   answer through it);
//! * [`kernel`] — the scalar/AVX2 merge-join kernels behind every label
//!   query, runtime-dispatched and pinned bit-identical to each other.

#![warn(missing_docs)]

mod bfs;
mod delta;
pub mod kernel;
mod oracle;
mod pll;

pub use bfs::BoundedBfsOracle;
pub use delta::repair_insertions;
pub use kernel::{active_kernel, BatchScratch, Kernel};
pub use oracle::{DistanceOracle, Oracle, OracleTier};
pub use pll::{LabelStats, PllIndex, PllParts, PllSlices};

#[cfg(test)]
mod proptests {
    use crate::oracle::tests::mapped_copy;
    use crate::{BoundedBfsOracle, DistanceOracle, Oracle, PllIndex};
    use proptest::prelude::*;
    use std::sync::Arc;
    use wqe_graph::{Graph, GraphBuilder, GraphUpdate, NodeId};

    fn arb_graph() -> impl Strategy<Value = Graph> {
        // Up to 24 nodes, random directed edges.
        (2usize..24).prop_flat_map(|n| {
            proptest::collection::vec((0..n, 0..n), 0..(n * 3)).prop_map(move |edges| {
                let mut b = GraphBuilder::new();
                let ids: Vec<_> = (0..n).map(|_| b.add_node("N", [])).collect();
                for (u, v) in edges {
                    if u != v {
                        b.add_edge(ids[u], ids[v], "e");
                    }
                }
                b.finalize()
            })
        })
    }

    proptest! {
        /// PLL agrees with plain BFS on every pair of every random graph.
        #[test]
        fn pll_matches_bfs(g in arb_graph()) {
            let pll = PllIndex::build(&g);
            for u in g.node_ids() {
                let reach: std::collections::HashMap<NodeId, u32> =
                    g.bounded_bfs(u, u32::MAX).into_iter().collect();
                for v in g.node_ids() {
                    prop_assert_eq!(pll.distance(u, v), reach.get(&v).copied());
                }
            }
        }

        /// The rank-windowed parallel build answers exactly like plain BFS
        /// (label *sets* may differ from the sequential build — windowing
        /// prunes slightly less — but distances never do).
        #[test]
        fn parallel_pll_matches_bfs_oracle(g in arb_graph()) {
            let par = PllIndex::build_with(&g, 4);
            let g = Arc::new(g);
            let bfs = BoundedBfsOracle::new(Arc::clone(&g), u32::MAX);
            for u in g.node_ids() {
                for v in g.node_ids() {
                    prop_assert_eq!(par.distance(u, v), bfs.distance_within(u, v, u32::MAX));
                }
            }
        }

        /// The bounded oracle agrees with PLL inside its horizon and past
        /// it.
        #[test]
        fn bounded_matches_pll_at_every_bound(g in arb_graph(), horizon in 1u32..5, over in 0u32..4) {
            let pll = PllIndex::build(&g);
            let g = Arc::new(g);
            let bfs = BoundedBfsOracle::new(Arc::clone(&g), horizon);
            for u in g.node_ids() {
                for v in g.node_ids() {
                    for bound in [horizon, horizon + over] {
                        prop_assert_eq!(
                            bfs.distance_within(u, v, bound),
                            pll.distance_within(u, v, bound)
                        );
                    }
                }
            }
        }

        /// Batched answers match pointwise `distance_within` — and nothing
        /// panics — for every oracle with a `dist_batch` of its own, and
        /// for [`Oracle`] on every tier (owned labels, mapped labels, BFS,
        /// an overlay after deleting an edge), on the three batch shapes
        /// callers produce: one source against many targets, many sources
        /// against one target (the matcher's join on an edge leaving the
        /// node being placed), and unrelated pairs. Lengths straddle
        /// `MIN_GROUP`, so tabled and pairwise paths both run; the
        /// forced-scalar CI pass reruns this under the other kernel.
        #[test]
        fn dist_batch_matches_pointwise_on_every_shape(
            g in arb_graph(),
            shape in 0u8..3,
            anchor in 0usize..24,
            picks in proptest::collection::vec((0usize..24, 0usize..24), 0..40),
            bound in 0u32..6,
            cut in 0usize..24,
        ) {
            let n = g.node_count();
            let node = |i: usize| NodeId((i % n) as u32);
            let pairs: Vec<(NodeId, NodeId)> = picks
                .into_iter()
                .map(|(u, v)| match shape {
                    0 => (node(anchor), node(v)),
                    1 => (node(u), node(anchor)),
                    _ => (node(u), node(v)),
                })
                .collect();
            let pll = PllIndex::build_with(&g, 2);
            let g = Arc::new(g);
            // The overlay's graph loses one out-edge of node `cut`, if any.
            let base = Arc::new(Oracle::build(&g));
            let cut = node(cut);
            let updates: Vec<GraphUpdate> = g
                .out_neighbors(cut)
                .first()
                .map(|&(to, _)| GraphUpdate::DeleteEdge { from: cut, to })
                .into_iter()
                .collect();
            let (cut_graph, delta) = g.apply_updates(&updates).unwrap();
            let cut_graph = Arc::new(cut_graph);
            let cut_pll = PllIndex::build(&cut_graph);
            let oracles: [(&str, Box<dyn DistanceOracle>, &PllIndex); 5] = [
                ("Oracle::labels", Box::new(Oracle::build(&g)), &pll),
                ("Oracle::mapped", Box::new(mapped_copy(&g, &pll).0), &pll),
                ("Oracle::bfs", Box::new(Oracle::bfs(&g)), &pll),
                ("Oracle::overlay", Box::new(Oracle::overlay(&base, &cut_graph, &delta)), &cut_pll),
                (
                    "BoundedBfsOracle",
                    Box::new(BoundedBfsOracle::new(Arc::clone(&g), 5).with_capacity(2)),
                    &pll,
                ),
            ];
            for (name, oracle, truth) in &oracles {
                let batched = oracle.dist_batch(&pairs, bound);
                prop_assert_eq!(batched.len(), pairs.len(), "{}", name);
                for (&(u, v), got) in pairs.iter().zip(&batched) {
                    prop_assert_eq!(*got, truth.distance_within(u, v, bound), "{} {:?}->{:?}", name, u, v);
                    prop_assert_eq!(*got, oracle.distance_within(u, v, bound), "{} {:?}->{:?}", name, u, v);
                }
            }
        }
    }
}

#[cfg(test)]
mod kernel_proptests {
    use crate::kernel::{merge_join_with, BatchScratch, Kernel};
    use proptest::prelude::*;

    /// A rank-sorted label: strictly ascending ranks, arbitrary distances
    /// below the `u32::MAX` sentinel. Gaps between ranks are drawn from a
    /// skewed range so shapes vary from dense runs to sparse spreads; the
    /// length range covers empty, single-entry, and long labels.
    fn arb_label(max_len: usize) -> impl Strategy<Value = (Vec<u32>, Vec<u32>)> {
        proptest::collection::vec((1u32..50, 0u32..u32::MAX), 0..max_len).prop_map(|entries| {
            let mut rank = 0u32;
            let mut ranks = Vec::with_capacity(entries.len());
            let mut dists = Vec::with_capacity(entries.len());
            for (gap, d) in entries {
                rank += gap;
                ranks.push(rank);
                dists.push(d);
            }
            (ranks, dists)
        })
    }

    proptest! {
        /// AVX2 and scalar merge-joins agree — answer *and* entries
        /// scanned — on adversarial label shapes (empty, single-entry,
        /// long, skewed, distances that saturate).
        #[test]
        fn simd_merge_join_matches_scalar(
            (or_, od) in arb_label(80),
            (ir, id_) in arb_label(80),
        ) {
            let scalar = merge_join_with(Kernel::Scalar, &or_, &od, &ir, &id_).unwrap();
            if let Some(simd) = merge_join_with(Kernel::Avx2, &or_, &od, &ir, &id_) {
                prop_assert_eq!(scalar, simd);
            }
        }

        /// AVX2 and scalar batch probes agree over a loaded source table,
        /// and the table answer matches the reference merge-join.
        #[test]
        fn simd_batch_probe_matches_scalar(
            (src_r, src_d) in arb_label(60),
            targets in proptest::collection::vec(arb_label(60), 0..8),
        ) {
            let mut scratch = BatchScratch::new();
            scratch.load_source(&src_r, &src_d);
            for (ir, id_) in &targets {
                let scalar = scratch.probe_with(Kernel::Scalar, ir, id_).unwrap();
                if let Some(simd) = scratch.probe_with(Kernel::Avx2, ir, id_) {
                    prop_assert_eq!(scalar, simd);
                }
                let (want, _) = merge_join_with(Kernel::Scalar, &src_r, &src_d, ir, id_).unwrap();
                prop_assert_eq!(scalar.0, want);
            }
        }
    }
}
