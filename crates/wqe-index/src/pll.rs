//! Pruned landmark labeling (2-hop cover) for exact directed distances.
//!
//! The paper's experiments "access a fast distance index [2]" — Akiba,
//! Iwata, Yoshida, *Fast exact shortest-path distance queries on large
//! networks*, SIGMOD 2013. This module implements that index for directed,
//! unweighted graphs:
//!
//! * vertices are processed in decreasing-degree order (refined by the
//!   product of out- and in-degree, which favors vertices central in both
//!   directions);
//! * a forward pruned BFS from landmark `w` adds `(w, d)` to the **in**
//!   label of every vertex it reaches (so `w` can serve as an intermediate
//!   hub on paths *into* that vertex);
//! * a backward pruned BFS adds `(w, d)` to the **out** label;
//! * a BFS visit to `x` at distance `d` is pruned when the already-built
//!   labels certify `dist(w, x) <= d`.
//!
//! `dist(u, v)` is answered by a sorted merge of `L_out(u)` and `L_in(v)`.
//!
//! ## Flat label layout
//!
//! Labels live in a CSR-style struct-of-arrays: one contiguous rank array,
//! one contiguous distance array, and per-node offsets, per direction —
//! exactly the shape `wqe-store` persists and maps. [`PllSlices`] is a
//! borrowed view over those six arrays and carries the *only* query
//! implementation; owned and snapshot-mapped labels both answer by
//! constructing a `PllSlices` over their arrays, so the fresh and mapped
//! paths cannot diverge. The merge-join itself lives in
//! [`crate::kernel`], which dispatches between a scalar and an AVX2
//! variant pinned bit-identical to each other.
//!
//! ## Construction: rank windows, table certification
//!
//! [`PllIndex::build_with`] processes landmarks in rank order in
//! fixed-size *windows*; the forward/backward pruned BFS of every landmark
//! in a window runs concurrently on a [`wqe_pool::WorkerPool`], pruning
//! only against the labels *frozen* from previous windows; the window's
//! label entries are then committed in rank order (keeping every label
//! sorted by rank). Intra-window landmarks cannot prune against each
//! other, so the labels may carry a few redundant entries compared to the
//! strictly sequential build — but every entry is a real path length and
//! the completeness argument of Akiba et al. only relies on pruning hubs
//! having *strictly higher* rank, which frozen previous windows guarantee.
//! Distances answered are therefore still exact, and the label set is a
//! deterministic function of the window size alone: thread count changes
//! wall-clock, never the index. [`PllIndex::build`] is the window-size-1
//! special case (classic maximally pruned sequential PLL).
//!
//! Every BFS visit must be *certified*: is `dist(w, x) <= d` already
//! implied by the committed labels? One side of that 2-hop query — the
//! landmark's own label — is fixed for the whole traversal, so the
//! traversal loads it **once** into a rank-indexed table
//! ([`BatchScratch::load_source`]) and certifies each visited node with a
//! single pass over *that node's* label ([`BatchScratch::probe`], cut off
//! at the landmark's highest rank) instead of a two-sided merge-join per
//! visit. A forward BFS tables `L_out(w)` and probes `L_in(x)`; a backward
//! BFS tables `L_in(w)` and probes `L_out(x)` — the table is only
//! rank-indexed, it does not care which direction filled it. The probe
//! returns exactly the merge-join's minimum, so the labels are
//! bit-identical to a merge-join-certified build. Incremental repair
//! ([`crate::repair_insertions`]) resumes the same traversals through the
//! same [`BuildLabels`] store and certifier, so build and repair cannot
//! diverge. Each worker reuses its BFS scratch (bitset + queue) and its
//! certification table across the landmarks it processes.

use crate::kernel::{self, BatchScratch, MIN_GROUP};
use crate::oracle::DistanceOracle;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use wqe_graph::{Graph, LoadError, NodeId};
use wqe_pool::obs;
use wqe_pool::WorkerPool;

/// Landmarks per parallel construction window. Fixed (rather than derived
/// from the thread count) so that `build_with` produces bit-identical
/// labels regardless of parallelism; 32 keeps workers saturated while
/// bounding how much pruning is deferred.
const PARALLEL_WINDOW: usize = 32;

/// The label arrays of a PLL index in their flat struct-of-arrays form:
/// per direction, a contiguous rank array, a parallel distance array, and
/// per-node entry offsets. This is both the in-memory layout of
/// [`PllIndex`] and the exchange type with the durable snapshot (which
/// persists each array as its own section).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PllParts {
    /// Per-node entry offsets into the `out_*` arrays, `n + 1` values.
    pub out_offsets: Vec<u32>,
    /// `L_out` landmark ranks, ascending within each node's run.
    pub out_ranks: Vec<u32>,
    /// `L_out` distances, parallel to `out_ranks`.
    pub out_dists: Vec<u32>,
    /// Per-node entry offsets into the `in_*` arrays.
    pub in_offsets: Vec<u32>,
    /// `L_in` landmark ranks, ascending within each node's run.
    pub in_ranks: Vec<u32>,
    /// `L_in` distances, parallel to `in_ranks`.
    pub in_dists: Vec<u32>,
}

fn validate_label_csr(
    section: &'static str,
    offsets: &[u32],
    ranks: &[u32],
    dists: &[u32],
) -> Result<(), LoadError> {
    let corrupt = |detail: String| LoadError::Corrupt { section, detail };
    if offsets.is_empty() || offsets[0] != 0 {
        return Err(corrupt("offsets must start with 0".to_string()));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(corrupt("offsets not monotonic".to_string()));
    }
    if ranks.len() != dists.len() {
        return Err(corrupt(format!(
            "{} ranks but {} distances (parallel arrays expected)",
            ranks.len(),
            dists.len()
        )));
    }
    let last = *offsets.last().expect("nonempty checked above") as usize;
    if last != ranks.len() {
        return Err(corrupt(format!(
            "last offset {last} != entry count {}",
            ranks.len()
        )));
    }
    let n = offsets.len() as u64 - 1;
    for w in offsets.windows(2) {
        let run = &ranks[w[0] as usize..w[1] as usize];
        // The merge kernels assume ascending ranks; the batch table sizes
        // itself by the maximum rank, so ranks must stay below n.
        if run.windows(2).any(|r| r[0] >= r[1]) {
            return Err(corrupt("label ranks not strictly ascending".to_string()));
        }
        if run.last().is_some_and(|&r| r as u64 >= n) {
            return Err(corrupt(format!("label rank out of range (n = {n})")));
        }
    }
    Ok(())
}

/// Size and shape statistics of a label set — the `index inspect` payload
/// that makes index-size regressions observable.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct LabelStats {
    /// Nodes covered.
    pub nodes: usize,
    /// `L_out` entries across all nodes.
    pub out_entries: u64,
    /// `L_in` entries across all nodes.
    pub in_entries: u64,
    /// Total entries (both directions).
    pub total_entries: u64,
    /// Mean label length (entries per node per direction).
    pub avg_label_len: f64,
    /// Longest single label in either direction.
    pub max_label_len: u64,
    /// Bytes of label storage (ranks + distances + offsets, 4 bytes each).
    pub bytes: u64,
}

/// A view over *borrowed* flat label arrays — **the** query path: a
/// memory-mapped snapshot hands its aligned `u32` sections straight to
/// this view, and an owned [`PllIndex`] borrows its own arrays the same
/// way, so both answer with identical code and no per-node allocation.
///
/// Layout is exactly [`PllParts`]. [`PllSlices::new`] validates the CSR
/// invariants once, so the per-query merge-join can index without bounds
/// surprises.
#[derive(Debug, Clone, Copy)]
pub struct PllSlices<'a> {
    out_offsets: &'a [u32],
    out_ranks: &'a [u32],
    out_dists: &'a [u32],
    in_offsets: &'a [u32],
    in_ranks: &'a [u32],
    in_dists: &'a [u32],
}

impl<'a> PllSlices<'a> {
    /// Wraps flat label arrays, validating offsets/lengths/rank order up
    /// front (returns [`LoadError::Corrupt`], never panics on bad input).
    pub fn new(
        out_offsets: &'a [u32],
        out_ranks: &'a [u32],
        out_dists: &'a [u32],
        in_offsets: &'a [u32],
        in_ranks: &'a [u32],
        in_dists: &'a [u32],
    ) -> Result<Self, LoadError> {
        let slices = PllSlices::new_unchecked(
            out_offsets,
            out_ranks,
            out_dists,
            in_offsets,
            in_ranks,
            in_dists,
        );
        slices.validate()?;
        Ok(slices)
    }

    /// The checks [`PllSlices::new`] runs: CSR offsets, parallel lengths,
    /// strictly ascending in-range ranks, one offset run per node in both
    /// directions.
    pub(crate) fn validate(&self) -> Result<(), LoadError> {
        validate_label_csr("pll_out", self.out_offsets, self.out_ranks, self.out_dists)?;
        validate_label_csr("pll_in", self.in_offsets, self.in_ranks, self.in_dists)?;
        if self.out_offsets.len() != self.in_offsets.len() {
            return Err(LoadError::Corrupt {
                section: "pll_in",
                detail: format!(
                    "in-label offset count {} != out-label offset count {}",
                    self.in_offsets.len(),
                    self.out_offsets.len()
                ),
            });
        }
        Ok(())
    }

    /// Wraps flat label arrays *without* re-validating — for holders that
    /// ran [`PllSlices::new`] over the same arrays earlier (e.g. a
    /// snapshot validated once at open) and now reconstruct the view on
    /// every query. Queries over arrays that would not pass validation may
    /// panic on out-of-bounds indexing.
    pub(crate) fn new_unchecked(
        out_offsets: &'a [u32],
        out_ranks: &'a [u32],
        out_dists: &'a [u32],
        in_offsets: &'a [u32],
        in_ranks: &'a [u32],
        in_dists: &'a [u32],
    ) -> Self {
        PllSlices {
            out_offsets,
            out_ranks,
            out_dists,
            in_offsets,
            in_ranks,
            in_dists,
        }
    }

    /// Number of nodes the labels cover.
    pub fn node_count(&self) -> usize {
        self.out_offsets.len() - 1
    }

    /// `L_out(v)` as parallel (ranks, dists) slices.
    #[inline]
    fn out_label(&self, v: NodeId) -> (&'a [u32], &'a [u32]) {
        let lo = self.out_offsets[v.index()] as usize;
        let hi = self.out_offsets[v.index() + 1] as usize;
        (&self.out_ranks[lo..hi], &self.out_dists[lo..hi])
    }

    /// `L_in(v)` as parallel (ranks, dists) slices.
    #[inline]
    fn in_label(&self, v: NodeId) -> (&'a [u32], &'a [u32]) {
        let lo = self.in_offsets[v.index()] as usize;
        let hi = self.in_offsets[v.index() + 1] as usize;
        (&self.in_ranks[lo..hi], &self.in_dists[lo..hi])
    }

    /// Exact directed distance `dist(u, v)`, `None` when unreachable.
    pub fn distance(&self, u: NodeId, v: NodeId) -> Option<u32> {
        if u == v {
            return Some(0);
        }
        let (or_, od) = self.out_label(u);
        let (ir, id_) = self.in_label(v);
        let (d, scanned) = kernel::merge_join(or_, od, ir, id_);
        obs::with_current(|p| p.add(obs::Counter::OracleLabelEntries, scanned));
        (d != u32::MAX).then_some(d)
    }

    /// [`PllSlices::distance`] within `bound`, counted as one point oracle
    /// call.
    pub(crate) fn distance_within(&self, u: NodeId, v: NodeId, bound: u32) -> Option<u32> {
        obs::with_current(|p| p.add(obs::Counter::OracleDist, 1));
        self.distance(u, v).filter(|&d| d <= bound)
    }

    /// Batched distances with caller-provided scratch. Whenever one
    /// endpoint is shared by [`MIN_GROUP`] or more pairs, its label is
    /// loaded into the scratch table once and every pair is answered by a
    /// probe of the *other* endpoint's label under a rank cutoff:
    ///
    /// * **fixed source** (`(u, v1), (u, v2), …`): table `L_out(u)`, probe
    ///   each `L_in(v)`;
    /// * **fixed target** (`(u1, v), (u2, v), …`): table `L_in(v)`, probe
    ///   each `L_out(u)` — the shape the matcher's join produces for a
    ///   pattern edge leaving the node being placed.
    ///
    /// Both whole-batch shapes are detected by one linear scan; anything
    /// else is grouped by source (first-occurrence order), with groups of
    /// `MIN_GROUP` or more tabled and smaller ones merge-joined pairwise.
    /// Answers are bit-identical to pointwise
    /// [`PllSlices::distance`] on every path — the shape only
    /// changes how many label entries get scanned.
    pub(crate) fn dist_batch_with(
        &self,
        scratch: &mut BatchScratch,
        pairs: &[(NodeId, NodeId)],
        bound: u32,
    ) -> Vec<Option<u32>> {
        let mut out = vec![None; pairs.len()];
        let mut scanned = 0u64;
        let within = |d: u32| (d != u32::MAX && d <= bound).then_some(d);
        let shared = match pairs.first() {
            Some(&(u0, v0)) if pairs.len() >= MIN_GROUP => {
                if pairs.iter().all(|&(u, _)| u == u0) {
                    Some(true)
                } else if pairs.iter().all(|&(_, v)| v == v0) {
                    Some(false)
                } else {
                    None
                }
            }
            _ => None,
        };
        if let Some(fixed_source) = shared {
            let (fr, fd) = if fixed_source {
                self.out_label(pairs[0].0)
            } else {
                self.in_label(pairs[0].1)
            };
            scanned += scratch.load_source(fr, fd);
            for (slot, &(u, v)) in out.iter_mut().zip(pairs) {
                if u == v {
                    *slot = Some(0);
                    continue;
                }
                let (pr, pd) = if fixed_source {
                    self.in_label(v)
                } else {
                    self.out_label(u)
                };
                let (d, s) = scratch.probe(pr, pd);
                scanned += s;
                *slot = within(d);
            }
            obs::with_current(|p| p.add(obs::Counter::OracleLabelEntries, scanned));
            return out;
        }
        let mut order: Vec<NodeId> = Vec::new();
        let mut groups: HashMap<NodeId, Vec<u32>> = HashMap::new();
        for (idx, &(u, _)) in pairs.iter().enumerate() {
            groups
                .entry(u)
                .or_insert_with(|| {
                    order.push(u);
                    Vec::new()
                })
                .push(idx as u32);
        }
        for u in order {
            let idxs = &groups[&u];
            let (or_, od) = self.out_label(u);
            let tabled = idxs.len() >= MIN_GROUP;
            if tabled {
                scanned += scratch.load_source(or_, od);
            }
            for &ix in idxs {
                let v = pairs[ix as usize].1;
                if u == v {
                    out[ix as usize] = Some(0);
                    continue;
                }
                let (ir, id_) = self.in_label(v);
                let (d, s) = if tabled {
                    scratch.probe(ir, id_)
                } else {
                    kernel::merge_join(or_, od, ir, id_)
                };
                scanned += s;
                out[ix as usize] = within(d);
            }
        }
        obs::with_current(|p| p.add(obs::Counter::OracleLabelEntries, scanned));
        out
    }

    /// Size statistics over the label arrays (see [`LabelStats`]).
    pub fn stats(&self) -> LabelStats {
        let out_entries = self.out_ranks.len() as u64;
        let in_entries = self.in_ranks.len() as u64;
        let nodes = self.node_count();
        let max_label_len = self
            .out_offsets
            .windows(2)
            .chain(self.in_offsets.windows(2))
            .map(|w| (w[1] - w[0]) as u64)
            .max()
            .unwrap_or(0);
        let total_entries = out_entries + in_entries;
        LabelStats {
            nodes,
            out_entries,
            in_entries,
            total_entries,
            avg_label_len: if nodes == 0 {
                0.0
            } else {
                total_entries as f64 / (2 * nodes) as f64
            },
            max_label_len,
            bytes: 4
                * (2 * total_entries
                    + self.out_offsets.len() as u64
                    + self.in_offsets.len() as u64),
        }
    }
}

/// Per-worker BFS scratch for the pruned landmark searches: a bitset
/// visited array plus a flat FIFO queue, reset via the queue so a build
/// allocates O(n) once per worker instead of once per landmark.
struct BfsScratch {
    visited: Vec<u64>,
    queue: Vec<NodeId>,
}

impl BfsScratch {
    fn new(n: usize) -> Self {
        BfsScratch {
            visited: vec![0; n.div_ceil(64)],
            queue: Vec::with_capacity(n),
        }
    }

    /// Marks node `i` visited; returns true when it was previously unseen.
    #[inline]
    fn visit(&mut self, i: usize) -> bool {
        let word = &mut self.visited[i >> 6];
        let bit = 1u64 << (i & 63);
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }
}

/// The one build-time label store: per-node rank/distance vectors per
/// direction, shared by static construction and incremental repair
/// ([`crate::repair_insertions`]) and flattened into [`PllParts`] when
/// either finishes. It owns the table certifier, so the two cannot drift
/// apart in how a BFS visit is pruned.
///
/// Traversals are described by a `forward` flag. A forward traversal from
/// landmark `w` reads the *fixed* side `L_out(w)` and probes/writes the
/// `L_in` labels of the nodes it visits; a backward traversal is the
/// mirror image (`L_in(w)` fixed, `L_out(x)` probed and written).
pub(crate) struct BuildLabels {
    out_ranks: Vec<Vec<u32>>,
    out_dists: Vec<Vec<u32>>,
    in_ranks: Vec<Vec<u32>>,
    in_dists: Vec<Vec<u32>>,
}

impl BuildLabels {
    fn new(n: usize) -> Self {
        BuildLabels {
            out_ranks: vec![Vec::new(); n],
            out_dists: vec![Vec::new(); n],
            in_ranks: vec![Vec::new(); n],
            in_dists: vec![Vec::new(); n],
        }
    }

    /// Cuts flat label arrays back into per-node vectors (repair input).
    pub(crate) fn unflatten(parts: &PllParts) -> Self {
        let cut = |offsets: &[u32], flat: &[u32]| -> Vec<Vec<u32>> {
            offsets
                .windows(2)
                .map(|w| flat[w[0] as usize..w[1] as usize].to_vec())
                .collect()
        };
        BuildLabels {
            out_ranks: cut(&parts.out_offsets, &parts.out_ranks),
            out_dists: cut(&parts.out_offsets, &parts.out_dists),
            in_ranks: cut(&parts.in_offsets, &parts.in_ranks),
            in_dists: cut(&parts.in_offsets, &parts.in_dists),
        }
    }

    pub(crate) fn flatten(self) -> PllParts {
        let fold = |ranks: Vec<Vec<u32>>, dists: Vec<Vec<u32>>| {
            let total = ranks.iter().map(Vec::len).sum::<usize>();
            let mut offsets = Vec::with_capacity(ranks.len() + 1);
            let mut flat_r = Vec::with_capacity(total);
            let mut flat_d = Vec::with_capacity(total);
            offsets.push(0u32);
            for (r, d) in ranks.into_iter().zip(dists) {
                flat_r.extend_from_slice(&r);
                flat_d.extend_from_slice(&d);
                offsets.push(flat_r.len() as u32);
            }
            (offsets, flat_r, flat_d)
        };
        let (out_offsets, out_ranks, out_dists) = fold(self.out_ranks, self.out_dists);
        let (in_offsets, in_ranks, in_dists) = fold(self.in_ranks, self.in_dists);
        PllParts {
            out_offsets,
            out_ranks,
            out_dists,
            in_offsets,
            in_ranks,
            in_dists,
        }
    }

    /// The label a `forward` traversal probes and writes at node `x`:
    /// `L_in(x)` forward, `L_out(x)` backward.
    pub(crate) fn visited_label(&self, x: usize, forward: bool) -> (&[u32], &[u32]) {
        if forward {
            (&self.in_ranks[x], &self.in_dists[x])
        } else {
            (&self.out_ranks[x], &self.out_dists[x])
        }
    }

    fn visited_label_mut(&mut self, x: usize, forward: bool) -> (&mut Vec<u32>, &mut Vec<u32>) {
        if forward {
            (&mut self.in_ranks[x], &mut self.in_dists[x])
        } else {
            (&mut self.out_ranks[x], &mut self.out_dists[x])
        }
    }

    /// Starts a traversal from landmark node `w`: loads the side of its
    /// label that stays fixed throughout (`L_out(w)` forward, `L_in(w)`
    /// backward) into the certification table, replacing the previous
    /// landmark's.
    pub(crate) fn load_landmark(&self, table: &mut BatchScratch, w: usize, forward: bool) {
        let (ranks, dists) = self.visited_label(w, !forward);
        table.load_source(ranks, dists);
    }

    /// `min(dist(landmark, hub) + dist(hub, x))` over the current labels
    /// (mirrored when backward), `u32::MAX` when no hub connects them: one
    /// probe of `x`'s label against the table [`Self::load_landmark`]
    /// filled — the same minimum a merge-join of the two labels yields.
    #[inline]
    pub(crate) fn certified(&self, table: &BatchScratch, x: usize, forward: bool) -> u32 {
        let (ranks, dists) = self.visited_label(x, forward);
        table.probe(ranks, dists).0
    }

    /// Appends entry `(rank, d)` to the label a `forward` traversal writes
    /// at `x`. Static construction commits ranks in increasing order, so
    /// appending keeps the label rank-sorted.
    fn push(&mut self, x: usize, forward: bool, rank: u32, d: u32) {
        let (ranks, dists) = self.visited_label_mut(x, forward);
        debug_assert!(ranks.last().is_none_or(|&r| r < rank));
        ranks.push(rank);
        dists.push(d);
    }

    /// Inserts or min-updates entry `(rank, d)` in the label a `forward`
    /// traversal writes at `x`, keeping the rank order the kernels require
    /// (repair patches labels out of rank order).
    pub(crate) fn upsert(&mut self, x: usize, forward: bool, rank: u32, d: u32) {
        let (ranks, dists) = self.visited_label_mut(x, forward);
        match ranks.binary_search(&rank) {
            Ok(i) => dists[i] = dists[i].min(d),
            Err(i) => {
                ranks.insert(i, rank);
                dists.insert(i, d);
            }
        }
    }
}

/// The pruned-landmark-labeling index, stored flat ([`PllParts`]).
///
/// Serializable: build once, persist with `serde_json`/any serde format,
/// and reload beside the graph (the index is only valid for the exact graph
/// it was built from).
#[derive(Serialize, Deserialize)]
pub struct PllIndex {
    parts: PllParts,
}

impl PllIndex {
    /// Builds the index over `graph`, sequentially, with maximal pruning
    /// (every landmark prunes against all previously labeled landmarks).
    /// Time is `O(Σ label sizes · avg degree)` in practice; labels stay
    /// small on small-world graphs.
    pub fn build(graph: &Graph) -> Self {
        Self::build_windowed(graph, 1, 1)
    }

    /// Builds the index with rank-windowed parallel BFS batches (see the
    /// module docs). `threads = 0` means auto (one worker per core); the
    /// resulting labels are identical for every thread count.
    pub fn build_with(graph: &Graph, threads: usize) -> Self {
        Self::build_windowed(graph, threads, PARALLEL_WINDOW)
    }

    fn build_windowed(graph: &Graph, threads: usize, window: usize) -> Self {
        let n = graph.node_count();
        // Rank vertices by the product of (out+1) and (in+1) degree,
        // descending: like the classic total-degree ordering it puts hubs
        // first, but it prefers vertices central in *both* directions,
        // which prunes directed searches earlier. Stable sort keeps the
        // order deterministic across runs.
        let mut order: Vec<NodeId> = graph.node_ids().collect();
        order.sort_by_key(|&v| {
            std::cmp::Reverse((graph.out_degree(v) + 1) * (graph.in_degree(v) + 1))
        });

        let mut labels = BuildLabels::new(n);
        let pool = WorkerPool::new(threads);
        let window = window.max(1);

        for (chunk_no, chunk) in order.chunks(window).enumerate() {
            let base_rank = (chunk_no * window) as u32;
            // Run each landmark's forward + backward pruned BFS against the
            // labels frozen from previous windows. `labels` is only read
            // here; entries are committed below, in rank order.
            type LandmarkLabels = (Vec<(NodeId, u32)>, Vec<(NodeId, u32)>);
            let results: Vec<LandmarkLabels> = pool.map_init(
                chunk,
                || (BfsScratch::new(n), BatchScratch::new()),
                |(bfs, table), _, &w| {
                    let fwd = Self::pruned_bfs(graph, w, true, &labels, bfs, table);
                    let bwd = Self::pruned_bfs(graph, w, false, &labels, bfs, table);
                    (fwd, bwd)
                },
            );
            for (i, (fwd, bwd)) in results.into_iter().enumerate() {
                let wrank = base_rank + i as u32;
                for (u, d) in fwd {
                    labels.push(u.index(), true, wrank, d);
                }
                for (u, d) in bwd {
                    labels.push(u.index(), false, wrank, d);
                }
            }
        }

        PllIndex {
            parts: labels.flatten(),
        }
    }

    /// One pruned BFS from landmark `w`, certifying against the frozen
    /// `labels` (the landmark's fixed side is tabled once, up front; each
    /// visit is one probe) and *collecting* the entries `(vertex,
    /// distance)` instead of writing them (so concurrent BFS runs can
    /// share the frozen labels immutably). The traversal is level-ordered: the level index *is*
    /// the distance, so the scratch needs only a visited bitset, no
    /// per-node distance array. Within a single landmark this is
    /// equivalent to the classic in-place formulation: a landmark's own
    /// entries never influence its own certifications (the forward pass
    /// only writes `in` labels, which forward certification reads for the
    /// vertex *before* its entry is added; the backward pass reads
    /// `out(u)`, which cannot yet contain `w`).
    fn pruned_bfs(
        graph: &Graph,
        w: NodeId,
        forward: bool,
        labels: &BuildLabels,
        scratch: &mut BfsScratch,
        table: &mut BatchScratch,
    ) -> Vec<(NodeId, u32)> {
        labels.load_landmark(table, w.index(), forward);
        scratch.queue.clear();
        scratch.queue.push(w);
        scratch.visit(w.index());
        let mut head = 0usize;
        let mut d = 0u32;
        let mut level_end = 1usize;
        let mut labeled: Vec<(NodeId, u32)> = Vec::new();
        while head < scratch.queue.len() {
            if head == level_end {
                d += 1;
                level_end = scratch.queue.len();
            }
            let u = scratch.queue[head];
            head += 1;
            // Prune if existing labels already certify dist(w,u) <= d
            // (forward: w -> u; backward: u -> w).
            if labels.certified(table, u.index(), forward) <= d {
                continue;
            }
            // Record the label. Ranks are committed in increasing order
            // across windows, so labels remain sorted by rank.
            labeled.push((u, d));
            let neighbors = if forward {
                graph.out_neighbors(u)
            } else {
                graph.in_neighbors(u)
            };
            for &(x, _) in neighbors {
                if scratch.visit(x.index()) {
                    scratch.queue.push(x);
                }
            }
        }
        for i in 0..scratch.queue.len() {
            let v = scratch.queue[i];
            scratch.visited[v.index() >> 6] &= !(1u64 << (v.index() & 63));
        }
        labeled
    }

    /// The labels as a borrowed [`PllSlices`] view (the query path).
    pub fn as_slices(&self) -> PllSlices<'_> {
        let p = &self.parts;
        PllSlices::new_unchecked(
            &p.out_offsets,
            &p.out_ranks,
            &p.out_dists,
            &p.in_offsets,
            &p.in_ranks,
            &p.in_dists,
        )
    }

    /// Exact directed distance `dist(u, v)`, `None` when unreachable.
    pub fn distance(&self, u: NodeId, v: NodeId) -> Option<u32> {
        self.as_slices().distance(u, v)
    }

    /// Total number of label entries (index size diagnostic).
    pub fn label_entries(&self) -> usize {
        self.parts.out_ranks.len() + self.parts.in_ranks.len()
    }

    /// Size statistics over the label arrays (see [`LabelStats`]).
    pub fn stats(&self) -> LabelStats {
        self.as_slices().stats()
    }

    /// The flat label arrays, borrowed — what the snapshot writer and the
    /// repair tier read, so serializing an index never copies it first.
    pub fn parts(&self) -> &PllParts {
        &self.parts
    }

    /// The flat label arrays, cloned (an owned exchange copy).
    pub fn to_parts(&self) -> PllParts {
        self.parts.clone()
    }

    /// Rebuilds an index from flat parts without any BFS — the
    /// snapshot-load fast path. Validates CSR invariants and returns
    /// [`LoadError::Corrupt`] on violation; never panics.
    pub fn from_parts(parts: PllParts) -> Result<PllIndex, LoadError> {
        PllSlices::new(
            &parts.out_offsets,
            &parts.out_ranks,
            &parts.out_dists,
            &parts.in_offsets,
            &parts.in_ranks,
            &parts.in_dists,
        )?;
        Ok(PllIndex { parts })
    }
}

/// Serves tests and one-off callers: each batch allocates a one-shot
/// [`BatchScratch`]. Production contexts serve labels through
/// [`crate::Oracle`], which keeps one.
impl DistanceOracle for PllIndex {
    fn distance_within(&self, u: NodeId, v: NodeId, bound: u32) -> Option<u32> {
        self.as_slices().distance_within(u, v, bound)
    }

    fn dist_batch(&self, pairs: &[(NodeId, NodeId)], bound: u32) -> Vec<Option<u32>> {
        obs::with_current(|p| p.add(obs::Counter::OracleDistBatch, 1));
        self.as_slices()
            .dist_batch_with(&mut BatchScratch::new(), pairs, bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wqe_graph::GraphBuilder;

    fn brute_distance(g: &Graph, u: NodeId, v: NodeId) -> Option<u32> {
        g.bounded_bfs(u, u32::MAX)
            .into_iter()
            .find(|&(x, _)| x == v)
            .map(|(_, d)| d)
    }

    fn check_all_pairs(g: &Graph) {
        let idx = PllIndex::build(g);
        let par = PllIndex::build_with(g, 4);
        for u in g.node_ids() {
            for v in g.node_ids() {
                let truth = brute_distance(g, u, v);
                assert_eq!(idx.distance(u, v), truth, "seq mismatch for {u:?}->{v:?}");
                assert_eq!(par.distance(u, v), truth, "par mismatch for {u:?}->{v:?}");
            }
        }
    }

    #[test]
    fn path_graph() {
        let mut b = GraphBuilder::new();
        let ids: Vec<_> = (0..6).map(|_| b.add_node("N", [])).collect();
        for w in ids.windows(2) {
            b.add_edge(w[0], w[1], "e");
        }
        check_all_pairs(&b.finalize());
    }

    #[test]
    fn directed_cycle() {
        let mut b = GraphBuilder::new();
        let ids: Vec<_> = (0..7).map(|_| b.add_node("N", [])).collect();
        for i in 0..7 {
            b.add_edge(ids[i], ids[(i + 1) % 7], "e");
        }
        check_all_pairs(&b.finalize());
    }

    #[test]
    fn disconnected_components() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("N", []);
        let c = b.add_node("N", []);
        let d = b.add_node("N", []);
        b.add_edge(a, c, "e");
        let g = b.finalize();
        let idx = PllIndex::build(&g);
        assert_eq!(idx.distance(a, c), Some(1));
        assert_eq!(idx.distance(a, d), None);
        assert_eq!(idx.distance(c, a), None);
    }

    #[test]
    fn star_graph() {
        let mut b = GraphBuilder::new();
        let hub = b.add_node("H", []);
        let leaves: Vec<_> = (0..8).map(|_| b.add_node("L", [])).collect();
        for &l in &leaves {
            b.add_edge(hub, l, "e");
            b.add_edge(l, hub, "e");
        }
        check_all_pairs(&b.finalize());
    }

    #[test]
    fn dag_with_shortcuts() {
        let mut b = GraphBuilder::new();
        let ids: Vec<_> = (0..8).map(|_| b.add_node("N", [])).collect();
        for w in ids.windows(2) {
            b.add_edge(w[0], w[1], "e");
        }
        b.add_edge(ids[0], ids[4], "e"); // shortcut
        b.add_edge(ids[2], ids[7], "e"); // shortcut
        check_all_pairs(&b.finalize());
    }

    fn twisty_graph(n: usize) -> Graph {
        let mut b = GraphBuilder::new();
        let ids: Vec<_> = (0..n).map(|_| b.add_node("N", [])).collect();
        for i in 0..n {
            b.add_edge(ids[i], ids[(i + 1) % n], "e");
            b.add_edge(ids[i], ids[(i * 7 + 3) % n], "e");
        }
        b.finalize()
    }

    #[test]
    fn windowed_labels_independent_of_thread_count() {
        // Labels (not just answers) must be a function of the window size
        // alone: 1, 2, and 8 threads produce the same index bytes.
        let g = twisty_graph(40);
        let one = serde_json::to_string(&PllIndex::build_with(&g, 1)).unwrap();
        for threads in [2, 8] {
            let t = serde_json::to_string(&PllIndex::build_with(&g, threads)).unwrap();
            assert_eq!(one, t, "labels diverged at {threads} threads");
        }
    }

    #[test]
    fn windowed_build_at_most_slightly_less_pruned() {
        // The windowed build may keep redundant entries (intra-window
        // landmarks cannot prune against each other) but never fewer than
        // the sequential build, and answers stay exact (checked above).
        let mut b = GraphBuilder::new();
        let ids: Vec<_> = (0..60).map(|_| b.add_node("N", [])).collect();
        for i in 0..60usize {
            b.add_edge(ids[i], ids[(i + 1) % 60], "e");
            if i % 3 == 0 {
                b.add_edge(ids[i], ids[(i + 11) % 60], "e");
            }
        }
        let g = b.finalize();
        let seq = PllIndex::build(&g);
        let par = PllIndex::build_with(&g, 4);
        assert!(par.label_entries() >= seq.label_entries());
    }

    #[test]
    fn dist_batch_matches_pointwise() {
        // Mixed group sizes: one source with many targets (table path),
        // several with a single target (pairwise path), self pairs, and
        // repeated pairs.
        let g = twisty_graph(30);
        let idx = PllIndex::build_with(&g, 2);
        let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
        for v in g.node_ids() {
            pairs.push((NodeId(0), v)); // big group
        }
        for u in g.node_ids().take(7) {
            pairs.push((u, NodeId(29))); // singleton groups (and one dup)
        }
        pairs.push((NodeId(3), NodeId(3)));
        pairs.push((NodeId(0), NodeId(5))); // repeat inside the big group
        for bound in [0, 2, 4, u32::MAX] {
            let batched = idx.dist_batch(&pairs, bound);
            for (&(u, v), got) in pairs.iter().zip(&batched) {
                assert_eq!(
                    *got,
                    idx.distance_within(u, v, bound),
                    "bound {bound}, {u:?}->{v:?}"
                );
            }
        }
    }

    #[test]
    fn dist_batch_counts_label_entries() {
        let g = twisty_graph(30);
        let idx = PllIndex::build(&g);
        let pairs: Vec<(NodeId, NodeId)> = g.node_ids().map(|v| (NodeId(0), v)).collect();
        let p = std::sync::Arc::new(obs::Profiler::new());
        {
            let _scope = wqe_pool::scope::Scope {
                profiler: Some(std::sync::Arc::clone(&p)),
                ..wqe_pool::scope::Scope::default()
            }
            .enter();
            idx.dist_batch(&pairs, 4);
        }
        assert!(p.counter(obs::Counter::OracleLabelEntries) > 0);
        assert_eq!(p.counter(obs::Counter::OracleDistBatch), 1);
    }

    #[test]
    fn label_stats_consistent() {
        let g = twisty_graph(25);
        let idx = PllIndex::build(&g);
        let s = idx.stats();
        assert_eq!(s.nodes, 25);
        assert_eq!(s.total_entries, idx.label_entries() as u64);
        assert_eq!(s.out_entries + s.in_entries, s.total_entries);
        assert!(s.max_label_len >= 1);
        assert!(s.avg_label_len > 0.0);
        assert_eq!(s.bytes, 4 * (2 * s.total_entries + 2 * 26));
    }
}

#[cfg(test)]
mod persistence_tests {
    use super::*;
    use wqe_graph::GraphBuilder;

    #[test]
    fn serde_roundtrip_answers_identically() {
        let mut b = GraphBuilder::new();
        let ids: Vec<_> = (0..12).map(|_| b.add_node("N", [])).collect();
        for i in 0..12 {
            b.add_edge(ids[i], ids[(i + 1) % 12], "e");
            if i % 3 == 0 {
                b.add_edge(ids[i], ids[(i + 5) % 12], "e");
            }
        }
        let g = b.finalize();
        let idx = PllIndex::build(&g);
        let json = serde_json::to_string(&idx).expect("serialize");
        let idx2: PllIndex = serde_json::from_str(&json).expect("deserialize");
        for u in g.node_ids() {
            for v in g.node_ids() {
                assert_eq!(idx.distance(u, v), idx2.distance(u, v));
            }
        }
        assert_eq!(idx.label_entries(), idx2.label_entries());
    }

    fn dense_test_graph() -> Graph {
        let mut b = GraphBuilder::new();
        let ids: Vec<_> = (0..20).map(|_| b.add_node("N", [])).collect();
        for i in 0..20 {
            b.add_edge(ids[i], ids[(i + 1) % 20], "e");
            if i % 4 == 0 {
                b.add_edge(ids[i], ids[(i + 7) % 20], "e");
            }
        }
        b.finalize()
    }

    #[test]
    fn parts_roundtrip_preserves_labels_exactly() {
        let g = dense_test_graph();
        let idx = PllIndex::build_with(&g, 2);
        let idx2 = PllIndex::from_parts(idx.to_parts()).unwrap();
        // Label-level equality, not just answer equality.
        assert_eq!(idx.to_parts(), idx2.to_parts());
    }

    #[test]
    fn slices_answer_identically_to_owned_index() {
        let g = dense_test_graph();
        let idx = PllIndex::build(&g);
        let parts = idx.to_parts();
        let slices = PllSlices::new(
            &parts.out_offsets,
            &parts.out_ranks,
            &parts.out_dists,
            &parts.in_offsets,
            &parts.in_ranks,
            &parts.in_dists,
        )
        .unwrap();
        assert_eq!(slices.node_count(), g.node_count());
        for u in g.node_ids() {
            for v in g.node_ids() {
                assert_eq!(slices.distance(u, v), idx.distance(u, v), "{u:?}->{v:?}");
                assert_eq!(
                    slices.distance_within(u, v, 3),
                    idx.distance_within(u, v, 3)
                );
            }
        }
        let pairs: Vec<(NodeId, NodeId)> = g.node_ids().map(|v| (NodeId(2), v)).collect();
        assert_eq!(
            slices.dist_batch_with(&mut BatchScratch::new(), &pairs, 4),
            idx.dist_batch(&pairs, 4)
        );
    }

    #[test]
    fn corrupt_parts_rejected_not_panicking() {
        let g = dense_test_graph();
        let parts = PllIndex::build(&g).to_parts();

        let mut p = parts.clone();
        p.out_offsets[3] = u32::MAX; // non-monotonic + out of range
        assert!(matches!(
            PllIndex::from_parts(p),
            Err(LoadError::Corrupt {
                section: "pll_out",
                ..
            })
        ));

        let mut p = parts.clone();
        p.in_dists.pop(); // ranks/dists no longer parallel
        assert!(matches!(
            PllIndex::from_parts(p),
            Err(LoadError::Corrupt {
                section: "pll_in",
                ..
            })
        ));

        let mut p = parts.clone();
        p.in_offsets.pop(); // node-count mismatch vs out side
        let err = PllIndex::from_parts(p);
        assert!(matches!(err, Err(LoadError::Corrupt { .. })));

        let mut p = parts.clone();
        p.out_ranks.pop(); // last offset dangling
        p.out_dists.pop();
        assert!(matches!(
            PllIndex::from_parts(p),
            Err(LoadError::Corrupt {
                section: "pll_out",
                ..
            })
        ));

        let mut p = parts.clone();
        if let Some(run) = p
            .out_offsets
            .windows(2)
            .position(|w| w[1] - w[0] >= 2)
            .map(|v| p.out_offsets[v] as usize)
        {
            p.out_ranks.swap(run, run + 1); // ranks out of order
            assert!(matches!(
                PllIndex::from_parts(p),
                Err(LoadError::Corrupt {
                    section: "pll_out",
                    ..
                })
            ));
        }

        let mut p = parts.clone();
        if let Some(r) = p.out_ranks.last_mut() {
            *r = u32::MAX; // rank out of range: would blow up the table
        }
        assert!(matches!(
            PllIndex::from_parts(p),
            Err(LoadError::Corrupt { .. })
        ));

        assert!(matches!(
            PllSlices::new(&[], &[], &[], &[0], &[], &[]),
            Err(LoadError::Corrupt { .. })
        ));
    }
}
