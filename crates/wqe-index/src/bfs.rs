//! Bounded breadth-first-search distance oracle with memoization.
//!
//! Pattern matching mostly asks for distances up to the maximum edge bound
//! `b_m` (§2.1), so reach sets truncated at a small horizon are memoized
//! per source node: Q-Chase re-evaluates highly similar queries over the
//! same candidates (§5.2 "Caching the Stars" makes the same observation
//! for star views). A deeper bound is still answered exactly, by a
//! traversal that is not memoized.

use crate::oracle::DistanceOracle;
use std::collections::HashMap;
use std::sync::Arc;
use std::sync::{Mutex, PoisonError, RwLock, TryLockError};
use wqe_graph::{Graph, NodeId};
use wqe_pool::governor::{self, Governor};
use wqe_pool::obs;

/// How many BFS pops happen between governor polls. Coarse enough to keep
/// the check off the per-edge fast path, fine enough that a deadline stops
/// a huge traversal within microseconds.
const GOVERNOR_POLL_INTERVAL: usize = 256;

/// Memoizing bounded-BFS oracle.
///
/// `horizon` is the memo depth: a query with `bound <= horizon` is answered
/// from the source's reach set truncated at the horizon, memoized; a larger
/// bound costs one uncached traversal to that bound. Answers are exact at
/// every bound. Memo entries are evicted FIFO once `capacity` sources are
/// cached.
///
/// Shares ownership of the graph, so the oracle is `'static`: it can be put
/// behind an `Arc<dyn DistanceOracle>` and handed to any thread. The memo
/// table is internally synchronized; concurrent queries may race to compute
/// the same source's reach set, in which case the first insert wins and the
/// duplicates are dropped.
///
/// BFS traversals reuse a shared scratch buffer (distance array + queue)
/// across calls instead of reallocating per query; when several threads
/// miss the memo at once, the loser of the `try_lock` race falls back to a
/// one-shot local buffer, so scratch reuse never serializes queries.
pub struct BoundedBfsOracle {
    graph: Arc<Graph>,
    horizon: u32,
    capacity: usize,
    memo: RwLock<MemoState>,
    scratch: Mutex<BfsScratch>,
}

#[derive(Default)]
struct MemoState {
    map: HashMap<NodeId, Arc<HashMap<NodeId, u32>>>,
    order: std::collections::VecDeque<NodeId>,
}

/// Reusable BFS buffers: `dist` is node-indexed (`u32::MAX` = unvisited,
/// reset via the queue, which doubles as the visited list), `queue` is a
/// flat ring with a head cursor.
#[derive(Default)]
struct BfsScratch {
    dist: Vec<u32>,
    queue: Vec<NodeId>,
}

impl BfsScratch {
    /// Runs a bounded BFS from `u`, returning the reach map and whether the
    /// traversal ran to completion. Leaves the buffers clean (all touched
    /// `dist` slots reset) for the next call.
    ///
    /// When a governor is supplied, the loop polls it every
    /// [`GOVERNOR_POLL_INTERVAL`] pops and aborts once the query is
    /// cancelled, past its deadline, or out of step budget; the partial
    /// reach map is still internally consistent (distances present are
    /// exact) but *incomplete* — callers must treat `complete == false` as
    /// "do not memoize".
    fn bounded_bfs(
        &mut self,
        graph: &Graph,
        u: NodeId,
        depth: u32,
        gov: Option<&Governor>,
    ) -> (HashMap<NodeId, u32>, bool) {
        if self.dist.len() < graph.node_count() {
            self.dist.resize(graph.node_count(), u32::MAX);
        }
        self.queue.clear();
        self.queue.push(u);
        self.dist[u.index()] = 0;
        let mut head = 0usize;
        let mut complete = true;
        while head < self.queue.len() {
            if let Some(g) = gov {
                if head % GOVERNOR_POLL_INTERVAL == GOVERNOR_POLL_INTERVAL - 1
                    && (g.halt().is_some() || g.step_budget_exhausted())
                {
                    complete = false;
                    break;
                }
            }
            let x = self.queue[head];
            head += 1;
            let d = self.dist[x.index()];
            if d == depth {
                continue;
            }
            for &(y, _) in graph.out_neighbors(x) {
                if self.dist[y.index()] == u32::MAX {
                    self.dist[y.index()] = d + 1;
                    self.queue.push(y);
                }
            }
        }
        if let Some(g) = gov {
            g.charge_oracle_steps(head as u64);
        }
        let reach = self
            .queue
            .iter()
            .map(|&v| (v, self.dist[v.index()]))
            .collect();
        for &v in &self.queue {
            self.dist[v.index()] = u32::MAX;
        }
        (reach, complete)
    }
}

impl BoundedBfsOracle {
    /// Creates an oracle over `graph` that memoizes reach sets `horizon`
    /// hops deep.
    pub fn new(graph: Arc<Graph>, horizon: u32) -> Self {
        BoundedBfsOracle {
            graph,
            horizon,
            capacity: 100_000,
            memo: RwLock::new(MemoState::default()),
            scratch: Mutex::new(BfsScratch::default()),
        }
    }

    /// Overrides the memo capacity (number of cached source nodes).
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity.max(1);
        self
    }

    /// The graph the oracle answers for.
    pub(crate) fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// Number of memoized sources (for tests and instrumentation).
    pub fn cached_sources(&self) -> usize {
        self.memo
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .map
            .len()
    }

    /// The memo is shared by every session on the context, so its locks
    /// recover from poison: a panic in one session (an injected pool-worker
    /// fault, or a bug in a verifier thread) must never take the cache
    /// down for its siblings. The map itself is
    /// never left mid-update by the code below — entries are inserted with
    /// a single `insert` after being fully computed.
    fn reach_from(&self, u: NodeId, depth: u32) -> Arc<HashMap<NodeId, u32>> {
        self.memoized(u, depth)
            .unwrap_or_else(|| self.traverse(u, depth))
    }

    /// The memoized reach set of `u`, if any and `depth` is the horizon.
    fn memoized(&self, u: NodeId, depth: u32) -> Option<Arc<HashMap<NodeId, u32>>> {
        if depth != self.horizon {
            return None;
        }
        self.memo
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .map
            .get(&u)
            .cloned()
    }

    /// Runs the cold traversal from `u` to `depth` hops, memoizing it when
    /// it is complete and exactly `horizon` deep.
    fn traverse(&self, u: NodeId, depth: u32) -> Arc<HashMap<NodeId, u32>> {
        // The active session's governor (if any) bounds the traversal. All
        // three scratch paths — the shared buffer, the poison-recovered
        // buffer, and the `WouldBlock` one-shot fallback — honor it.
        let gov = governor::current();
        let gov = gov.as_deref();
        // Span the cold traversal only: memo-served calls are counted (in
        // `distance_within` / `dist_batch`) but not timed.
        let span = obs::span(obs::Stage::Oracle);
        let (computed, complete) = match self.scratch.try_lock() {
            Ok(mut scratch) => scratch.bounded_bfs(&self.graph, u, depth, gov),
            Err(TryLockError::Poisoned(p)) => {
                p.into_inner().bounded_bfs(&self.graph, u, depth, gov)
            }
            // Another thread holds the scratch: do not serialize on it.
            Err(TryLockError::WouldBlock) => {
                BfsScratch::default().bounded_bfs(&self.graph, u, depth, gov)
            }
        };
        drop(span);
        let arc = Arc::new(computed);
        // A governed abort leaves the reach map incomplete; memoizing it
        // would silently corrupt *other* sessions sharing this oracle, so
        // partial results are returned to the aborting query only.
        if !complete || depth != self.horizon {
            return arc;
        }
        let mut state = self.memo.write().unwrap_or_else(PoisonError::into_inner);
        if !state.map.contains_key(&u) {
            if state.map.len() >= self.capacity {
                if let Some(old) = state.order.pop_front() {
                    state.map.remove(&old);
                }
            }
            state.map.insert(u, Arc::clone(&arc));
            state.order.push_back(u);
        }
        arc
    }
}

impl DistanceOracle for BoundedBfsOracle {
    fn distance_within(&self, u: NodeId, v: NodeId, bound: u32) -> Option<u32> {
        obs::with_current(|p| p.add(obs::Counter::OracleDist, 1));
        let reach = self.reach_from(u, bound.max(self.horizon));
        reach.get(&v).copied().filter(|&d| d <= bound)
    }

    /// Batched queries run at most **one** traversal per distinct source
    /// node in the batch. A pair repeating the previous pair's source (the
    /// fixed-source shape) reuses its reach set outright; any other pair
    /// costs what a pointwise call does — one memo lookup — and only a
    /// memo *miss* goes through a per-batch map of the traversals this
    /// batch ran, so interleaved cold sources (`a, b, a, b, …`) cost two
    /// traversals, not one per run, even when the shared memo is too small
    /// to hold them. A bound past the horizon skips the memo: each distinct
    /// source costs one uncached traversal to the bound.
    ///
    /// The batch polls the active governor for cancellation/deadline at
    /// its first pair and every 64 pairs after — not per fresh source: a
    /// fixed-target batch (the matcher's join) has a fresh source on
    /// *every* pair, and each cold traversal already polls on its own. On
    /// a trip the remaining pairs come back `None` (conservatively
    /// unreachable) — by then the querying search is terminating and
    /// already tagged partial.
    fn dist_batch(&self, pairs: &[(NodeId, NodeId)], bound: u32) -> Vec<Option<u32>> {
        obs::with_current(|p| p.add(obs::Counter::OracleDistBatch, 1));
        let depth = bound.max(self.horizon);
        let gov = governor::current();
        let mut out = Vec::with_capacity(pairs.len());
        let mut traversed: HashMap<NodeId, Arc<HashMap<NodeId, u32>>> = HashMap::new();
        let mut last: Option<(NodeId, Arc<HashMap<NodeId, u32>>)> = None;
        for (i, &(u, v)) in pairs.iter().enumerate() {
            if let Some(g) = gov.as_deref() {
                if i % 64 == 0 && g.halt().is_some() {
                    out.resize(pairs.len(), None);
                    break;
                }
            }
            let reach = match &last {
                Some((lu, reach)) if *lu == u => reach,
                _ => {
                    let reach = self.memoized(u, depth).unwrap_or_else(|| {
                        Arc::clone(
                            traversed
                                .entry(u)
                                .or_insert_with(|| self.traverse(u, depth)),
                        )
                    });
                    &last.insert((u, reach)).1
                }
            };
            out.push(reach.get(&v).copied().filter(|&d| d <= bound));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wqe_graph::GraphBuilder;
    use wqe_pool::scope::Scope;

    fn cycle(n: usize) -> Arc<Graph> {
        let mut b = GraphBuilder::new();
        let ids: Vec<_> = (0..n).map(|_| b.add_node("N", [])).collect();
        for i in 0..n {
            b.add_edge(ids[i], ids[(i + 1) % n], "e");
        }
        Arc::new(b.finalize())
    }

    #[test]
    fn directed_cycle_distances() {
        let g = cycle(5);
        let o = BoundedBfsOracle::new(g, 4);
        assert_eq!(o.distance_within(NodeId(0), NodeId(2), 4), Some(2));
        // Going "backwards" needs 4 forward hops on the 5-cycle.
        assert_eq!(o.distance_within(NodeId(0), NodeId(4), 4), Some(4));
        assert_eq!(o.distance_within(NodeId(0), NodeId(4), 3), None);
    }

    #[test]
    fn bounds_past_the_horizon_stay_exact_and_skip_the_memo() {
        let g = cycle(10);
        let o = BoundedBfsOracle::new(Arc::clone(&g), 2);
        assert_eq!(o.distance_within(NodeId(0), NodeId(3), 9), Some(3));
        assert_eq!(o.distance_within(NodeId(0), NodeId(9), 8), None);
        assert_eq!(o.cached_sources(), 0, "deep traversals are not memoized");
        assert_eq!(o.distance_within(NodeId(0), NodeId(2), 9), Some(2));
        assert_eq!(
            o.dist_batch(&[(NodeId(0), NodeId(5)), (NodeId(0), NodeId(6))], 6),
            vec![Some(5), Some(6)]
        );
        assert_eq!(o.cached_sources(), 0);
        assert_eq!(o.distance_within(NodeId(0), NodeId(2), 2), Some(2));
        assert_eq!(o.cached_sources(), 1, "bounds within the horizon memoize");
    }

    #[test]
    fn self_distance_zero() {
        let g = cycle(3);
        let o = BoundedBfsOracle::new(g, 2);
        assert_eq!(o.distance_within(NodeId(1), NodeId(1), 0), Some(0));
    }

    #[test]
    fn dist_batch_matches_pointwise() {
        let g = cycle(9);
        let o = BoundedBfsOracle::new(Arc::clone(&g), 5);
        let mut pairs = Vec::new();
        for u in g.node_ids() {
            for v in g.node_ids() {
                pairs.push((u, v));
            }
        }
        let batched = o.dist_batch(&pairs, 4);
        for (&(u, v), got) in pairs.iter().zip(&batched) {
            assert_eq!(*got, o.distance_within(u, v, 4), "{u:?}->{v:?}");
        }
    }

    #[test]
    fn dist_batch_traverses_once_per_distinct_source() {
        // Interleaved sources with a memo too small to hold them: the
        // grouped batch still runs exactly one cold traversal (= one
        // Stage::Oracle span) per distinct source, and every answer
        // matches the pointwise oracle.
        let g = cycle(10);
        let o = BoundedBfsOracle::new(Arc::clone(&g), 5).with_capacity(1);
        let mut pairs = Vec::new();
        for v in 0..10u32 {
            for u in [0u32, 4, 7] {
                pairs.push((NodeId(u), NodeId(v)));
            }
        }
        let p = Arc::new(obs::Profiler::new());
        let batched = {
            let _scope = Scope {
                profiler: Some(Arc::clone(&p)),
                ..Scope::default()
            }
            .enter();
            o.dist_batch(&pairs, 4)
        };
        assert_eq!(
            p.snapshot().stage(obs::Stage::Oracle).count,
            3,
            "one traversal per distinct source"
        );
        for (&(u, v), got) in pairs.iter().zip(&batched) {
            assert_eq!(*got, o.distance_within(u, v, 4), "{u:?}->{v:?}");
        }
    }

    #[test]
    fn scratch_reuse_answers_identically_across_calls() {
        // Successive misses share one scratch; every answer must still be
        // exact (stale dist entries would corrupt later traversals).
        let g = cycle(12);
        let o = BoundedBfsOracle::new(Arc::clone(&g), 6).with_capacity(1);
        for round in 0..3 {
            for u in g.node_ids() {
                for v in g.node_ids() {
                    let expect = {
                        let fwd = (v.index() + 12 - u.index()) % 12;
                        (fwd as u32 <= 6).then_some(fwd as u32)
                    };
                    assert_eq!(
                        o.distance_within(u, v, 6),
                        expect,
                        "round {round}, {u:?}->{v:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn cancelled_governor_truncates_and_skips_memo() {
        // A long path graph so the BFS needs > GOVERNOR_POLL_INTERVAL pops.
        let mut b = GraphBuilder::new();
        let ids: Vec<_> = (0..2_000).map(|_| b.add_node("N", [])).collect();
        for w in ids.windows(2) {
            b.add_edge(w[0], w[1], "e");
        }
        let g = Arc::new(b.finalize());
        let o = BoundedBfsOracle::new(Arc::clone(&g), u32::MAX);

        let gov = Arc::new(Governor::unlimited());
        gov.cancel();
        {
            let _scope = Scope {
                governor: Some(Arc::clone(&gov)),
                ..Scope::default()
            }
            .enter();
            // The truncated traversal answers what it reached, reports the
            // rest unreachable, and must NOT be memoized.
            let far = o.distance_within(ids[0], ids[1_999], u32::MAX);
            assert_eq!(far, None, "cancelled BFS cannot reach the far end");
            assert_eq!(o.cached_sources(), 0, "partial reach must not be cached");
            assert!(gov.oracle_steps() > 0, "oracle work is charged");
        }
        // With the scope gone, the same query completes and memoizes.
        assert_eq!(o.distance_within(ids[0], ids[1_999], u32::MAX), Some(1_999));
        assert_eq!(o.cached_sources(), 1);
    }

    #[test]
    fn exhausted_step_budget_truncates_bfs() {
        // Satellite 2: every scratch path (including the try_lock fallback,
        // which shares this code) refuses traversal work once the step
        // budget is spent.
        let mut b = GraphBuilder::new();
        let ids: Vec<_> = (0..2_000).map(|_| b.add_node("N", [])).collect();
        for w in ids.windows(2) {
            b.add_edge(w[0], w[1], "e");
        }
        let g = Arc::new(b.finalize());
        let o = BoundedBfsOracle::new(Arc::clone(&g), u32::MAX);
        let gov = Arc::new(Governor::new(None, 1, 0));
        gov.charge_steps(1); // budget now exactly exhausted
        assert!(gov.step_budget_exhausted());
        let _scope = Scope {
            governor: Some(Arc::clone(&gov)),
            ..Scope::default()
        }
        .enter();
        assert_eq!(o.distance_within(ids[0], ids[1_999], u32::MAX), None);
        assert_eq!(o.cached_sources(), 0);
    }

    #[test]
    fn dist_batch_cancellation_fills_none() {
        let g = cycle(9);
        let o = BoundedBfsOracle::new(Arc::clone(&g), 5);
        let mut pairs = Vec::new();
        for u in g.node_ids() {
            for v in g.node_ids() {
                pairs.push((u, v));
            }
        }
        let gov = Arc::new(Governor::unlimited());
        gov.cancel();
        let _scope = Scope {
            governor: Some(Arc::clone(&gov)),
            ..Scope::default()
        }
        .enter();
        let batched = o.dist_batch(&pairs, 4);
        assert_eq!(batched.len(), pairs.len());
        assert!(
            batched.iter().all(Option::is_none),
            "cancelled before the first source chunk: everything is None"
        );
    }

    #[test]
    fn ungoverned_calls_are_unaffected() {
        // No thread-local governor: behavior identical to the pre-governor
        // oracle (exact answers, memoization).
        let g = cycle(9);
        let o = BoundedBfsOracle::new(Arc::clone(&g), 5);
        assert!(governor::current().is_none());
        assert_eq!(o.distance_within(NodeId(0), NodeId(2), 4), Some(2));
        assert_eq!(o.cached_sources(), 1);
    }

    #[test]
    fn memo_capacity_evicts() {
        let g = cycle(8);
        let o = BoundedBfsOracle::new(g, 3).with_capacity(2);
        for i in 0..5 {
            o.distance_within(NodeId(i), NodeId((i + 1) % 8), 3);
        }
        assert!(o.cached_sources() <= 2);
        // Evicted entries are recomputed correctly.
        assert_eq!(o.distance_within(NodeId(0), NodeId(1), 3), Some(1));
    }
}
