//! The distance-oracle seam and the one production oracle behind it.
//!
//! [`DistanceOracle`] is what the matcher and the algorithms call.
//! [`Oracle`] is what every production context serves: it decides once,
//! per graph, which *tier* answers — pruned-landmark labels (owned, or a
//! snapshot's mapped label sections), a memoized bounded BFS, or an
//! overlay over the previous epoch's tier — and runs every call through
//! one degradation ladder (retry → circuit breaker → exact BFS fallback).

use crate::bfs::BoundedBfsOracle;
use crate::delta::Overlay;
use crate::kernel::BatchScratch;
use crate::pll::{PllIndex, PllSlices};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, TryLockError};
use std::time::Duration;
use wqe_graph::{DeltaSummary, Graph, LoadError, NodeId};
use wqe_pool::fault::{self, CircuitBreaker, FaultSite};
use wqe_pool::obs;

/// Answers bounded directed-distance queries.
///
/// `distance_within(u, v, b)` returns `Some(d)` with `d = dist(u, v) <= b`
/// when the shortest path from `u` to `v` is at most `b` hops, and `None`
/// otherwise. Every implementation answers exactly at every bound.
///
/// `Send + Sync` is a supertrait requirement: oracles are shared across
/// concurrent sessions behind `Arc<dyn DistanceOracle>`, so every
/// implementation must keep its query path safe to call from any thread
/// (immutable after build, or internally synchronized like the memoizing
/// BFS oracle).
pub trait DistanceOracle: Send + Sync {
    /// Bounded distance query; see trait docs.
    fn distance_within(&self, u: NodeId, v: NodeId, bound: u32) -> Option<u32>;

    /// Convenience predicate `dist(u, v) <= bound`.
    fn within(&self, u: NodeId, v: NodeId, bound: u32) -> bool {
        self.distance_within(u, v, bound).is_some()
    }

    /// Batched form of [`distance_within`](DistanceOracle::distance_within):
    /// one `Option<u32>` per `(u, v)` pair, in pair order. The default just
    /// loops; implementations with per-source state (e.g. the memoizing BFS
    /// oracle) override it to amortize source lookups across consecutive
    /// pairs sharing a source.
    fn dist_batch(&self, pairs: &[(NodeId, NodeId)], bound: u32) -> Vec<Option<u32>> {
        pairs
            .iter()
            .map(|&(u, v)| self.distance_within(u, v, bound))
            .collect()
    }
}

/// Shared oracles answer through the `Arc` (the matcher holds an
/// `Arc<dyn DistanceOracle>` and passes it where an oracle is expected).
impl<T: DistanceOracle + ?Sized> DistanceOracle for Arc<T> {
    fn distance_within(&self, u: NodeId, v: NodeId, bound: u32) -> Option<u32> {
        (**self).distance_within(u, v, bound)
    }
    fn dist_batch(&self, pairs: &[(NodeId, NodeId)], bound: u32) -> Vec<Option<u32>> {
        (**self).dist_batch(pairs, bound)
    }
}

/// The PLL/BFS crossover: graphs with at most this many nodes are served
/// from labels. Compared in [`Oracle::wants_labels`] and nowhere else.
const PLL_NODE_LIMIT: usize = 50_000;

/// Memo depth of the BFS tier: the paper's default maximum edge bound
/// `b_m`. Deeper bounds stay exact; they cost an uncached traversal.
const BFS_MEMO_DEPTH: u32 = 4;

/// Retries of a failed primary call before the exact fallback serves it.
const MAX_RETRIES: u32 = 2;

/// Linear backoff base: retry `k` sleeps `k * RETRY_BACKOFF`.
const RETRY_BACKOFF: Duration = Duration::from_micros(20);

/// Consecutive exhausted calls that trip the breaker (sticky) and pin
/// every later call to the fallback.
const BREAKER_THRESHOLD: u32 = 3;

/// Overlays chain on overlays at most this deep; the next publish that
/// cannot repair rebuilds.
const OVERLAY_DEPTH_LIMIT: u32 = 4;

/// How a publish maintained the distance oracle — a latency decision only;
/// every tier answers exactly, so answers never depend on the tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum OracleTier {
    /// Pure edge insertions with owned labels: the labels were patched in
    /// place by resumed pruned BFS ([`crate::repair_insertions`]).
    RepairedPll,
    /// The delta was routed around: an overlay answers affected pairs by
    /// exact BFS and everything else from the previous epoch's tier.
    /// Cheap to publish, slightly slower to query; overlays chain until a
    /// rebuild cuts the chain.
    Overlay,
    /// The overlay chain hit its depth limit (or repair blew its budget on
    /// a large delta): the labels were rebuilt from scratch.
    RebuiltPll,
    /// Graph past the PLL crossover: a fresh BFS oracle, exactly what a
    /// cold build would pick.
    Bfs,
    /// No-op batch: the previous epoch was left as head.
    Unchanged,
}

impl OracleTier {
    /// Stable lowercase name (serving layer, epoch listings).
    pub fn name(self) -> &'static str {
        match self {
            OracleTier::RepairedPll => "repaired-pll",
            OracleTier::Overlay => "overlay",
            OracleTier::RebuiltPll => "rebuilt-pll",
            OracleTier::Bfs => "bfs",
            OracleTier::Unchanged => "unchanged",
        }
    }
}

/// Where the label arrays live.
enum Labels {
    Owned(PllIndex),
    /// A byte buffer someone else owns (a memory-mapped snapshot) holding
    /// the six label arrays at `sections`, in [`PllSlices::new`] order;
    /// validated once at construction.
    Mapped {
        bytes: Arc<dyn AsRef<[u8]> + Send + Sync>,
        sections: [Range<usize>; 6],
    },
}

impl Labels {
    #[inline]
    fn slices(&self) -> PllSlices<'_> {
        match self {
            Labels::Owned(pll) => pll.as_slices(),
            Labels::Mapped { bytes, sections } => {
                let bytes = (**bytes).as_ref();
                let words = |i: usize| -> &[u32] {
                    // SAFETY: every bit pattern is a valid `u32`, and
                    // `align_to` only yields `mid` at a `u32`-aligned
                    // address, so the view is sound for any bytes. The
                    // constructor checked each section is 4-aligned and a
                    // whole number of words, so `mid` is the full section.
                    let (_, mid, _) = unsafe { bytes[sections[i].clone()].align_to::<u32>() };
                    mid
                };
                PllSlices::new_unchecked(words(0), words(1), words(2), words(3), words(4), words(5))
            }
        }
    }
}

enum Tier {
    Labels(Labels),
    Bfs,
    Overlay(Overlay),
}

/// The production distance oracle: one tier, chosen per graph, behind one
/// degradation ladder.
///
/// * **Tier.** [`Oracle::build`] serves graphs up to the PLL crossover
///   from pruned-landmark labels and larger ones from a memoized bounded
///   BFS; [`Oracle::mapped`] serves a snapshot's label sections in place;
///   a live-graph publish may instead repair the labels, lay an overlay
///   over the previous epoch's tier, or rebuild ([`Oracle::publish`]).
///   Every tier answers exactly at every bound.
/// * **Ladder.** Each call consults the calling thread's
///   [`FaultPlan`](wqe_pool::fault::FaultPlan) at [`FaultSite::Oracle`]; a
///   fired fault — or a real panic inside the tier — fails the attempt.
///   Failed attempts are retried twice with 20 µs linear backoff
///   ([`Counter::Retry`](obs::Counter::Retry)), then served by an exact
///   BFS fallback. Three consecutive exhausted calls trip a sticky circuit
///   breaker that pins every later call to the fallback (counted once as
///   [`Counter::DegradedServe`](obs::Counter::DegradedServe)). The
///   fallback answers identically, so degradation changes latency, never
///   answers. With no plan in scope a call costs one relaxed load and one
///   thread-local borrow more than the tier itself.
/// * **Scratch.** Label batches reuse one [`BatchScratch`]; a caller that
///   finds it taken uses a one-shot scratch instead of waiting (counted as
///   [`Counter::ScratchFallback`](obs::Counter::ScratchFallback)).
pub struct Oracle {
    tier: Tier,
    /// The BFS tier itself, or the exact fallback (unbounded memo) behind
    /// labels and overlays — also the overlay's route for affected pairs.
    bfs: BoundedBfsOracle,
    breaker: CircuitBreaker,
    scratch: Mutex<BatchScratch>,
}

impl Oracle {
    fn new(graph: &Arc<Graph>, tier: Tier) -> Oracle {
        let memo_depth = match tier {
            Tier::Bfs => BFS_MEMO_DEPTH,
            Tier::Labels(_) | Tier::Overlay(_) => u32::MAX,
        };
        Oracle {
            tier,
            bfs: BoundedBfsOracle::new(Arc::clone(graph), memo_depth),
            breaker: CircuitBreaker::new(BREAKER_THRESHOLD),
            scratch: Mutex::new(BatchScratch::new()),
        }
    }

    /// The tier decision: should `graph` be served from labels? True up to
    /// the PLL crossover (50,000 nodes). The snapshot writer asks the same
    /// question, so a snapshot-loaded context serves the tier a fresh one
    /// would.
    pub fn wants_labels(graph: &Graph) -> bool {
        graph.node_count() <= PLL_NODE_LIMIT
    }

    /// The oracle for a cold `graph`: labels built with the rank-windowed
    /// parallel build when [`Oracle::wants_labels`], otherwise BFS.
    pub fn build(graph: &Arc<Graph>) -> Oracle {
        if Oracle::wants_labels(graph) {
            Oracle::labels(graph, PllIndex::build_with(graph, 0))
        } else {
            Oracle::bfs(graph)
        }
    }

    /// Serves `graph` from labels already built over it.
    pub(crate) fn labels(graph: &Arc<Graph>, pll: PllIndex) -> Oracle {
        Oracle::new(graph, Tier::Labels(Labels::Owned(pll)))
    }

    /// Serves `graph` from a memoized bounded BFS.
    pub fn bfs(graph: &Arc<Graph>) -> Oracle {
        Oracle::new(graph, Tier::Bfs)
    }

    /// Serves `graph` from label arrays that stay in `bytes` (a
    /// memory-mapped snapshot): `sections` are the byte ranges of the six
    /// arrays in [`PllSlices::new`] order. Validates once — ranges in
    /// bounds, 4-aligned, whole words, CSR invariants, one label run per
    /// node of `graph` — and fails with [`LoadError::Corrupt`] otherwise.
    pub fn mapped(
        graph: &Arc<Graph>,
        bytes: Arc<dyn AsRef<[u8]> + Send + Sync>,
        sections: [Range<usize>; 6],
    ) -> Result<Oracle, LoadError> {
        let corrupt = |detail: String| LoadError::Corrupt {
            section: "pll_labels",
            detail,
        };
        {
            let buf = (*bytes).as_ref();
            for r in &sections {
                let Some(section) = buf.get(r.clone()) else {
                    return Err(corrupt(format!("range {r:?} outside {} bytes", buf.len())));
                };
                if section.as_ptr().align_offset(4) != 0 || section.len() % 4 != 0 {
                    return Err(corrupt(format!("range {r:?} is not whole aligned u32s")));
                }
            }
        }
        let labels = Labels::Mapped { bytes, sections };
        let s = labels.slices();
        s.validate()?;
        if s.node_count() != graph.node_count() {
            return Err(corrupt(format!(
                "labels cover {} nodes, graph has {}",
                s.node_count(),
                graph.node_count()
            )));
        }
        Ok(Oracle::new(graph, Tier::Labels(labels)))
    }

    /// The oracle of the epoch after `prev`, whose graph `graph` is
    /// `prev`'s graph with `delta` applied, and how it was made. Cheapest
    /// exact tier first: owned labels and a pure edge insertion within the
    /// work budget are repaired in place; any other delta on a labelled
    /// graph gets an overlay over `prev`'s tier, up to four deep; past
    /// that — or past the crossover — the oracle is rebuilt as
    /// [`Oracle::build`] would.
    pub fn publish(
        prev: &Arc<Oracle>,
        graph: &Arc<Graph>,
        delta: &DeltaSummary,
    ) -> (Oracle, OracleTier) {
        let repaired = match &prev.tier {
            Tier::Labels(Labels::Owned(pll)) if delta.pure_edge_insert() => {
                let budget = 48 * graph.node_count() as u64 + 4_096;
                crate::repair_insertions(pll, graph, &delta.inserted_edges, budget)
            }
            _ => None,
        };
        if let Some(pll) = repaired {
            return (Oracle::labels(graph, pll), OracleTier::RepairedPll);
        }
        if Oracle::wants_labels(graph) && prev.overlay_depth() < OVERLAY_DEPTH_LIMIT {
            return (Oracle::overlay(prev, graph, delta), OracleTier::Overlay);
        }
        let oracle = Oracle::build(graph);
        let tier = match oracle.tier {
            Tier::Bfs => OracleTier::Bfs,
            _ => OracleTier::RebuiltPll,
        };
        (oracle, tier)
    }

    /// An overlay over `prev`'s tier for `graph`, `prev`'s graph with
    /// `delta` applied.
    pub(crate) fn overlay(prev: &Arc<Oracle>, graph: &Arc<Graph>, delta: &DeltaSummary) -> Oracle {
        let overlay = Overlay::new(Arc::clone(prev), graph, delta);
        Oracle::new(graph, Tier::Overlay(overlay))
    }

    /// The owned labels, when this oracle serves from them (not mapped,
    /// not an overlay, not BFS).
    pub fn owned_labels(&self) -> Option<&PllIndex> {
        match &self.tier {
            Tier::Labels(Labels::Owned(pll)) => Some(pll),
            _ => None,
        }
    }

    /// How many overlays are chained under this oracle's answers (0 unless
    /// it is an overlay).
    pub fn overlay_depth(&self) -> u32 {
        match &self.tier {
            Tier::Overlay(o) => o.base.overlay_depth() + 1,
            _ => 0,
        }
    }

    /// The graph this oracle answers for.
    pub(crate) fn graph(&self) -> &Arc<Graph> {
        self.bfs.graph()
    }

    /// One pointwise answer from the tier, outside the ladder — what an
    /// overlay asks of the tier beneath it.
    pub(crate) fn tier_distance(&self, u: NodeId, v: NodeId, bound: u32) -> Option<u32> {
        match &self.tier {
            Tier::Labels(labels) => labels.slices().distance_within(u, v, bound),
            Tier::Bfs => self.bfs.distance_within(u, v, bound),
            Tier::Overlay(o) => o.distance_within(&self.bfs, u, v, bound),
        }
    }

    fn tier_batch(&self, pairs: &[(NodeId, NodeId)], bound: u32) -> Vec<Option<u32>> {
        let labels = match &self.tier {
            Tier::Labels(labels) => labels.slices(),
            Tier::Bfs => return self.bfs.dist_batch(pairs, bound),
            Tier::Overlay(o) => {
                return pairs
                    .iter()
                    .map(|&(u, v)| o.distance_within(&self.bfs, u, v, bound))
                    .collect()
            }
        };
        obs::with_current(|p| p.add(obs::Counter::OracleDistBatch, 1));
        match self.scratch.try_lock() {
            Ok(mut scratch) => labels.dist_batch_with(&mut scratch, pairs, bound),
            Err(TryLockError::Poisoned(p)) => {
                labels.dist_batch_with(&mut p.into_inner(), pairs, bound)
            }
            Err(TryLockError::WouldBlock) => {
                obs::with_current(|p| p.add(obs::Counter::ScratchFallback, 1));
                labels.dist_batch_with(&mut BatchScratch::new(), pairs, bound)
            }
        }
    }

    /// The degradation ladder (see the type docs): `primary` is the tier,
    /// `fallback` the exact BFS.
    fn ladder<R>(&self, primary: impl Fn() -> R, fallback: impl Fn() -> R) -> R {
        if self.breaker.is_open() {
            return fallback();
        }
        let mut attempt: u32 = 0;
        loop {
            if fault::fire(FaultSite::Oracle).is_none() {
                if let Ok(r) = catch_unwind(AssertUnwindSafe(&primary)) {
                    self.breaker.record_success();
                    return r;
                }
            }
            if attempt >= MAX_RETRIES {
                if self.breaker.record_failure() {
                    obs::with_current(|p| p.add(obs::Counter::DegradedServe, 1));
                }
                return fallback();
            }
            attempt += 1;
            obs::with_current(|p| p.add(obs::Counter::Retry, 1));
            std::thread::sleep(RETRY_BACKOFF * attempt);
        }
    }
}

impl DistanceOracle for Oracle {
    fn distance_within(&self, u: NodeId, v: NodeId, bound: u32) -> Option<u32> {
        self.ladder(
            || self.tier_distance(u, v, bound),
            || self.bfs.distance_within(u, v, bound),
        )
    }

    fn dist_batch(&self, pairs: &[(NodeId, NodeId)], bound: u32) -> Vec<Option<u32>> {
        self.ladder(
            || self.tier_batch(pairs, bound),
            || self.bfs.dist_batch(pairs, bound),
        )
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use wqe_graph::GraphBuilder;
    use wqe_pool::fault::FaultPlan;
    use wqe_pool::scope::Scope;

    fn line(n: usize) -> Arc<Graph> {
        let mut b = GraphBuilder::new();
        let ids: Vec<_> = (0..n).map(|_| b.add_node("N", [])).collect();
        for w in ids.windows(2) {
            b.add_edge(w[0], w[1], "e");
        }
        Arc::new(b.finalize())
    }

    /// A byte buffer holding `pll`'s six arrays back to back, 4-aligned,
    /// with an optional switch that makes every later read panic — a
    /// stand-in for a mapping that went bad under a live oracle.
    pub(crate) struct Words {
        words: Vec<u32>,
        crash: AtomicBool,
    }

    impl AsRef<[u8]> for Words {
        fn as_ref(&self) -> &[u8] {
            assert!(!self.crash.load(Ordering::Relaxed), "mapping went away");
            // SAFETY: a `u32` slice viewed as its bytes.
            unsafe {
                std::slice::from_raw_parts(self.words.as_ptr().cast::<u8>(), self.words.len() * 4)
            }
        }
    }

    /// `pll`'s six arrays copied into one buffer, and their sections.
    fn words_of(pll: &PllIndex) -> (Arc<Words>, [Range<usize>; 6]) {
        let p = pll.parts();
        let mut words = Vec::new();
        let mut sections: [Range<usize>; 6] = Default::default();
        for (slot, arr) in [
            &p.out_offsets,
            &p.out_ranks,
            &p.out_dists,
            &p.in_offsets,
            &p.in_ranks,
            &p.in_dists,
        ]
        .into_iter()
        .enumerate()
        {
            sections[slot] = words.len() * 4..(words.len() + arr.len()) * 4;
            words.extend_from_slice(arr);
        }
        let owner = Arc::new(Words {
            words,
            crash: AtomicBool::new(false),
        });
        (owner, sections)
    }

    /// `pll`'s labels served as a mapped tier over `graph`.
    pub(crate) fn mapped_copy(graph: &Arc<Graph>, pll: &PllIndex) -> (Oracle, Arc<Words>) {
        let (owner, sections) = words_of(pll);
        let oracle = Oracle::mapped(graph, owner.clone(), sections).expect("valid labels");
        (oracle, owner)
    }

    #[test]
    fn build_picks_the_tier_by_size() {
        let g = line(10);
        let o = Oracle::build(&g);
        assert!(o.owned_labels().is_some());
        assert_eq!(o.distance_within(NodeId(0), NodeId(3), 4), Some(3));
        assert!(!o.within(NodeId(0), NodeId(3), 2));
        let o = Oracle::bfs(&g);
        assert!(o.owned_labels().is_none());
        assert_eq!(o.distance_within(NodeId(0), NodeId(3), 4), Some(3));
        assert!(!o.within(NodeId(0), NodeId(3), 2));
    }

    #[test]
    fn mapped_rejects_bad_sections() {
        let g = line(5);
        let (owner, good) = words_of(&PllIndex::build(&g));
        let len = owner.words.len() * 4;
        let mut sections = good.clone();
        sections[0] = 0..len + 4;
        assert!(Oracle::mapped(&g, owner.clone(), sections).is_err());
        let mut sections = good.clone();
        sections[1] = 1..5;
        assert!(Oracle::mapped(&g, owner.clone(), sections).is_err());
        let mut sections = good.clone();
        sections.swap(0, 1);
        assert!(Oracle::mapped(&g, owner.clone(), sections).is_err());
        // Valid labels, but for a graph with another node count.
        assert!(Oracle::mapped(&line(7), owner.clone(), good.clone()).is_err());
        let mapped = Oracle::mapped(&g, owner, good).unwrap();
        assert!(mapped.owned_labels().is_none());
        assert_eq!(mapped.distance_within(NodeId(0), NodeId(4), 4), Some(4));
    }

    #[test]
    fn transient_fault_retries_then_succeeds() {
        // One fault, then the schedule is spent: the first attempt fails,
        // the retry hits the tier and succeeds. Breaker stays closed.
        let plan = Arc::new(
            FaultPlan::new(7)
                .arm(FaultSite::Oracle, 1)
                .with_budget(FaultSite::Oracle, 1),
        );
        let o = Oracle::build(&line(6));
        let _fault = Scope {
            faults: Some(Arc::clone(&plan)),
            ..Scope::default()
        }
        .enter();
        assert_eq!(o.distance_within(NodeId(0), NodeId(4), 9), Some(4));
        assert_eq!(plan.fired(FaultSite::Oracle), 1);
        assert!(!o.breaker.is_open());
    }

    #[test]
    fn exhausted_retries_serve_exact_fallback_and_trip_breaker() {
        // Every attempt faults: each call burns its retries, is served by
        // the fallback (same answers), and after three such calls the
        // breaker pins the fallback permanently.
        let plan = Arc::new(FaultPlan::new(3).arm(FaultSite::Oracle, 1));
        let o = Oracle::build(&line(6));
        let profiler = Arc::new(obs::Profiler::new());
        {
            let _scope = Scope {
                governor: None,
                profiler: Some(Arc::clone(&profiler)),
                faults: Some(Arc::clone(&plan)),
            }
            .enter();
            for _ in 0..BREAKER_THRESHOLD {
                assert_eq!(o.distance_within(NodeId(0), NodeId(5), 9), Some(5));
            }
            assert!(o.breaker.is_open());
        }
        let snap = profiler.snapshot();
        assert_eq!(
            snap.counter(obs::Counter::Retry),
            u64::from(BREAKER_THRESHOLD * MAX_RETRIES)
        );
        assert_eq!(snap.counter(obs::Counter::DegradedServe), 1);
        // Plan gone, breaker still open: calls stay on the exact fallback.
        assert_eq!(o.distance_within(NodeId(1), NodeId(3), 9), Some(2));
        let pairs: Vec<(NodeId, NodeId)> = (0..6).map(|i| (NodeId(0), NodeId(i))).collect();
        assert_eq!(
            o.dist_batch(&pairs, 9),
            (0..6).map(Some).collect::<Vec<_>>()
        );
    }

    #[test]
    fn real_panics_in_the_tier_are_served_by_the_fallback() {
        // No plan anywhere: the mapped labels start panicking under a live
        // oracle; every call, pointwise or batched, is still answered
        // exactly by the fallback, and repeated crashes trip the breaker.
        let g = line(5);
        let pll = PllIndex::build(&g);
        let (o, owner) = mapped_copy(&g, &pll);
        owner.crash.store(true, Ordering::Relaxed);
        assert!(Scope::current().faults.is_none());
        assert_eq!(o.distance_within(NodeId(0), NodeId(3), 9), Some(3));
        let pairs: Vec<(NodeId, NodeId)> = (0..5).map(|i| (NodeId(0), NodeId(i))).collect();
        assert_eq!(o.dist_batch(&pairs, 9), pll.dist_batch(&pairs, 9));
        assert_eq!(o.distance_within(NodeId(1), NodeId(4), 9), Some(3));
        assert!(o.breaker.is_open(), "repeated crashes trip the breaker");
    }

    #[test]
    fn scratch_fallback_under_contention_is_counted_and_exact() {
        // Hold the shared scratch so a second caller must take the one-shot
        // path: it is counted, and it answers identically.
        let g = line(9);
        for o in [Oracle::build(&g), mapped_copy(&g, &PllIndex::build(&g)).0] {
            let pairs: Vec<(NodeId, NodeId)> = g.node_ids().map(|v| (NodeId(3), v)).collect();
            let expected = o.dist_batch(&pairs, 8);
            let guard = o.scratch.lock().unwrap();
            let profiler = Arc::new(obs::Profiler::new());
            let (contended, fallbacks) = std::thread::scope(|scope| {
                let (o, pairs, profiler) = (&o, &pairs, Arc::clone(&profiler));
                scope
                    .spawn(move || {
                        let _scope = Scope {
                            profiler: Some(Arc::clone(&profiler)),
                            ..Scope::default()
                        }
                        .enter();
                        let got = o.dist_batch(pairs, 8);
                        (got, profiler.counter(obs::Counter::ScratchFallback))
                    })
                    .join()
                    .unwrap()
            });
            drop(guard);
            assert_eq!(contended, expected, "fallback path must answer identically");
            assert_eq!(fallbacks, 1, "contended call must count one fallback");
            let p2 = Arc::new(obs::Profiler::new());
            {
                let _scope = Scope {
                    profiler: Some(Arc::clone(&p2)),
                    ..Scope::default()
                }
                .enter();
                let _ = o.dist_batch(&pairs, 8);
            }
            assert_eq!(p2.counter(obs::Counter::ScratchFallback), 0);
        }
    }
}
