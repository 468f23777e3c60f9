//! Shared-ownership engine context.
//!
//! Everything a why-question session needs from the outside world — the
//! data graph, a distance oracle over it, the epoch it was published at,
//! and the star cache shared by sessions of that epoch — bundled behind
//! `Arc`s. The context is cheap to clone (refcount bumps) and `'static`,
//! which is what lets [`crate::session::Session`] and
//! [`crate::engine::WqeEngine`] be handed across threads: one graph and
//! one index, built once, answering many concurrent why-questions.
//!
//! Contexts are made by [`EngineCtx::builder`]; the named constructors
//! ([`EngineCtx::new`], [`EngineCtx::with_default_oracle`],
//! [`EngineCtx::from_snapshot`]) are thin sugar over it.

use crate::error::WqeError;
use crate::live::EpochId;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use wqe_graph::Graph;
use wqe_index::{DistanceOracle, Oracle};
use wqe_query::StarCache;
use wqe_store::Snapshot;

/// What a snapshot-sourced build observed while loading: enough for a
/// session to seed its profiler with a `snapshot_load` span even though the
/// load happened before the session (or its profiler) existed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotStartup {
    /// Wall time of `Snapshot::open` + graph/oracle reconstruction.
    pub load_ns: u64,
    /// Bytes of snapshot file made addressable (mapped or read).
    pub bytes_mapped: u64,
    /// Optional sections whose checksum failed at open and were quarantined
    /// (the context degraded around them instead of refusing the file).
    /// Empty for a healthy snapshot.
    pub quarantined_sections: Vec<&'static str>,
}

impl SnapshotStartup {
    /// True when the load degraded around one or more corrupt sections.
    pub fn degraded(&self) -> bool {
        !self.quarantined_sections.is_empty()
    }
}

/// Shared, immutable inputs of a why-question session.
///
/// ```
/// use std::sync::Arc;
/// use wqe_core::ctx::EngineCtx;
/// use wqe_graph::product::product_graph;
///
/// let ctx = EngineCtx::with_default_oracle(Arc::new(product_graph().graph));
/// let clone = ctx.clone(); // cheap: a few Arc bumps
/// assert_eq!(clone.graph().node_count(), ctx.graph().node_count());
/// ```
#[derive(Clone)]
pub struct EngineCtx {
    graph: Arc<Graph>,
    oracle: Arc<dyn DistanceOracle>,
    startup: Option<SnapshotStartup>,
    epoch: EpochId,
    star_cache: Arc<StarCache>,
}

/// Assembles an [`EngineCtx`] from one graph source — an in-memory graph,
/// a snapshot path, or an already-open [`Snapshot`] — plus optional
/// overrides (oracle, epoch, star cache).
///
/// ```
/// use std::sync::Arc;
/// use wqe_core::ctx::EngineCtx;
/// use wqe_graph::product::product_graph;
///
/// let ctx = EngineCtx::builder()
///     .graph(Arc::new(product_graph().graph))
///     .build()
///     .unwrap();
/// assert_eq!(ctx.epoch().0, 0); // contexts are born at epoch 0
/// assert!(ctx.snapshot_startup().is_none());
/// ```
#[derive(Default)]
#[must_use = "a builder does nothing until .build()"]
pub struct EngineCtxBuilder {
    graph: Option<Arc<Graph>>,
    oracle: Option<Arc<dyn DistanceOracle>>,
    snapshot_path: Option<PathBuf>,
    snapshot: Option<Snapshot>,
    epoch: EpochId,
    star_cache: Option<Arc<StarCache>>,
}

impl EngineCtxBuilder {
    /// Uses an in-memory graph as the context's graph source.
    pub fn graph(mut self, graph: Arc<Graph>) -> Self {
        self.graph = Some(graph);
        self
    }

    /// Uses a caller-chosen oracle verbatim (callers that pick their own
    /// oracle own its failure behavior). Without this,
    /// [`build`](Self::build) serves an [`Oracle`]: [`Oracle::build`] for
    /// an in-memory graph, [`Snapshot::into_oracle`] for a snapshot.
    pub fn oracle(mut self, oracle: Arc<dyn DistanceOracle>) -> Self {
        self.oracle = Some(oracle);
        self
    }

    /// Opens the durable snapshot at `path` as the graph source.
    pub fn snapshot_path(mut self, path: impl AsRef<Path>) -> Self {
        self.snapshot_path = Some(path.as_ref().to_path_buf());
        self
    }

    /// Uses an already-open [`Snapshot`] as the graph source — the seam
    /// for callers (the CLI) that open the file themselves to classify
    /// load errors before committing to a context.
    pub fn snapshot(mut self, snap: Snapshot) -> Self {
        self.snapshot = Some(snap);
        self
    }

    /// Tags the context with the epoch it was published at. Defaults to
    /// [`EpochId::INITIAL`]; [`crate::live::GraphStore`] sets this on
    /// every publish.
    pub fn epoch(mut self, epoch: EpochId) -> Self {
        self.epoch = epoch;
        self
    }

    /// Shares an existing star cache instead of creating a fresh one —
    /// how a [`crate::live::GraphStore`] publish carries unaffected star
    /// tables into the next epoch.
    pub fn star_cache(mut self, cache: Arc<StarCache>) -> Self {
        self.star_cache = Some(cache);
        self
    }

    /// Builds the context. Exactly one graph source must have been given;
    /// anything else is [`WqeError::Builder`]. Snapshot sources can also
    /// fail with [`WqeError::Snapshot`].
    pub fn build(self) -> Result<EngineCtx, WqeError> {
        let sources = usize::from(self.graph.is_some())
            + usize::from(self.snapshot.is_some())
            + usize::from(self.snapshot_path.is_some());
        if sources == 0 {
            return Err(WqeError::Builder {
                reason: "no graph source: call .graph(), .snapshot() or .snapshot_path()",
            });
        }
        if sources > 1 {
            return Err(WqeError::Builder {
                reason: "conflicting graph sources: give exactly one of \
                         .graph(), .snapshot(), .snapshot_path()",
            });
        }
        let star_cache = self
            .star_cache
            .unwrap_or_else(|| Arc::new(StarCache::default_sized()));

        if let Some(graph) = self.graph {
            let oracle = self
                .oracle
                .unwrap_or_else(|| Arc::new(Oracle::build(&graph)));
            return Ok(EngineCtx {
                graph,
                oracle,
                startup: None,
                epoch: self.epoch,
                star_cache,
            });
        }

        let started = std::time::Instant::now();
        let snap = match self.snapshot {
            Some(snap) => snap,
            None => Snapshot::open(&self.snapshot_path.expect("one source"))?,
        };
        let bytes_mapped = snap.bytes_len();
        let quarantined_sections = snap.quarantined();
        let graph = Arc::new(snap.load_graph()?);
        let oracle = match self.oracle {
            Some(o) => o,
            None => Arc::new(snap.into_oracle(&graph)?),
        };
        let load_ns = started.elapsed().as_nanos() as u64;
        Ok(EngineCtx {
            graph,
            oracle,
            startup: Some(SnapshotStartup {
                load_ns,
                bytes_mapped,
                quarantined_sections,
            }),
            epoch: self.epoch,
            star_cache,
        })
    }
}

impl EngineCtx {
    /// Starts assembling a context. See [`EngineCtxBuilder`].
    pub fn builder() -> EngineCtxBuilder {
        EngineCtxBuilder::default()
    }

    /// Bundles a graph with a caller-chosen oracle.
    /// Sugar for `builder().graph(graph).oracle(oracle).build()`.
    pub fn new(graph: Arc<Graph>, oracle: Arc<dyn DistanceOracle>) -> Self {
        EngineCtx::builder()
            .graph(graph)
            .oracle(oracle)
            .build()
            .expect("graph+oracle builds are infallible")
    }

    /// Bundles a graph with [`Oracle::build`]: labels up to the PLL
    /// crossover, BFS past it, behind the oracle's degradation ladder
    /// (retry → circuit breaker → exact BFS fallback). With no fault plan
    /// in scope the ladder is a pass-through; answers are bit-identical
    /// either way. Sugar for `builder().graph(graph).build()`.
    pub fn with_default_oracle(graph: Arc<Graph>) -> Self {
        EngineCtx::builder()
            .graph(graph)
            .build()
            .expect("graph-only builds are infallible")
    }

    /// Opens a durable snapshot (see [`wqe_store`]) and builds a context
    /// from it without re-parsing text or re-building any index.
    /// Sugar for `builder().snapshot_path(path).build()`.
    ///
    /// Snapshots written with PLL labels serve distances straight from the
    /// mapped label arrays (zero-copy); snapshots without labels get the
    /// BFS tier [`Oracle::build`] picks for a graph past the PLL crossover
    /// ([`Snapshot::into_oracle`]). Because the writer asks that same tier
    /// decision ([`Oracle::wants_labels`]), answers from a snapshot-loaded
    /// context are bit-identical to a freshly built one.
    ///
    /// A snapshot whose *optional* sections (the PLL label arrays) failed
    /// their checksum is not refused: `Snapshot::open` quarantines them,
    /// and the context degrades to the exact BFS tier — same answers,
    /// slower — recording the quarantined section names in
    /// [`SnapshotStartup::quarantined_sections`] so the degradation is
    /// visible in startup telemetry and `--profile` output.
    pub fn from_snapshot(path: &Path) -> Result<EngineCtx, WqeError> {
        EngineCtx::builder().snapshot_path(path).build()
    }

    /// Load telemetry when this context came from a snapshot source;
    /// `None` for in-memory constructions.
    pub fn snapshot_startup(&self) -> Option<SnapshotStartup> {
        self.startup.clone()
    }

    /// The data graph (deref to use it as `&Graph`, clone the `Arc` to
    /// share it).
    pub fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// The distance oracle (deref to use it as `&dyn DistanceOracle`,
    /// clone the `Arc` to share it).
    pub fn oracle(&self) -> &Arc<dyn DistanceOracle> {
        &self.oracle
    }

    /// The epoch this context's graph was published at. In-memory and
    /// snapshot contexts made outside a [`crate::live::GraphStore`] are
    /// epoch 0.
    pub fn epoch(&self) -> EpochId {
        self.epoch
    }

    /// The star cache sessions of this context share. Per-epoch: a
    /// [`crate::live::GraphStore`] publish derives the next epoch's cache
    /// from this one, never mutates it.
    pub fn star_cache(&self) -> &Arc<StarCache> {
        &self.star_cache
    }
}

impl std::fmt::Debug for EngineCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineCtx")
            .field("nodes", &self.graph.node_count())
            .field("edges", &self.graph.edge_count())
            .field("epoch", &self.epoch)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wqe_graph::product::product_graph;
    use wqe_graph::NodeId;

    #[test]
    fn context_is_send_sync_and_static() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<EngineCtx>();
    }

    #[test]
    fn clones_share_the_graph() {
        let ctx = EngineCtx::with_default_oracle(Arc::new(product_graph().graph));
        let clone = ctx.clone();
        assert!(Arc::ptr_eq(ctx.graph(), clone.graph()));
        assert!(Arc::ptr_eq(ctx.star_cache(), clone.star_cache()));
        assert_eq!(
            ctx.oracle().distance_within(NodeId(0), NodeId(0), 0),
            clone.oracle().distance_within(NodeId(0), NodeId(0), 0),
        );
    }

    #[test]
    fn builder_rejects_zero_and_two_sources() {
        let err = EngineCtx::builder().build().unwrap_err();
        assert!(matches!(err, WqeError::Builder { .. }), "{err:?}");

        let g = Arc::new(product_graph().graph);
        let err = EngineCtx::builder()
            .graph(g)
            .snapshot_path("/tmp/irrelevant.wqs")
            .build()
            .unwrap_err();
        assert!(
            matches!(err, WqeError::Builder { reason } if reason.contains("conflicting")),
            "{err:?}"
        );
    }

    #[test]
    fn builder_carries_epoch_and_star_cache() {
        let g = Arc::new(product_graph().graph);
        let cache = Arc::new(StarCache::new(8, 1.0));
        let ctx = EngineCtx::builder()
            .graph(g)
            .epoch(EpochId(7))
            .star_cache(Arc::clone(&cache))
            .build()
            .unwrap();
        assert_eq!(ctx.epoch(), EpochId(7));
        assert!(Arc::ptr_eq(ctx.star_cache(), &cache));
    }

    #[test]
    fn from_snapshot_matches_fresh_context() {
        let graph = Arc::new(product_graph().graph);
        let path =
            std::env::temp_dir().join(format!("wqe-core-ctx-snapshot-{}.wqs", std::process::id()));
        wqe_store::build_and_write_snapshot(&path, &graph).unwrap();

        let fresh = EngineCtx::with_default_oracle(Arc::clone(&graph));
        let loaded = EngineCtx::from_snapshot(&path).unwrap();
        assert_eq!(loaded.graph().node_count(), fresh.graph().node_count());
        assert_eq!(loaded.graph().edge_count(), fresh.graph().edge_count());
        for s in graph.node_ids() {
            for t in graph.node_ids() {
                assert_eq!(
                    loaded.oracle().distance_within(s, t, 4),
                    fresh.oracle().distance_within(s, t, 4),
                    "distance({s:?}, {t:?})"
                );
            }
        }

        let startup = loaded.snapshot_startup().expect("load telemetry");
        assert!(startup.bytes_mapped > 0);
        assert!(fresh.snapshot_startup().is_none());

        // The open-snapshot seam folds into the builder.
        let snap = Snapshot::open(&path).unwrap();
        let via_builder = EngineCtx::builder().snapshot(snap).build().unwrap();
        assert_eq!(via_builder.graph().node_count(), fresh.graph().node_count());
        assert!(via_builder.snapshot_startup().is_some());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn quarantined_pll_snapshot_degrades_to_exact_bfs() {
        let graph = Arc::new(product_graph().graph);
        let path = std::env::temp_dir().join(format!(
            "wqe-core-ctx-quarantine-{}.wqs",
            std::process::id()
        ));
        wqe_store::build_and_write_snapshot(&path, &graph).unwrap();

        // Flip one byte inside a PLL label section: open() quarantines it.
        let probe = wqe_store::Snapshot::open(&path).unwrap();
        let pll_section = probe
            .section_infos()
            .into_iter()
            .find(|s| s.name.starts_with("pll_") && s.len > 0)
            .expect("snapshot of a small graph carries PLL sections");
        drop(probe);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[pll_section.offset as usize] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let fresh = EngineCtx::with_default_oracle(Arc::clone(&graph));
        let degraded = EngineCtx::from_snapshot(&path).unwrap();
        let startup = degraded.snapshot_startup().expect("load telemetry");
        assert!(startup.degraded());
        assert_eq!(startup.quarantined_sections, vec![pll_section.name]);
        // Degradation changes the oracle, never the answers.
        for s in graph.node_ids() {
            for t in graph.node_ids() {
                assert_eq!(
                    degraded.oracle().distance_within(s, t, 4),
                    fresh.oracle().distance_within(s, t, 4),
                    "distance({s:?}, {t:?})"
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn from_snapshot_missing_file_is_snapshot_error() {
        let err = EngineCtx::from_snapshot(std::path::Path::new(
            "/nonexistent/wqe/no-such-snapshot.wqs",
        ))
        .unwrap_err();
        assert!(
            matches!(
                err,
                crate::error::WqeError::Snapshot {
                    kind: crate::error::SnapshotErrorKind::Io,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn usable_from_spawned_threads() {
        let ctx = EngineCtx::with_default_oracle(Arc::new(product_graph().graph));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let ctx = ctx.clone();
                std::thread::spawn(move || ctx.graph().node_count())
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), ctx.graph().node_count());
        }
    }
}
