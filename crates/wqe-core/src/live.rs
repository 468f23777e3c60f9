//! Live graphs: an epoch-versioned write path over the engine context.
//!
//! The paper's setting is a fixed attributed graph; production graphs
//! change. [`GraphStore`] makes the engine serve both: every published
//! state of the graph is an immutable *epoch* (a full [`EngineCtx`]),
//! readers pin an epoch at session start and keep it for the whole
//! session, and writers publish the next epoch atomically. The read path
//! takes no locks — a pinned handle is an `Arc` the reader already holds —
//! so concurrent `QueryService` sessions stay consistent while updates
//! land. Old epochs retire automatically when the last pin drops.
//!
//! Publishing maintains the distance index incrementally instead of
//! rebuilding it ([`Oracle::publish`] picks the [`OracleTier`]), and
//! carries the star cache forward with *keyed* invalidation: only entries
//! whose [`wqe_query::Footprint`] intersects the delta are evicted.
//!
//! ```
//! use std::sync::Arc;
//! use wqe_core::live::GraphStore;
//! use wqe_graph::{product::product_graph, GraphUpdate};
//!
//! let store = GraphStore::new(Arc::new(product_graph().graph));
//! let pinned = store.pin(); // epoch 0, immutable for this handle's life
//! let n0 = pinned.ctx().graph().node_count();
//!
//! store
//!     .apply(&[GraphUpdate::AddNode { label: "Carrier".into(), attrs: vec![] }])
//!     .unwrap();
//!
//! assert_eq!(pinned.ctx().graph().node_count(), n0); // pinned view unchanged
//! assert_eq!(store.pin().id().0, 1); // fresh pins see the new epoch
//! ```

use crate::ctx::EngineCtx;
use crate::error::WqeError;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};
use wqe_graph::{DeltaSummary, Graph, GraphUpdate};
use wqe_index::Oracle;
pub use wqe_index::OracleTier;

/// Identifies one published state of a live graph. Epoch 0 is the state
/// the store was created with; each successful publish increments it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EpochId(pub u64);

impl EpochId {
    /// The epoch every store starts at (and every context built outside a
    /// store carries).
    pub const INITIAL: EpochId = EpochId(0);
}

impl std::fmt::Display for EpochId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "epoch {}", self.0)
    }
}

/// What one [`GraphStore::apply`] did.
#[derive(Debug, Clone)]
pub struct PublishReport {
    /// The epoch now at head (unchanged for a no-op batch).
    pub epoch: EpochId,
    /// True when the batch was a semantic no-op and nothing was published.
    pub no_op: bool,
    /// How the distance oracle was maintained.
    pub tier: OracleTier,
    /// Star-cache entries evicted by keyed invalidation (not counting the
    /// entries that were carried into the new epoch untouched).
    pub star_evicted: u64,
    /// What the batch changed, as computed by
    /// [`wqe_graph::Graph::apply_updates`].
    pub delta: DeltaSummary,
}

/// Gets told about every publish — the seam the answer cache uses to carry
/// its entries across epochs. Registered via [`GraphStore::subscribe`] as a
/// `Weak`, so dropping the subscriber unregisters it.
pub trait EpochSubscriber: Send + Sync {
    /// Called after `next` replaced `prev` at head, outside the store's
    /// locks (subscribers may pin, query, or publish-adjacent work).
    fn on_publish(&self, prev: EpochId, next: EpochId, delta: &DeltaSummary);
}

struct EpochState {
    id: EpochId,
    ctx: EngineCtx,
}

/// A pinned epoch: holds its [`EngineCtx`] alive for as long as the handle
/// lives, no matter how many epochs are published after it. Cloning a
/// handle is a refcount bump; dropping the last handle of a non-head epoch
/// retires that epoch.
#[derive(Clone)]
pub struct EpochHandle {
    state: Arc<EpochState>,
}

impl EpochHandle {
    /// The pinned epoch.
    pub fn id(&self) -> EpochId {
        self.state.id
    }

    /// The pinned epoch's immutable context.
    pub fn ctx(&self) -> &EngineCtx {
        &self.state.ctx
    }
}

impl std::fmt::Debug for EpochHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochHandle")
            .field("id", &self.state.id)
            .field("nodes", &self.state.ctx.graph().node_count())
            .finish()
    }
}

/// One row of [`GraphStore::epochs`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochInfo {
    /// The epoch.
    pub id: EpochId,
    /// Node count of its graph (tombstones included).
    pub nodes: usize,
    /// Edge count of its graph.
    pub edges: usize,
    /// How its oracle was produced ([`OracleTier::name`]).
    pub tier: &'static str,
    /// True while some handle still pins it (head is always live).
    pub live: bool,
    /// True for the current head.
    pub head: bool,
}

struct Record {
    id: EpochId,
    nodes: usize,
    edges: usize,
    tier: &'static str,
    state: Weak<EpochState>,
}

struct Inner {
    head: Arc<EpochState>,
    /// The head's oracle — what the next publish repairs, overlays or
    /// replaces.
    oracle: Arc<Oracle>,
    records: Vec<Record>,
    subscribers: Vec<Weak<dyn EpochSubscriber>>,
    /// Superseded heads the store itself keeps pinned, newest last — a
    /// bounded retention window for clients that cannot hold an
    /// [`EpochHandle`] across calls (e.g. the HTTP epoch-diff mode).
    retained: Vec<EpochHandle>,
    /// Capacity of `retained`. 0 (the default) retires a superseded epoch
    /// as soon as its last external pin drops.
    retention: usize,
}

fn relock<'a, T>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// The epoch-versioned owner of a live graph. See the module docs.
pub struct GraphStore {
    /// Serializes writers; never held while readers pin.
    write_gate: Mutex<()>,
    inner: Mutex<Inner>,
}

impl GraphStore {
    /// Opens a store at epoch 0 over `graph`, serving the oracle a cold
    /// [`EngineCtx::with_default_oracle`] would ([`Oracle::build`]).
    pub fn new(graph: Arc<Graph>) -> GraphStore {
        let oracle = Arc::new(Oracle::build(&graph));
        let ctx = EngineCtx::builder()
            .graph(graph)
            .oracle(Arc::clone(&oracle) as _)
            .epoch(EpochId::INITIAL)
            .build()
            .expect("graph+oracle builds are infallible");
        let head = Arc::new(EpochState {
            id: EpochId::INITIAL,
            ctx,
        });
        let records = vec![Record {
            id: EpochId::INITIAL,
            nodes: head.ctx.graph().node_count(),
            edges: head.ctx.graph().edge_count(),
            tier: if oracle.owned_labels().is_some() {
                "initial-pll"
            } else {
                "initial"
            },
            state: Arc::downgrade(&head),
        }];
        GraphStore {
            write_gate: Mutex::new(()),
            inner: Mutex::new(Inner {
                head,
                oracle,
                records,
                subscribers: Vec::new(),
                retained: Vec::new(),
                retention: 0,
            }),
        }
    }

    /// Keeps the `n` most recently superseded heads pinned by the store
    /// itself, so stateless clients (one HTTP exchange per query) can
    /// still pin recent epochs by id. Shrinking the window releases the
    /// oldest retained epochs immediately; external pins are unaffected.
    pub fn set_retention(&self, n: usize) {
        let mut inner = relock(self.inner.lock());
        inner.retention = n;
        let excess = inner.retained.len().saturating_sub(n);
        inner.retained.drain(..excess);
    }

    /// Pins the current head. A brief mutex acquisition and an `Arc`
    /// clone; everything after (the whole query) is lock-free.
    pub fn pin(&self) -> EpochHandle {
        EpochHandle {
            state: Arc::clone(&relock(self.inner.lock()).head),
        }
    }

    /// Pins a specific epoch, if it is still live (head, or held by some
    /// handle).
    pub fn pin_epoch(&self, id: EpochId) -> Option<EpochHandle> {
        let inner = relock(self.inner.lock());
        if inner.head.id == id {
            return Some(EpochHandle {
                state: Arc::clone(&inner.head),
            });
        }
        inner
            .records
            .iter()
            .find(|r| r.id == id)
            .and_then(|r| r.state.upgrade())
            .map(|state| EpochHandle { state })
    }

    /// The current head epoch.
    pub fn epoch(&self) -> EpochId {
        relock(self.inner.lock()).head.id
    }

    /// Registers a publish subscriber (held weakly: dropping the `Arc`
    /// unregisters it).
    pub fn subscribe(&self, sub: Weak<dyn EpochSubscriber>) {
        relock(self.inner.lock()).subscribers.push(sub);
    }

    /// Every epoch this store has published, oldest first, with liveness.
    /// Retired epochs stay listed (their graphs are gone; the row is
    /// metadata only).
    pub fn epochs(&self) -> Vec<EpochInfo> {
        let inner = relock(self.inner.lock());
        inner
            .records
            .iter()
            .map(|r| EpochInfo {
                id: r.id,
                nodes: r.nodes,
                edges: r.edges,
                tier: r.tier,
                live: r.id == inner.head.id || r.state.upgrade().is_some(),
                head: r.id == inner.head.id,
            })
            .collect()
    }

    /// Applies one update batch and publishes the resulting epoch.
    ///
    /// Validation is all-or-nothing: a rejected batch ([`WqeError::Update`])
    /// leaves the head untouched. A semantically empty batch (inserting an
    /// edge that exists, setting an attribute to its current value) does
    /// not publish and reports [`OracleTier::Unchanged`].
    ///
    /// Index maintenance picks the cheapest exact tier
    /// ([`Oracle::publish`]); the star cache is carried over with keyed
    /// invalidation. Readers pinned to older epochs are unaffected; the
    /// brief head swap is the only moment new [`GraphStore::pin`] calls
    /// block.
    pub fn apply(&self, updates: &[GraphUpdate]) -> Result<PublishReport, WqeError> {
        // Writers serialize on the gate; the inner lock is only taken for
        // snapshots and the O(1) head swap, so readers can pin throughout
        // the (potentially long) index maintenance below.
        let _gate = relock(self.write_gate.lock());
        let (old_state, old_oracle) = {
            let inner = relock(self.inner.lock());
            (Arc::clone(&inner.head), Arc::clone(&inner.oracle))
        };
        let old_ctx = &old_state.ctx;
        let (new_graph, delta) = old_ctx.graph().apply_updates(updates)?;
        if delta.is_empty() {
            return Ok(PublishReport {
                epoch: old_state.id,
                no_op: true,
                tier: OracleTier::Unchanged,
                star_evicted: 0,
                delta,
            });
        }
        let new_graph = Arc::new(new_graph);
        // Every tier answers exactly on `new_graph`, so the choice is
        // invisible to answers — only to publish and query latency.
        let (oracle, tier) = Oracle::publish(&old_oracle, &new_graph, &delta);
        let oracle = Arc::new(oracle);
        let (next_cache, star_evicted) = old_ctx.star_cache().carry_over(&delta);

        let next_id = EpochId(old_state.id.0 + 1);
        let ctx = EngineCtx::builder()
            .graph(Arc::clone(&new_graph))
            .oracle(Arc::clone(&oracle) as _)
            .epoch(next_id)
            .star_cache(Arc::new(next_cache))
            .build()
            .expect("graph+oracle builds are infallible");
        let head = Arc::new(EpochState { id: next_id, ctx });

        let subscribers = {
            let mut inner = relock(self.inner.lock());
            inner.records.push(Record {
                id: next_id,
                nodes: new_graph.node_count(),
                edges: new_graph.edge_count(),
                tier: tier.name(),
                state: Arc::downgrade(&head),
            });
            inner.head = head;
            inner.oracle = oracle;
            if inner.retention > 0 {
                inner.retained.push(EpochHandle {
                    state: Arc::clone(&old_state),
                });
                let excess = inner.retained.len().saturating_sub(inner.retention);
                inner.retained.drain(..excess);
            }
            // Prune dead subscribers while we're here; clone the live ones
            // so notification happens outside the lock.
            inner.subscribers.retain(|w| w.upgrade().is_some());
            inner.subscribers.clone()
        };
        for sub in subscribers.iter().filter_map(Weak::upgrade) {
            sub.on_publish(old_state.id, next_id, &delta);
        }
        Ok(PublishReport {
            epoch: next_id,
            no_op: false,
            tier,
            star_evicted,
            delta,
        })
    }
}

impl std::fmt::Debug for GraphStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = relock(self.inner.lock());
        f.debug_struct("GraphStore")
            .field("head", &inner.head.id)
            .field("epochs", &inner.records.len())
            .field("overlay_depth", &inner.oracle.overlay_depth())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use wqe_graph::product::product_graph;
    use wqe_graph::NodeId;

    fn edge(from: u32, to: u32) -> GraphUpdate {
        GraphUpdate::InsertEdge {
            from: NodeId(from),
            to: NodeId(to),
            label: "live".into(),
        }
    }

    fn store() -> GraphStore {
        GraphStore::new(Arc::new(product_graph().graph))
    }

    /// The head oracle must agree with plain BFS on the head graph — for
    /// every pair — no matter which maintenance tier produced it.
    fn assert_oracle_exact(store: &GraphStore) {
        let h = store.pin();
        let g = h.ctx().graph();
        for u in g.node_ids() {
            let reach: std::collections::HashMap<NodeId, u32> =
                g.bounded_bfs(u, u32::MAX).into_iter().collect();
            for v in g.node_ids() {
                assert_eq!(
                    h.ctx().oracle().distance_within(u, v, u32::MAX),
                    reach.get(&v).copied(),
                    "distance({u:?}, {v:?}) at {}",
                    h.id()
                );
            }
        }
    }

    #[test]
    fn retention_window_keeps_recent_epochs_pinnable() {
        let s = store();
        s.set_retention(2);
        let n = s.pin().ctx().graph().node_count() as u32;
        for i in 0..3 {
            s.apply(&[edge(i % n, (i + 7) % n)]).expect("publish");
        }
        // Head is 3; the window holds the two most recently superseded
        // heads (1 and 2); 0 fell out and retired.
        assert_eq!(s.epoch(), EpochId(3));
        assert!(s.pin_epoch(EpochId(0)).is_none(), "0 fell out of window");
        assert!(s.pin_epoch(EpochId(1)).is_some());
        assert!(s.pin_epoch(EpochId(2)).is_some());
        // An external pin outlives the window: shrink to zero and the
        // handle still holds its epoch live.
        let held = s.pin_epoch(EpochId(2)).expect("still retained");
        s.set_retention(0);
        assert!(s.pin_epoch(EpochId(1)).is_none(), "window released 1");
        assert_eq!(s.pin_epoch(EpochId(2)).expect("held").id(), EpochId(2));
        drop(held);
        assert!(s.pin_epoch(EpochId(2)).is_none(), "last pin dropped");
    }

    #[test]
    fn pure_insert_takes_repair_tier_and_stays_exact() {
        let s = store();
        let n = s.pin().ctx().graph().node_count() as u32;
        let report = s.apply(&[edge(0, n - 1), edge(n - 1, 2)]).unwrap();
        assert!(!report.no_op);
        assert_eq!(report.epoch, EpochId(1));
        assert_eq!(report.tier, OracleTier::RepairedPll);
        assert_oracle_exact(&s);
        // Repair leaves no debt: the next pure insert repairs again.
        let report = s.apply(&[edge(1, 6)]).unwrap();
        assert_eq!(report.tier, OracleTier::RepairedPll);
        assert_oracle_exact(&s);
    }

    #[test]
    fn mixed_delta_takes_overlay_then_rebuild_clears_debt() {
        let s = store();
        // Delete a real edge of the current head each round so every batch
        // is a genuine topology change.
        let delete_one = || {
            let g = Arc::clone(s.pin().ctx().graph());
            let (u, v) = g
                .node_ids()
                .find_map(|u| g.out_neighbors(u).first().map(|&(v, _)| (u, v)))
                .expect("head graph still has edges");
            s.apply(&[GraphUpdate::DeleteEdge { from: u, to: v }])
                .unwrap()
        };
        for i in 0..4 {
            let report = delete_one();
            assert_eq!(report.tier, OracleTier::Overlay, "publish {i}");
            assert_oracle_exact(&s);
        }
        // Overlay chain at its depth limit: the next non-repairable publish
        // rebuilds.
        let report = delete_one();
        assert_eq!(report.tier, OracleTier::RebuiltPll);
        assert_oracle_exact(&s);
        // ... which re-arms the repair tier.
        let report = s.apply(&[edge(4, 0)]).unwrap();
        assert_eq!(report.tier, OracleTier::RepairedPll);
        assert_oracle_exact(&s);
    }

    #[test]
    fn noop_batch_publishes_nothing() {
        let s = store();
        let g = Arc::clone(s.pin().ctx().graph());
        let (u, vs) = {
            let u = NodeId(0);
            (u, g.out_neighbors(u).to_vec())
        };
        let existing = vs.first().expect("product graph has edges");
        let label = g.schema().edge_label_name(existing.1).to_string();
        let report = s
            .apply(&[GraphUpdate::InsertEdge {
                from: u,
                to: existing.0,
                label,
            }])
            .unwrap();
        assert!(report.no_op);
        assert_eq!(report.tier, OracleTier::Unchanged);
        assert_eq!(s.epoch(), EpochId(0));
        assert_eq!(s.epochs().len(), 1);
    }

    #[test]
    fn pinned_epochs_survive_publishes_and_retire_on_unpin() {
        let s = store();
        let pinned = s.pin();
        let n0 = pinned.ctx().graph().node_count();
        s.apply(&[GraphUpdate::AddNode {
            label: "Carrier".into(),
            attrs: vec![],
        }])
        .unwrap();
        // The pin still serves the old graph.
        assert_eq!(pinned.ctx().graph().node_count(), n0);
        assert_eq!(s.pin().ctx().graph().node_count(), n0 + 1);

        let rows = s.epochs();
        assert_eq!(rows.len(), 2);
        assert!(rows[0].live && !rows[0].head, "epoch 0 pinned, not head");
        assert!(rows[1].live && rows[1].head);
        assert!(s.pin_epoch(EpochId(0)).is_some());

        drop(pinned);
        let rows = s.epochs();
        assert!(!rows[0].live, "unpinned non-head epoch retires");
        assert!(s.pin_epoch(EpochId(0)).is_none());
        assert!(s.pin_epoch(EpochId(1)).is_some());
    }

    #[test]
    fn rejected_batch_leaves_head_untouched() {
        let s = store();
        let err = s
            .apply(&[GraphUpdate::SetLabel {
                node: NodeId(10_000),
                label: "X".into(),
            }])
            .unwrap_err();
        assert!(matches!(err, WqeError::Update(_)), "{err:?}");
        assert_eq!(s.epoch(), EpochId(0));
        assert_eq!(s.epochs().len(), 1);
    }

    #[test]
    fn subscribers_hear_publishes_until_dropped() {
        struct Counting(AtomicU64);
        impl EpochSubscriber for Counting {
            fn on_publish(&self, prev: EpochId, next: EpochId, _delta: &DeltaSummary) {
                assert_eq!(next.0, prev.0 + 1);
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let s = store();
        let sub = Arc::new(Counting(AtomicU64::new(0)));
        s.subscribe(Arc::downgrade(&sub) as Weak<dyn EpochSubscriber>);
        s.apply(&[edge(0, 5)]).unwrap();
        assert_eq!(sub.0.load(Ordering::SeqCst), 1);
        drop(sub);
        s.apply(&[edge(5, 0)]).unwrap();
        // No panic, no count: the dead subscriber was pruned.
    }

    #[test]
    fn star_cache_is_derived_per_epoch() {
        let s = store();
        let cache0 = Arc::clone(s.pin().ctx().star_cache());
        let report = s
            .apply(&[GraphUpdate::SetAttr {
                node: NodeId(0),
                attr: "Price".into(),
                value: Some(wqe_graph::AttrValue::Int(1)),
            }])
            .unwrap();
        assert!(!report.no_op);
        let cache1 = Arc::clone(s.pin().ctx().star_cache());
        assert!(
            !Arc::ptr_eq(&cache0, &cache1),
            "each epoch owns a derived cache"
        );
    }

    #[test]
    fn overlay_epochs_consult_the_oracle_fault_site_once_per_call() {
        use wqe_pool::fault::{FaultPlan, FaultSite};
        use wqe_pool::scope::Scope;
        let s = store();
        for depth in 1..=3 {
            let g = Arc::clone(s.pin().ctx().graph());
            let (u, v) = g
                .node_ids()
                .find_map(|u| g.out_neighbors(u).first().map(|&(v, _)| (u, v)))
                .expect("head graph still has edges");
            let report = s
                .apply(&[GraphUpdate::DeleteEdge { from: u, to: v }])
                .unwrap();
            assert_eq!(report.tier, OracleTier::Overlay, "publish {depth}");
            let plan = Arc::new(
                FaultPlan::new(1)
                    .arm(FaultSite::Oracle, u64::MAX)
                    .with_budget(FaultSite::Oracle, 0),
            );
            let _fault = Scope {
                faults: Some(Arc::clone(&plan)),
                ..Scope::default()
            }
            .enter();
            s.pin()
                .ctx()
                .oracle()
                .distance_within(NodeId(0), NodeId(4), 4);
            assert_eq!(plan.calls(FaultSite::Oracle), 1, "overlay depth {depth}");
        }
    }

    /// A chain `0 -> 1 -> … -> n-1`, past the PLL crossover at n = 50,010.
    fn chain(n: u32) -> Arc<Graph> {
        let mut b = wqe_graph::GraphBuilder::new();
        let ids: Vec<_> = (0..n).map(|_| b.add_node("N", [])).collect();
        for w in ids.windows(2) {
            b.add_edge(w[0], w[1], "e");
        }
        Arc::new(b.finalize())
    }

    #[test]
    fn big_graph_publishes_on_bfs_tier() {
        let s = GraphStore::new(chain(50_010));
        assert_eq!(s.epochs()[0].tier, "initial");
        let inserted = s.apply(&[edge(10, 3)]).unwrap();
        assert_eq!(inserted.tier, OracleTier::Bfs);
        let deleted = s
            .apply(&[GraphUpdate::DeleteEdge {
                from: NodeId(20),
                to: NodeId(21),
            }])
            .unwrap();
        assert_eq!(deleted.tier, OracleTier::Bfs);
        let h = s.pin();
        let g = h.ctx().graph();
        for u in [0u32, 5, 19, 21, 49_000] {
            let reach: std::collections::HashMap<NodeId, u32> =
                g.bounded_bfs(NodeId(u), u32::MAX).into_iter().collect();
            let targets: Vec<(NodeId, NodeId)> = [0u32, 3, 4, 11, 20, 21, 40, 25_000, 50_009]
                .iter()
                .map(|&v| (NodeId(u), NodeId(v)))
                .collect();
            let got = h.ctx().oracle().dist_batch(&targets, u32::MAX);
            for (&(_, v), d) in targets.iter().zip(got) {
                assert_eq!(d, reach.get(&v).copied(), "distance({u}, {v:?})");
            }
        }
    }

    #[test]
    fn past_the_crossover_bounds_beyond_four_are_exact() {
        let graph = chain(50_010);
        let path =
            std::env::temp_dir().join(format!("wqe-core-live-chain-{}.wqs", std::process::id()));
        wqe_store::build_and_write_snapshot(&path, &graph).unwrap();
        let fresh = EngineCtx::with_default_oracle(Arc::clone(&graph));
        let loaded = EngineCtx::from_snapshot(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let store = GraphStore::new(Arc::clone(&graph));
        let head = store.pin();
        for (name, ctx) in [
            ("fresh", &fresh),
            ("snapshot", &loaded),
            ("store", head.ctx()),
        ] {
            let oracle = ctx.oracle();
            assert_eq!(
                oracle.distance_within(NodeId(0), NodeId(5), 5),
                Some(5),
                "{name}"
            );
            assert_eq!(
                oracle.dist_batch(&[(NodeId(0), NodeId(5)), (NodeId(0), NodeId(6))], 6),
                vec![Some(5), Some(6)],
                "{name}"
            );
        }
    }
}
