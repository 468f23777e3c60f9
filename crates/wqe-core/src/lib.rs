//! # wqe-core
//!
//! The primary contribution of *Answering Why-questions by Exemplars in
//! Attributed Graphs* (SIGMOD 2019): exemplars and their representation,
//! the closeness model, the Q-Chase characterization, and every algorithm
//! of §5–§6 — `AnsW` (exact, anytime, with star-view caching and cl⁺
//! pruning), `AnsHeu`/`AnsHeuB` (beam search), `ApxWhyM` (Why-Many),
//! `AnsWE` (Why-Empty), the `FMAnsW` baseline, top-k suggestion, and
//! differential-table explanations.
//!
//! Each algorithm is an [`Algorithm`] variant with one entry point:
//! [`Session::run`] (or [`WqeEngine::run`] / [`WqeEngine::try_run`], which
//! call it) governs, profiles and panic-contains every search.
//!
//! The engine owns its inputs through a shared [`ctx::EngineCtx`]
//! (`Arc<Graph>` + `Arc<dyn DistanceOracle>`), built through
//! [`ctx::EngineCtx::builder`], so engines are `'static`, `Send + Sync`,
//! and many can answer questions concurrently over one graph and one
//! index:
//!
//! ```
//! use std::sync::Arc;
//! use wqe_core::ctx::EngineCtx;
//! use wqe_core::engine::{Algorithm, WqeEngine};
//! use wqe_core::paper::paper_question;
//! use wqe_core::session::WqeConfig;
//! use wqe_core::service::{QueryRequest, QueryService, ServiceConfig};
//! use wqe_graph::product::product_graph;
//!
//! let graph = Arc::new(product_graph().graph);
//! let ctx = EngineCtx::builder()
//!     .graph(Arc::clone(&graph)) // default oracle picked for the graph
//!     .build()
//!     .unwrap();
//! let engine = WqeEngine::new(
//!     ctx.clone(), // cheap: clones share the graph and the index
//!     paper_question(&graph),
//!     WqeConfig { budget: 4.0, ..Default::default() },
//! );
//! let report = engine.run(Algorithm::AnsW);
//! assert!((report.best.unwrap().closeness - 0.5).abs() < 1e-9);
//!
//! // Or go through the serving layer: admission control + answer cache.
//! let service = QueryService::new(ctx, ServiceConfig {
//!     base_config: WqeConfig { budget: 4.0, ..Default::default() },
//!     ..Default::default()
//! });
//! let resp = service.call(QueryRequest::new(paper_question(&graph), Algorithm::AnsW));
//! assert!(resp.report().unwrap().best.is_some());
//!
//! // Live graphs: a GraphStore owns the write path — see [`live`].
//! let store = wqe_core::GraphStore::new(graph);
//! assert_eq!(store.pin().id(), wqe_core::EpochId(0));
//! ```

#![warn(missing_docs)]

pub mod answ;
pub mod chase;
pub mod closeness;
pub mod ctx;
pub mod engine;
pub mod error;
pub mod exemplar;
#[cfg(test)]
mod exemplar_proptests;
pub mod explain;
pub mod explorer;
pub mod fmansw;
pub mod governor;
pub mod heuristic;
pub mod live;
pub mod metrics;
pub mod multifocus;
pub mod obs;
pub mod opsgen;
#[cfg(test)]
mod opsgen_proptests;
pub mod paper;
pub mod relevance;
pub mod service;
pub mod session;
pub mod spec;
pub mod whyempty;
pub mod whymany;

/// The scoped fork-join worker pool shared by the whole stack (re-export of
/// the bottom-level `wqe-pool` crate, so callers of `wqe-core` need no extra
/// dependency to size or share pools).
pub use wqe_pool as pool;

pub use answ::{AnswerReport, RewriteResult, TracePoint};
pub use closeness::{relative_closeness, ClosenessConfig};
pub use ctx::{EngineCtx, EngineCtxBuilder, SnapshotStartup};
pub use engine::{Algorithm, WqeEngine};
pub use error::{SnapshotErrorKind, WqeError};
pub use exemplar::{
    compute_representation, Cell, Constraint, Exemplar, Representation, Rhs, TuplePattern, VarRef,
};
pub use explain::DifferentialTable;
pub use explorer::{Explorer, SessionRecord};
pub use governor::{governor_for, Governor, Termination};
pub use live::{
    EpochHandle, EpochId, EpochInfo, EpochSubscriber, GraphStore, OracleTier, PublishReport,
};
pub use multifocus::{answer_multi_focus, FocusAnswer, MultiFocusAnswer, MultiFocusQuestion};
pub use obs::{CounterRegistry, QueryProfile, StageProfile};
pub use relevance::RelevanceSets;
pub use service::{
    CacheConfig, PendingQuery, Priority, QueryRequest, QueryResponse, QueryService, QueryStatus,
    RateLimitConfig, ServiceConfig, ServiceStats, ShedConfig, ShedReason, StreamEvent,
    StreamingQuery,
};
pub use session::{
    AnswerUpdate, EvalResult, ProgressSink, Session, WhyQuestion, WqeConfig, WqeConfigBuilder,
};
