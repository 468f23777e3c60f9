//! # wqe — Answering Why-questions by Exemplars in Attributed Graphs
//!
//! A from-scratch Rust reproduction of the SIGMOD 2019 paper by Namaki,
//! Song, Wu and Yang. Given a graph pattern query `Q`, its answers `Q(G)`,
//! and an *exemplar* describing desired answers, the system computes a
//! query rewrite `Q'` whose answers are as close as possible to the
//! exemplar — explaining both *why* unexpected entities matched and
//! *why-not* desired entities were missing.
//!
//! The facade re-exports the workspace crates:
//!
//! * [`graph`] — the attributed graph store (`wqe-graph`);
//! * [`index`] — exact distance indexes (`wqe-index`);
//! * [`store`] — the durable snapshot store: versioned binary graph+index
//!   files with zero-copy load (`wqe-store`);
//! * [`pool`] — worker pools, governors, observability, and the
//!   deterministic fault-injection plan (`wqe-pool`);
//! * [`query`] — pattern queries, operators, star-view matcher (`wqe-query`);
//! * [`core`] — exemplars, closeness, Q-Chase, and every algorithm
//!   (`wqe-core`);
//! * [`serve`] — the network front-end: streaming HTTP/SSE endpoints and
//!   an MCP stdio tool over `QueryService` (`wqe-serve`);
//! * [`datagen`] — synthetic datasets and why-question generators
//!   (`wqe-datagen`).
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use wqe::core::{
//!     engine::{Algorithm, WqeEngine},
//!     paper::paper_question,
//!     session::WqeConfig,
//!     EngineCtx,
//! };
//! use wqe::graph::product::product_graph;
//!
//! let graph = Arc::new(product_graph().graph);
//! let ctx = EngineCtx::with_default_oracle(Arc::clone(&graph));
//! let engine = WqeEngine::new(
//!     ctx,
//!     paper_question(&graph),
//!     WqeConfig { budget: 4.0, ..Default::default() },
//! );
//! let best = engine.run(Algorithm::AnsW).best.expect("a rewrite");
//! assert!((best.closeness - 0.5).abs() < 1e-9); // the paper's optimum
//! ```

#![warn(missing_docs)]

pub use wqe_core as core;
pub use wqe_datagen as datagen;
pub use wqe_graph as graph;
pub use wqe_index as index;
pub use wqe_pool as pool;
pub use wqe_query as query;
pub use wqe_serve as serve;
pub use wqe_store as store;
