//! # wqe-query
//!
//! Graph pattern queries, the eight atomic rewrite operators of Table 1, and
//! the star-view P-homomorphism matcher of §2.3/§5.2 — the query-processing
//! substrate of *Answering Why-questions by Exemplars in Attributed Graphs*
//! (SIGMOD 2019).
//!
//! The matcher shares ownership of its inputs (`Arc`), so it is `'static`
//! and can be used from any thread:
//!
//! ```
//! use std::sync::Arc;
//! use wqe_graph::product::product_graph;
//! use wqe_index::PllIndex;
//! use wqe_query::{Matcher, PatternQuery};
//!
//! let graph = Arc::new(product_graph().graph);
//! let oracle = Arc::new(PllIndex::build(&graph));
//! let matcher = Matcher::new(Arc::clone(&graph), oracle);
//! let q = PatternQuery::new(graph.schema().label_id("Cellphone"), 4);
//! assert_eq!(matcher.evaluate(&q).matches.len(), 6);
//! ```

#![warn(missing_docs)]

mod cache;
mod literal;
pub mod matcher;
mod ops;
mod pattern;

pub use cache::{Cached, Footprint, FootprintCache, StarCache};
pub use literal::{simplify_literals, Literal};
pub use matcher::{naive_evaluate, MatchOutcome, Matcher, Valuation};
pub use ops::{
    is_canonical, is_normal_form, normalize, sequence_cost, ApplyError, AtomicOp, OpClass, Touched,
};
pub use pattern::{PatternError, PatternQuery, QEdge, QNode, QNodeId, Topology};
