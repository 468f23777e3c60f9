//! # wqe-graph
//!
//! Directed, attributed graph substrate for the WQE system (*Answering
//! Why-questions by Exemplars in Attributed Graphs*, SIGMOD 2019).
//!
//! Implements the data model of §2.1: graphs `G = (V, E, L, f_A)` whose
//! nodes carry a label and a tuple of attribute–value pairs, with
//! per-attribute active-domain statistics (`adom(A, G)`, `range(A)`) and a
//! diameter estimate `D(G)` — the two quantities Table 1's operator cost
//! model normalizes by.
//!
//! ```
//! use wqe_graph::{AttrValue, GraphBuilder};
//!
//! let mut b = GraphBuilder::new();
//! let p = b.add_node("Cellphone", [("Price", AttrValue::Int(840))]);
//! let c = b.add_node("Carrier", [("Discount", AttrValue::Int(25))]);
//! b.add_edge(p, c, "served_by");
//! let g = b.finalize();
//! assert_eq!(g.node_count(), 2);
//! ```

#![warn(missing_docs)]

mod delta;
pub mod dot;
mod error;
mod graph;
mod loader;
pub mod product;
mod schema;
mod stats;
mod value;

pub use delta::{DeltaError, DeltaSummary, GraphUpdate, TOMBSTONE_LABEL};
pub use error::LoadError;
pub use graph::{estimate_diameter, Graph, GraphBuilder, GraphParts, NodeData};
pub use loader::{read_jsonl, read_tsv, write_jsonl, write_tsv};
pub use schema::{AttrId, EdgeLabelId, Interner, LabelId, NodeId, Schema};
pub use stats::{AttrStats, GraphStats};
pub use value::{AttrValue, Cells, CmpOp, Scalar};
