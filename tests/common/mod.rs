//! Test doubles shared by the integration suites.

// Each suite uses some of these; the rest is dead code there.
#![allow(dead_code)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use wqe::core::{EngineCtx, Exemplar, WhyQuestion};
use wqe::graph::{AttrValue, CmpOp, GraphBuilder, NodeId};
use wqe::index::{DistanceOracle, Oracle};
use wqe::query::{Literal, PatternQuery};

/// A fake distance oracle over an exact `inner` one: it panics on its very
/// first call and is a pure pass-through afterwards (a fire-once crash for
/// containment tests).
pub struct FakeOracle {
    inner: Arc<dyn DistanceOracle>,
    panic_pending: AtomicBool,
}

impl FakeOracle {
    /// Panics on the first call only.
    pub fn panic_once(inner: Arc<dyn DistanceOracle>) -> Self {
        FakeOracle {
            inner,
            panic_pending: AtomicBool::new(true),
        }
    }
}

impl DistanceOracle for FakeOracle {
    fn distance_within(&self, u: NodeId, v: NodeId, bound: u32) -> Option<u32> {
        if self.panic_pending.swap(false, Ordering::Relaxed) {
            panic!("injected oracle fault: panic on first call");
        }
        self.inner.distance_within(u, v, bound)
    }

    /// Pair by pair, so a batch panics exactly where its pointwise calls
    /// would.
    fn dist_batch(&self, pairs: &[(NodeId, NodeId)], bound: u32) -> Vec<Option<u32>> {
        pairs
            .iter()
            .map(|&(u, v)| self.distance_within(u, v, bound))
            .collect()
    }
}

/// The paper's Fig. 1 question in spec form (the `wqe_core::spec` JSON
/// format), for the suites that drive the wire and the CLI.
pub const PAPER_SPEC: &str = r#"{
  "query": {
    "max_bound": 4,
    "nodes": [
      {"id": "phone", "label": "Cellphone", "focus": true,
       "literals": [
         {"attr": "Price", "op": ">=", "value": 840},
         {"attr": "Brand", "op": "=", "value": "Samsung"},
         {"attr": "RAM", "op": ">=", "value": 4},
         {"attr": "Display", "op": ">=", "value": 62}
       ]},
      {"id": "carrier", "label": "Carrier"},
      {"id": "sensor", "label": "Sensor"}
    ],
    "edges": [
      {"from": "phone", "to": "carrier", "bound": 1},
      {"from": "phone", "to": "sensor", "bound": 2}
    ]
  },
  "exemplar": {
    "tuples": [
      {"Display": 62, "Storage": "?", "Price": "_"},
      {"Display": 63, "Storage": "?", "Price": "?"}
    ],
    "constraints": [
      {"lhs": {"tuple": 1, "attr": "Price"}, "op": "<", "value": 800},
      {"lhs": {"tuple": 0, "attr": "Storage"}, "op": ">",
       "var": {"tuple": 1, "attr": "Storage"}}
    ]
  }
}"#;

/// A why-question whose evaluations are long, fruitless joins: its query
/// asks for a directed triangle of `L` nodes hanging off an `F` focus with
/// `x >= 2`, while the graph's `ls` `L` nodes form a DAG (node `i` points
/// at the next `fanout`), so verifying any of the `fs` focus candidates
/// walks the triangle's domains to exhaustion. A run on it is slow because
/// of the search's own join work, whatever the oracle; the suites state
/// the work in match steps, which no host changes.
pub fn triangle_trap(ls: usize, fs: usize, fanout: usize) -> (EngineCtx, WhyQuestion) {
    let mut b = GraphBuilder::new();
    let l: Vec<NodeId> = (0..ls).map(|_| b.add_node("L", [])).collect();
    for i in 0..ls {
        for j in i + 1..(i + 1 + fanout).min(ls) {
            b.add_edge(l[i], l[j], "e");
        }
    }
    let f: Vec<NodeId> = (0..fs)
        .map(|i| b.add_node("F", [("x", AttrValue::Int((i % 10) as i64))]))
        .collect();
    for (i, &v) in f.iter().enumerate() {
        for k in 0..3 {
            b.add_edge(v, l[(7 * i + 31 * k) % ls], "e");
        }
    }
    let graph = Arc::new(b.finalize());
    let s = graph.schema();
    let x = s.attr_id("x").expect("x attr");
    let mut q = PatternQuery::new(s.label_id("F"), 2);
    let focus = q.focus();
    let [a, bb, c] = [(); 3].map(|_| q.add_node(s.label_id("L")));
    q.add_literal(focus, Literal::new(x, CmpOp::Ge, 2))
        .expect("literal");
    for (from, to) in [(focus, a), (a, bb), (bb, c), (c, a)] {
        q.add_edge(from, to, 1).expect("edge");
    }
    let exemplar = Exemplar::from_entities(&graph, &f[..4], &[x]);
    let oracle: Arc<dyn DistanceOracle> = Arc::new(Oracle::build(&graph));
    (
        EngineCtx::new(graph, oracle),
        WhyQuestion { query: q, exemplar },
    )
}
