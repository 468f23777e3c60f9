//! Test doubles shared by the integration suites.

// Each suite uses some of these; the rest is dead code there.
#![allow(dead_code)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use wqe::graph::NodeId;
use wqe::index::DistanceOracle;

/// A fake distance oracle over an exact `inner` one: it sleeps a fixed
/// delay before every distance (a deterministically slow oracle for
/// deadline tests), or panics on its very first call and is a pure
/// pass-through afterwards (a fire-once crash for containment tests).
pub struct FakeOracle {
    inner: Arc<dyn DistanceOracle>,
    delay: Duration,
    panic_pending: AtomicBool,
}

impl FakeOracle {
    /// Sleeps `millis` ms before every distance, then answers exactly.
    pub fn slow(inner: Arc<dyn DistanceOracle>, millis: u64) -> Self {
        FakeOracle {
            inner,
            delay: Duration::from_millis(millis),
            panic_pending: AtomicBool::new(false),
        }
    }

    /// Panics on the first call only.
    pub fn panic_once(inner: Arc<dyn DistanceOracle>) -> Self {
        FakeOracle {
            inner,
            delay: Duration::ZERO,
            panic_pending: AtomicBool::new(true),
        }
    }
}

impl DistanceOracle for FakeOracle {
    fn distance_within(&self, u: NodeId, v: NodeId, bound: u32) -> Option<u32> {
        if self.panic_pending.swap(false, Ordering::Relaxed) {
            panic!("injected oracle fault: panic on first call");
        }
        std::thread::sleep(self.delay);
        self.inner.distance_within(u, v, bound)
    }

    /// Pair by pair, so a batch is exactly as slow as its pointwise calls.
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
