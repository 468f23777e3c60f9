//! Active-domain and whole-graph statistics.
//!
//! `range(A)` (Table 1) and `adom(A, G)` (§2.1) drive the operator cost
//! model and picky-literal generation, so the graph precomputes per-attribute
//! summaries at finalize time.

use crate::value::AttrValue;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Streaming summary of one attribute's active domain.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AttrStats {
    /// Number of nodes carrying the attribute.
    pub count: usize,
    /// How many carried values were numeric.
    pub numeric_count: usize,
    /// Minimum numeric value observed (`+inf` when none).
    pub min_num: f64,
    /// Maximum numeric value observed (`-inf` when none).
    pub max_num: f64,
    /// Number of distinct categorical (string/bool) values observed.
    pub distinct_categorical: usize,
    #[serde(skip)]
    seen_categorical: HashSet<String>,
}

impl Default for AttrStats {
    fn default() -> Self {
        AttrStats {
            count: 0,
            numeric_count: 0,
            min_num: f64::INFINITY,
            max_num: f64::NEG_INFINITY,
            distinct_categorical: 0,
            seen_categorical: HashSet::new(),
        }
    }
}

impl AttrStats {
    /// Reconstitutes a summary from its persisted scalar fields (the
    /// durable-snapshot load path). The categorical dedup set is not
    /// persisted — it only serves [`AttrStats::observe`] during graph
    /// construction, and a loaded graph is immutable — so a reconstituted
    /// summary answers every read-side query identically but must not be
    /// fed further observations.
    pub fn from_raw(
        count: usize,
        numeric_count: usize,
        min_num: f64,
        max_num: f64,
        distinct_categorical: usize,
    ) -> Self {
        AttrStats {
            count,
            numeric_count,
            min_num,
            max_num,
            distinct_categorical,
            seen_categorical: HashSet::new(),
        }
    }

    /// Folds one observed value into the summary.
    pub fn observe(&mut self, v: &AttrValue) {
        self.count += 1;
        match v {
            AttrValue::Int(_) | AttrValue::Float(_) => {
                let x = v.as_f64().expect("numeric");
                self.numeric_count += 1;
                self.min_num = self.min_num.min(x);
                self.max_num = self.max_num.max(x);
            }
            AttrValue::Str(s) => self.observe_categorical(s),
            AttrValue::Bool(b) => self.observe_categorical(if *b { "true" } else { "false" }),
        }
    }

    /// Counts `s` as a categorical value: booleans fold in as the strings
    /// `"true"` and `"false"`, so they share one distinct set with strings.
    fn observe_categorical(&mut self, s: &str) {
        if !self.seen_categorical.contains(s) {
            self.seen_categorical.insert(s.to_owned());
            self.distinct_categorical += 1;
        }
    }

    /// True if the attribute is predominantly numeric.
    pub fn is_numeric(&self) -> bool {
        self.numeric_count * 2 > self.count
    }
}

/// Whole-graph summary used by dataset generators and benchmark logs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GraphStats {
    /// `|V|`
    pub nodes: usize,
    /// `|E|`
    pub edges: usize,
    /// Distinct node labels.
    pub labels: usize,
    /// Distinct attribute names.
    pub attributes: usize,
    /// Mean attribute-tuple width.
    pub avg_attrs_per_node: f64,
    /// Estimated diameter `D(G)`.
    pub diameter_estimate: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_numeric_span() {
        let mut s = AttrStats::default();
        s.observe(&AttrValue::Int(10));
        s.observe(&AttrValue::Float(2.5));
        s.observe(&AttrValue::Int(7));
        assert_eq!(s.count, 3);
        assert_eq!(s.numeric_count, 3);
        assert_eq!(s.min_num, 2.5);
        assert_eq!(s.max_num, 10.0);
        assert!(s.is_numeric());
    }

    #[test]
    fn observe_categorical_distinct() {
        let mut s = AttrStats::default();
        s.observe(&"a".into());
        s.observe(&"b".into());
        s.observe(&"a".into());
        s.observe(&AttrValue::Bool(true));
        assert_eq!(s.distinct_categorical, 3);
        assert!(!s.is_numeric());
    }

    #[test]
    fn mixed_majority_wins() {
        let mut s = AttrStats::default();
        s.observe(&AttrValue::Int(1));
        s.observe(&AttrValue::Int(2));
        s.observe(&"x".into());
        assert!(s.is_numeric());
    }
}
