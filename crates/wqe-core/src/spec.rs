//! Human-writable JSON specs for queries and exemplars.
//!
//! The internal types use interned ids; this module resolves a friendly
//! JSON form against a graph's schema, e.g.:
//!
//! ```json
//! {
//!   "query": {
//!     "max_bound": 4,
//!     "nodes": [
//!       {"id": "phone", "label": "Cellphone", "focus": true,
//!        "literals": [{"attr": "Price", "op": ">=", "value": 840}]},
//!       {"id": "carrier", "label": "Carrier"}
//!     ],
//!     "edges": [{"from": "phone", "to": "carrier", "bound": 1}]
//!   },
//!   "exemplar": {
//!     "tuples": [
//!       {"Display": 62, "Storage": "?", "Price": "_"},
//!       {"Display": 63, "Storage": "?", "Price": "?"}
//!     ],
//!     "constraints": [
//!       {"lhs": {"tuple": 1, "attr": "Price"}, "op": "<", "value": 800},
//!       {"lhs": {"tuple": 0, "attr": "Storage"}, "op": ">",
//!        "var": {"tuple": 1, "attr": "Storage"}}
//!     ]
//!   }
//! }
//! ```
//!
//! In tuple cells, `"?"` is a variable, `"_"` a wildcard; anything else is
//! a constant.

use crate::exemplar::{Cell, Constraint, Exemplar, Rhs, TuplePattern, VarRef};
use crate::session::WhyQuestion;
use serde_json::Value;
use std::collections::HashMap;
use wqe_graph::{AttrValue, CmpOp, Graph, Schema};
use wqe_query::{Literal, PatternQuery, QNodeId};

/// Spec parsing errors, with enough context to fix the file. Folds into
/// [`crate::error::WqeError::Spec`], so spec-driven callers (the CLI, the
/// `QueryService` batch front door) surface one error type end to end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "spec error: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

fn err<T>(msg: impl Into<String>) -> Result<T, SpecError> {
    Err(SpecError(msg.into()))
}

fn parse_op(s: &str) -> Result<CmpOp, SpecError> {
    Ok(match s {
        "<" => CmpOp::Lt,
        "<=" => CmpOp::Le,
        "=" | "==" => CmpOp::Eq,
        ">=" => CmpOp::Ge,
        ">" => CmpOp::Gt,
        other => return err(format!("unknown operator {other:?}")),
    })
}

fn parse_value(v: &Value) -> Result<AttrValue, SpecError> {
    match v {
        Value::Number(n) => {
            if let Some(i) = n.as_i64() {
                Ok(AttrValue::Int(i))
            } else {
                n.as_f64()
                    .and_then(AttrValue::float)
                    .ok_or_else(|| SpecError("invalid number".into()))
            }
        }
        Value::String(s) => Ok(AttrValue::Str(s.clone())),
        Value::Bool(b) => Ok(AttrValue::Bool(*b)),
        other => err(format!("unsupported value {other}")),
    }
}

fn attr_id(schema: &Schema, name: &str) -> Result<wqe_graph::AttrId, SpecError> {
    schema
        .attr_id(name)
        .ok_or_else(|| SpecError(format!("unknown attribute {name:?}")))
}

/// Parses a query spec against the graph's schema.
pub fn parse_query(graph: &Graph, spec: &Value) -> Result<PatternQuery, SpecError> {
    let schema = graph.schema();
    let max_bound = spec.get("max_bound").and_then(Value::as_u64).unwrap_or(4) as u32;
    let nodes = spec
        .get("nodes")
        .and_then(Value::as_array)
        .ok_or_else(|| SpecError("query.nodes must be an array".into()))?;
    if nodes.is_empty() {
        return err("query needs at least one node");
    }

    // The focus must be created first (PatternQuery::new pins it).
    let focus_ix = nodes
        .iter()
        .position(|n| n.get("focus").and_then(Value::as_bool) == Some(true))
        .unwrap_or(0);

    let label_of = |n: &Value| -> Result<Option<wqe_graph::LabelId>, SpecError> {
        match n.get("label").and_then(Value::as_str) {
            None => Ok(None),
            Some(name) => match schema.label_id(name) {
                Some(l) => Ok(Some(l)),
                None => err(format!("unknown label {name:?}")),
            },
        }
    };

    let mut q = PatternQuery::new(label_of(&nodes[focus_ix])?, max_bound);
    let mut ids: HashMap<String, QNodeId> = HashMap::new();
    let node_id = |n: &Value, ix: usize| -> String {
        n.get("id")
            .and_then(Value::as_str)
            .map(str::to_string)
            .unwrap_or_else(|| format!("node{ix}"))
    };
    ids.insert(node_id(&nodes[focus_ix], focus_ix), q.focus());

    for (ix, n) in nodes.iter().enumerate() {
        if ix == focus_ix {
            continue;
        }
        let qid = q.add_node(label_of(n)?);
        let name = node_id(n, ix);
        if ids.insert(name.clone(), qid).is_some() {
            return err(format!("duplicate node id {name:?}"));
        }
    }

    // Literals.
    for (ix, n) in nodes.iter().enumerate() {
        let qid = ids[&node_id(n, ix)];
        if let Some(lits) = n.get("literals").and_then(Value::as_array) {
            for l in lits {
                let attr = l
                    .get("attr")
                    .and_then(Value::as_str)
                    .ok_or_else(|| SpecError("literal.attr missing".into()))?;
                let op = parse_op(
                    l.get("op")
                        .and_then(Value::as_str)
                        .ok_or_else(|| SpecError("literal.op missing".into()))?,
                )?;
                let value = parse_value(
                    l.get("value")
                        .ok_or_else(|| SpecError("literal.value missing".into()))?,
                )?;
                q.add_literal(qid, Literal::new(attr_id(schema, attr)?, op, value))
                    .map_err(|e| SpecError(e.to_string()))?;
            }
        }
    }

    // Edges.
    if let Some(edges) = spec.get("edges").and_then(Value::as_array) {
        for e in edges {
            let from = e
                .get("from")
                .and_then(Value::as_str)
                .ok_or_else(|| SpecError("edge.from missing".into()))?;
            let to = e
                .get("to")
                .and_then(Value::as_str)
                .ok_or_else(|| SpecError("edge.to missing".into()))?;
            let bound = e.get("bound").and_then(Value::as_u64).unwrap_or(1) as u32;
            let (fu, tu) = match (ids.get(from), ids.get(to)) {
                (Some(&f), Some(&t)) => (f, t),
                _ => return err(format!("edge references unknown node ({from} -> {to})")),
            };
            q.add_edge(fu, tu, bound)
                .map_err(|e| SpecError(e.to_string()))?;
        }
    }
    Ok(q)
}

/// Parses an exemplar spec. In tuple objects, `"?"` marks a variable and
/// `"_"` a wildcard cell.
pub fn parse_exemplar(graph: &Graph, spec: &Value) -> Result<Exemplar, SpecError> {
    let schema = graph.schema();
    let mut ex = Exemplar::new();
    let tuples = spec
        .get("tuples")
        .and_then(Value::as_array)
        .ok_or_else(|| SpecError("exemplar.tuples must be an array".into()))?;
    for t in tuples {
        let obj = t
            .as_object()
            .ok_or_else(|| SpecError("tuple must be an object".into()))?;
        let mut pattern = TuplePattern::new();
        for (attr, v) in obj {
            let a = attr_id(schema, attr)?;
            let cell = match v {
                Value::String(s) if s == "?" => Cell::Var,
                Value::String(s) if s == "_" => Cell::Wildcard,
                other => Cell::Const(parse_value(other)?),
            };
            pattern.cells.insert(a, cell);
        }
        ex.add_tuple(pattern);
    }
    if let Some(cons) = spec.get("constraints").and_then(Value::as_array) {
        for c in cons {
            let lhs = c
                .get("lhs")
                .ok_or_else(|| SpecError("constraint.lhs missing".into()))?;
            let lhs = VarRef {
                tuple: lhs.get("tuple").and_then(Value::as_u64).unwrap_or(0) as usize,
                attr: attr_id(
                    schema,
                    lhs.get("attr")
                        .and_then(Value::as_str)
                        .ok_or_else(|| SpecError("constraint.lhs.attr missing".into()))?,
                )?,
            };
            if lhs.tuple >= ex.tuples.len() {
                return err(format!("constraint references tuple {}", lhs.tuple));
            }
            let op = parse_op(
                c.get("op")
                    .and_then(Value::as_str)
                    .ok_or_else(|| SpecError("constraint.op missing".into()))?,
            )?;
            let rhs = if let Some(var) = c.get("var") {
                let r = VarRef {
                    tuple: var.get("tuple").and_then(Value::as_u64).unwrap_or(0) as usize,
                    attr: attr_id(
                        schema,
                        var.get("attr")
                            .and_then(Value::as_str)
                            .ok_or_else(|| SpecError("constraint.var.attr missing".into()))?,
                    )?,
                };
                if r.tuple >= ex.tuples.len() {
                    return err(format!("constraint references tuple {}", r.tuple));
                }
                Rhs::Var(r)
            } else if let Some(v) = c.get("value") {
                Rhs::Const(parse_value(v)?)
            } else {
                return err("constraint needs either \"var\" or \"value\"");
            };
            ex.add_constraint(Constraint { lhs, op, rhs });
        }
    }
    Ok(ex)
}

/// Parses a full why-question spec (`query` + `exemplar`).
pub fn parse_question(graph: &Graph, spec: &Value) -> Result<WhyQuestion, SpecError> {
    let query = parse_query(
        graph,
        spec.get("query")
            .ok_or_else(|| SpecError("missing \"query\"".into()))?,
    )?;
    let exemplar = parse_exemplar(
        graph,
        spec.get("exemplar")
            .ok_or_else(|| SpecError("missing \"exemplar\"".into()))?,
    )?;
    Ok(WhyQuestion { query, exemplar })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{Session, WqeConfig};
    use wqe_graph::product::product_graph;

    const PAPER_SPEC: &str = r#"{
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

    #[test]
    fn paper_spec_roundtrips_to_same_results() {
        let pg = product_graph();
        let g = &pg.graph;
        let spec: Value = serde_json::from_str(PAPER_SPEC).unwrap();
        let wq = parse_question(g, &spec).unwrap();
        // The parsed question behaves exactly like the programmatic one.
        let ctx = crate::ctx::EngineCtx::with_default_oracle(std::sync::Arc::new(g.clone()));
        let session = Session::new(
            ctx.clone(),
            &wq,
            WqeConfig {
                budget: 4.0,
                ..Default::default()
            },
        );
        assert_eq!(session.r_uo.len(), 3);
        let report = session.run(crate::Algorithm::AnsW, &wq).unwrap();
        assert!((report.best.unwrap().closeness - 0.5).abs() < 1e-9);
    }

    #[test]
    fn unknown_label_rejected() {
        let pg = product_graph();
        let spec: Value =
            serde_json::from_str(r#"{"nodes": [{"label": "Spaceship", "focus": true}]}"#).unwrap();
        let e = parse_query(&pg.graph, &spec).unwrap_err();
        assert!(e.to_string().contains("Spaceship"));
    }

    #[test]
    fn unknown_attr_rejected() {
        let pg = product_graph();
        let spec: Value = serde_json::from_str(
            r#"{"nodes": [{"label": "Cellphone", "focus": true,
                 "literals": [{"attr": "Nope", "op": "=", "value": 1}]}]}"#,
        )
        .unwrap();
        assert!(parse_query(&pg.graph, &spec).is_err());
    }

    #[test]
    fn bad_edge_reference_rejected() {
        let pg = product_graph();
        let spec: Value = serde_json::from_str(
            r#"{"nodes": [{"id": "a", "label": "Cellphone", "focus": true}],
                 "edges": [{"from": "a", "to": "ghost"}]}"#,
        )
        .unwrap();
        assert!(parse_query(&pg.graph, &spec).is_err());
    }

    mod robustness {
        use super::super::*;
        use proptest::prelude::*;
        use wqe_graph::product::product_graph;

        /// Arbitrary JSON values (bounded depth) — the parser must reject
        /// or accept them without panicking.
        fn arb_json() -> impl Strategy<Value = Value> {
            let leaf = prop_oneof![
                Just(Value::Null),
                any::<bool>().prop_map(Value::Bool),
                any::<i64>().prop_map(Value::from),
                "[a-zA-Z_?=<>.]{0,12}".prop_map(Value::String),
            ];
            leaf.prop_recursive(3, 24, 4, |inner| {
                prop_oneof![
                    proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::Array),
                    proptest::collection::vec(("[a-z_]{1,10}", inner), 0..4)
                        .prop_map(|kvs| { Value::Object(kvs.into_iter().collect()) }),
                ]
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn parser_never_panics(v in arb_json()) {
                let pg = product_graph();
                // All three entry points must return, not panic.
                let _ = parse_query(&pg.graph, &v);
                let _ = parse_exemplar(&pg.graph, &v);
                let _ = parse_question(&pg.graph, &v);
            }

            #[test]
            fn parser_never_panics_on_shaped_input(
                label in "[A-Za-z]{1,10}",
                attr in "[A-Za-z]{1,10}",
                op in "[<>=]{1,2}",
                val in any::<i64>(),
                bound in any::<u64>(),
            ) {
                let pg = product_graph();
                let spec = serde_json::json!({
                    "query": {
                        "max_bound": bound,
                        "nodes": [
                            {"id": "a", "label": label, "focus": true,
                             "literals": [{"attr": attr, "op": op, "value": val}]},
                            {"id": "b", "label": "Carrier"}
                        ],
                        "edges": [{"from": "a", "to": "b", "bound": bound}]
                    },
                    "exemplar": {"tuples": [{attr.clone(): "?"}]}
                });
                let _ = parse_question(&pg.graph, &spec);
            }
        }
    }

    #[test]
    fn constraint_tuple_bounds_checked() {
        let pg = product_graph();
        let spec: Value = serde_json::from_str(
            r#"{"tuples": [{"Display": 62}],
                "constraints": [{"lhs": {"tuple": 5, "attr": "Display"},
                                  "op": "=", "value": 1}]}"#,
        )
        .unwrap();
        assert!(parse_exemplar(&pg.graph, &spec).is_err());
    }
}
