//! The wire contract: the request types every front door parses — the
//! question spec (`query` + `exemplar`) with its serving keys, and
//! `/v1/graph/update` batches — and the one step that resolves their
//! label and attribute names against a graph's schema.
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
//!   },
//!   "algo": "answ", "priority": "normal"
//! }
//! ```
//!
//! In tuple cells, `"?"` is a variable, `"_"` a wildcard; any other number,
//! string or boolean is a constant (a number that fits `i64` is an integer,
//! any other a float). Operators are `<`, `<=`, `=` (or `==`), `>=`, `>`.
//! The serving keys are `algo`, `priority` (`high|normal|low`),
//! `deadline_ms`, `tenant`, `epoch`, `stream` and `diff`
//! (`{"from": N, "to": M}`).
//!
//! Every object is strict: an unknown key, a value of the wrong type or an
//! integer outside its type (`bound` and `max_bound` are `u32`) is an error
//! that names its JSON path, e.g. `query.edges[1].bound: expected a
//! nonnegative integer, got a string`. `null` for an optional key means
//! the key is absent. At most one node may say `"focus": true`, and a
//! constraint has exactly one of `var` and `value`.
//!
//! # Defaults
//!
//! These are the only keys that may be left out.
//!
//! | key | default |
//! |---|---|
//! | `query.max_bound` | 4 |
//! | `query.nodes[i].id` | `"node{i}"` |
//! | `query.nodes[i].label` | any label |
//! | `query.nodes[i].focus` | `false`; when no node says `true`, the first node is the focus |
//! | `query.nodes[i].literals`, `query.edges`, `exemplar.constraints` | none |
//! | `query.edges[i].bound` | 1 |
//! | `algo` | `answ` |
//! | `priority` | `normal` |
//! | `deadline_ms`, `tenant`, `epoch` | none: the service's deadline, no tenant, the head epoch |
//! | `stream` | `false`; ignored outside `POST /v1/why` |
//! | `diff` | none; valid only at the top level of `POST /v1/why` |
//! | an update's `attrs` (`add_node`), `value` (`set_attr`) | none; no `value` drops the attribute |
//!
//! An update batch ([`parse_updates`]) is `{"updates": [op, ..]}`, each op
//! tagged by `"op"`: `add_node` (`label`, `attrs`), `set_label` (`node`,
//! `label`), `set_attr` (`node`, `attr`, `value`), `detach_node` (`node`),
//! `insert_edge` (`from`, `to`, `label`), `delete_edge` (`from`, `to`).
//! Node ids are `u32`.

use crate::engine::Algorithm;
use crate::exemplar::{Cell, Constraint, Exemplar, Rhs, TuplePattern, VarRef};
use crate::live::EpochId;
use crate::service::{Priority, QueryRequest};
use crate::session::WhyQuestion;
use serde::{DeError, Deserialize, Serialize};
use serde_json::Value;
use std::collections::HashMap;
use wqe_graph::{AttrId, AttrValue, Cells, CmpOp, Graph, GraphUpdate, NodeId, Scalar, Schema};
use wqe_query::{Literal, PatternError, PatternQuery};

/// A request that does not fit the wire contract: `path: message`, with
/// the JSON path of the offending key. Folds into
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

impl From<DeError> for SpecError {
    fn from(e: DeError) -> Self {
        SpecError(e.to_string())
    }
}

/// One request body as the wire carries it: the question spec plus the
/// serving keys. Its `Deserialize` impl checks shape and types;
/// [`Request::resolve`] checks names against a graph.
#[derive(Debug, Default, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Request {
    query: QuerySpec,
    exemplar: ExemplarSpec,
    algo: Option<String>,
    priority: Option<String>,
    deadline_ms: Option<f64>,
    tenant: Option<String>,
    epoch: Option<u64>,
    stream: Option<bool>,
    diff: Option<EpochDiff>,
}

#[derive(Debug, Default, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
struct EpochDiff {
    from: u64,
    to: u64,
}

#[derive(Debug, Default, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
struct QuerySpec {
    max_bound: Option<u32>,
    nodes: Vec<NodeSpec>,
    edges: Option<Vec<EdgeSpec>>,
}

#[derive(Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
struct NodeSpec {
    id: Option<String>,
    label: Option<String>,
    focus: Option<bool>,
    literals: Option<Vec<LiteralSpec>>,
}

#[derive(Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
struct LiteralSpec {
    attr: String,
    op: String,
    value: Scalar,
}

#[derive(Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
struct EdgeSpec {
    from: String,
    to: String,
    bound: Option<u32>,
}

#[derive(Debug, Default, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
struct ExemplarSpec {
    tuples: Vec<Cells>,
    constraints: Option<Vec<ConstraintSpec>>,
}

#[derive(Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
struct ConstraintSpec {
    lhs: VarSpec,
    op: String,
    var: Option<VarSpec>,
    value: Option<Scalar>,
}

#[derive(Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
struct VarSpec {
    tuple: usize,
    attr: String,
}

fn parse_op(op: &str, path: impl FnOnce() -> String) -> Result<CmpOp, SpecError> {
    Ok(match op {
        "<" => CmpOp::Lt,
        "<=" => CmpOp::Le,
        "=" | "==" => CmpOp::Eq,
        ">=" => CmpOp::Ge,
        ">" => CmpOp::Gt,
        _ => return Err(SpecError(format!("{}: unknown operator {op:?}", path()))),
    })
}

fn attr_id(
    schema: &Schema,
    name: &str,
    path: impl FnOnce() -> String,
) -> Result<AttrId, SpecError> {
    let unknown = || SpecError(format!("{}: unknown attribute {name:?}", path()));
    schema.attr_id(name).ok_or_else(unknown)
}

impl Request {
    /// Resolves the request against `graph`'s schema. Returns the service
    /// request and whether `"stream": true` was set. A `diff` is an error
    /// here: only `POST /v1/why` takes one, with [`Request::take_diff`].
    pub fn resolve(&self, graph: &Graph) -> Result<(QueryRequest, bool), SpecError> {
        if self.diff.is_some() {
            return Err(SpecError(
                "diff: valid only at the top level of POST /v1/why".into(),
            ));
        }
        let question = WhyQuestion {
            query: self.query.resolve(graph.schema())?,
            exemplar: self.exemplar.resolve(graph.schema())?,
        };
        let algorithm = match &self.algo {
            None => Algorithm::AnsW,
            Some(a) => Algorithm::parse(a)
                .ok_or_else(|| SpecError(format!("algo: unknown algorithm {a:?}")))?,
        };
        let mut request = QueryRequest::new(question, algorithm);
        if let Some(p) = &self.priority {
            request.priority = Priority::parse(p)
                .ok_or_else(|| SpecError(format!("priority: unknown priority {p:?}")))?;
        }
        request.deadline_ms = self.deadline_ms;
        request.tenant = self.tenant.clone();
        request.epoch = self.epoch.map(EpochId);
        Ok((request, self.stream.unwrap_or(false)))
    }

    /// Takes the `diff` key out of the request: the epochs to run it
    /// against, `from` then `to`.
    pub fn take_diff(&mut self) -> Option<(EpochId, EpochId)> {
        self.diff.take().map(|d| (EpochId(d.from), EpochId(d.to)))
    }
}

impl QuerySpec {
    fn resolve(&self, schema: &Schema) -> Result<PatternQuery, SpecError> {
        let nodes = &self.nodes;
        if nodes.is_empty() {
            return Err(SpecError("query.nodes: needs at least one node".into()));
        }
        let mut focused = (0..nodes.len()).filter(|&ix| nodes[ix].focus == Some(true));
        let focus_ix = focused.next().unwrap_or(0);
        if let Some(ix) = focused.next() {
            let msg = format!("query.nodes[{ix}].focus: query.nodes[{focus_ix}] is the focus");
            return Err(SpecError(format!("{msg}; at most one node may be")));
        }
        let label = |ix: usize| match &nodes[ix].label {
            None => Ok(None),
            Some(name) => schema.label_id(name).map(Some).ok_or_else(|| {
                SpecError(format!("query.nodes[{ix}].label: unknown label {name:?}"))
            }),
        };
        let name = |ix: usize| nodes[ix].id.clone().unwrap_or_else(|| format!("node{ix}"));

        // The focus is created first (PatternQuery::new pins it).
        let mut q = PatternQuery::new(label(focus_ix)?, self.max_bound.unwrap_or(4));
        let mut ids = HashMap::from([(name(focus_ix), q.focus())]);
        let mut qids = vec![q.focus(); nodes.len()];
        for ix in (0..nodes.len()).filter(|&ix| ix != focus_ix) {
            qids[ix] = q.add_node(label(ix)?);
            let id = name(ix);
            if ids.insert(id.clone(), qids[ix]).is_some() {
                return Err(SpecError(format!(
                    "query.nodes[{ix}].id: duplicate id {id:?}"
                )));
            }
        }

        for (ix, node) in nodes.iter().enumerate() {
            for (j, l) in node.literals.iter().flatten().enumerate() {
                let path = |key: &str| format!("query.nodes[{ix}].literals[{j}]{key}");
                let attr = attr_id(schema, &l.attr, || path(".attr"))?;
                let op = parse_op(&l.op, || path(".op"))?;
                q.add_literal(qids[ix], Literal::new(attr, op, l.value.0.clone()))
                    .map_err(|e| SpecError(format!("{}: {e}", path(""))))?;
            }
        }

        for (i, e) in self.edges.iter().flatten().enumerate() {
            let end = |key: &str, id: &str| {
                let unknown = || SpecError(format!("query.edges[{i}].{key}: unknown node {id:?}"));
                ids.get(id).copied().ok_or_else(unknown)
            };
            let (from, to) = (end("from", &e.from)?, end("to", &e.to)?);
            q.add_edge(from, to, e.bound.unwrap_or(1))
                .map_err(|err| match err {
                    PatternError::BadBound(_) => {
                        SpecError(format!("query.edges[{i}].bound: {err}"))
                    }
                    _ => SpecError(format!("query.edges[{i}]: {err}")),
                })?;
        }
        Ok(q)
    }
}

impl ExemplarSpec {
    fn resolve(&self, schema: &Schema) -> Result<Exemplar, SpecError> {
        let mut ex = Exemplar::new();
        for (i, cells) in self.tuples.iter().enumerate() {
            let mut pattern = TuplePattern::new();
            for (attr, v) in &cells.0 {
                let cell = match &v.0 {
                    AttrValue::Str(s) if s == "?" => Cell::Var,
                    AttrValue::Str(s) if s == "_" => Cell::Wildcard,
                    c => Cell::Const(c.clone()),
                };
                let a = attr_id(schema, attr, || format!("exemplar.tuples[{i}].{attr}"))?;
                pattern.cells.insert(a, cell);
            }
            ex.add_tuple(pattern);
        }
        let tuples = ex.tuples.len();
        for (i, c) in self.constraints.iter().flatten().enumerate() {
            let path = |key: &str| format!("exemplar.constraints[{i}]{key}");
            let var_ref = |key: &str, v: &VarSpec| {
                let (tuple, at) = (v.tuple, path(key));
                if tuple >= tuples {
                    return Err(SpecError(format!(
                        "{at}.tuple: no tuple {tuple} ({tuples} given)"
                    )));
                }
                let attr = attr_id(schema, &v.attr, || format!("{at}.attr"))?;
                Ok(VarRef { tuple, attr })
            };
            let lhs = var_ref(".lhs", &c.lhs)?;
            let op = parse_op(&c.op, || path(".op"))?;
            let rhs = match (&c.var, &c.value) {
                (Some(var), None) => Rhs::Var(var_ref(".var", var)?),
                (None, Some(value)) => Rhs::Const(value.0.clone()),
                (var, _) => {
                    let has = if var.is_some() { "both" } else { "neither" };
                    let msg = format!("has {has} of \"var\" and \"value\"; give exactly one");
                    return Err(SpecError(format!("{}: {msg}", path(""))));
                }
            };
            ex.add_constraint(Constraint { lhs, op, rhs });
        }
        Ok(ex)
    }
}

/// Parses a why-question spec. The body may carry every key a request
/// may ([`Request`]), and all of them are checked; only `query` and
/// `exemplar` make the question.
pub fn parse_question(graph: &Graph, spec: &Value) -> Result<WhyQuestion, SpecError> {
    let (request, _) = Request::from_value(spec)?.resolve(graph)?;
    Ok(request.question)
}

#[derive(Deserialize)]
#[serde(deny_unknown_fields)]
struct Updates {
    updates: Vec<UpdateSpec>,
}

#[derive(Deserialize)]
#[serde(tag = "op", deny_unknown_fields)]
enum UpdateSpec {
    #[serde(rename = "add_node")]
    AddNode { label: String, attrs: Option<Cells> },
    #[serde(rename = "set_label")]
    SetLabel { node: NodeId, label: String },
    #[serde(rename = "set_attr")]
    SetAttr {
        node: NodeId,
        attr: String,
        value: Option<Scalar>,
    },
    #[serde(rename = "detach_node")]
    DetachNode { node: NodeId },
    #[serde(rename = "insert_edge")]
    InsertEdge {
        from: NodeId,
        to: NodeId,
        label: String,
    },
    #[serde(rename = "delete_edge")]
    DeleteEdge { from: NodeId, to: NodeId },
}

/// Parses one `/v1/graph/update` body (the format is in the module docs).
pub fn parse_updates(body: &Value) -> Result<Vec<GraphUpdate>, SpecError> {
    let Updates { updates } = Updates::from_value(body)?;
    let update = |op| match op {
        UpdateSpec::AddNode { label, attrs } => GraphUpdate::AddNode {
            label,
            attrs: attrs
                .unwrap_or_default()
                .0
                .into_iter()
                .map(|(k, v)| (k, v.0))
                .collect(),
        },
        UpdateSpec::SetLabel { node, label } => GraphUpdate::SetLabel { node, label },
        UpdateSpec::SetAttr { node, attr, value } => GraphUpdate::SetAttr {
            node,
            attr,
            value: value.map(|v| v.0),
        },
        UpdateSpec::DetachNode { node } => GraphUpdate::DetachNode { node },
        UpdateSpec::InsertEdge { from, to, label } => GraphUpdate::InsertEdge { from, to, label },
        UpdateSpec::DeleteEdge { from, to } => GraphUpdate::DeleteEdge { from, to },
    };
    Ok(updates.into_iter().map(update).collect())
}

#[cfg(test)]
mod tests {
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
                // Every entry point must return, not panic.
                let _ = parse_question(&pg.graph, &v);
                if let Ok(mut request) = Request::from_value(&v) {
                    let _ = request.take_diff();
                    let _ = request.resolve(&pg.graph);
                }
                let _ = parse_updates(&v);
                let _ = parse_updates(&serde_json::json!({"updates": [v]}));
            }

            #[test]
            fn parser_never_panics_on_shaped_input(
                label in "[A-Za-z]{1,10}",
                attr in "[A-Za-z]{1,10}",
                op in "[<>=]{1,2}",
                val in any::<i64>(),
                bound in any::<u64>(),
                node in any::<u64>(),
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
                    "exemplar": {"tuples": [{attr.clone(): "?"}]},
                    "algo": label,
                    "priority": op,
                });
                let _ = parse_question(&pg.graph, &spec);
                let updates = serde_json::json!({"updates": [
                    {"op": "set_attr", "node": node, "attr": attr, "value": val},
                    {"op": "insert_edge", "from": node, "to": bound, "label": label},
                ]});
                let _ = parse_updates(&updates);
            }
        }
    }
}
