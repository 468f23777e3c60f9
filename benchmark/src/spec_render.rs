//! Renders a generated [`WhyQuestion`] to the JSON spec that
//! `wqe_serve::parse_request` accepts. The program parses specs but never
//! writes them; the HTTP workload needs the reverse direction.

use serde_json::{json, Map, Value};
use wqe_core::exemplar::{Cell, Rhs};
use wqe_core::{Algorithm, Exemplar, WhyQuestion};
use wqe_graph::{AttrValue, CmpOp, Graph, Schema};
use wqe_query::{PatternQuery, QNodeId};

fn op_str(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Eq => "=",
        CmpOp::Ge => ">=",
        CmpOp::Gt => ">",
    }
}

fn value_json(v: &AttrValue) -> Value {
    match v {
        AttrValue::Int(i) => json!(*i),
        AttrValue::Float(f) => json!(*f),
        AttrValue::Str(s) => json!(s.as_str()),
        AttrValue::Bool(b) => json!(*b),
    }
}

fn node_name(u: QNodeId) -> String {
    format!("n{}", u.0)
}

fn query_json(schema: &Schema, q: &PatternQuery) -> Value {
    let nodes: Vec<Value> = q
        .node_ids()
        .map(|u| {
            let node = q.node(u).expect("node_ids yields live nodes");
            let mut obj = Map::new();
            obj.insert("id".into(), json!(node_name(u)));
            if let Some(label) = node.label {
                obj.insert("label".into(), json!(schema.label_name(label)));
            }
            if u == q.focus() {
                obj.insert("focus".into(), json!(true));
            }
            let literals: Vec<Value> = node
                .literals
                .iter()
                .map(|l| {
                    json!({
                        "attr": schema.attr_name(l.attr),
                        "op": op_str(l.op),
                        "value": value_json(&l.value),
                    })
                })
                .collect();
            if !literals.is_empty() {
                obj.insert("literals".into(), Value::Array(literals));
            }
            Value::Object(obj)
        })
        .collect();
    let edges: Vec<Value> = q
        .edges()
        .iter()
        .map(|e| json!({"from": node_name(e.from), "to": node_name(e.to), "bound": e.bound}))
        .collect();
    json!({"max_bound": q.max_bound(), "nodes": nodes, "edges": edges})
}

fn exemplar_json(schema: &Schema, e: &Exemplar) -> Value {
    let tuples: Vec<Value> = e
        .tuples
        .iter()
        .map(|t| {
            // Cells live in a HashMap; sort so the same question always
            // renders to the same bytes.
            let mut cells: Vec<_> = t.cells.iter().collect();
            cells.sort_by_key(|(a, _)| **a);
            let mut obj = Map::new();
            for (attr, cell) in cells {
                let v = match cell {
                    Cell::Const(c) => value_json(c),
                    Cell::Var => json!("?"),
                    Cell::Wildcard => json!("_"),
                };
                obj.insert(schema.attr_name(*attr).to_string(), v);
            }
            Value::Object(obj)
        })
        .collect();
    let constraints: Vec<Value> = e
        .constraints
        .iter()
        .map(|c| {
            let mut obj = Map::new();
            obj.insert(
                "lhs".into(),
                json!({"tuple": c.lhs.tuple, "attr": schema.attr_name(c.lhs.attr)}),
            );
            obj.insert("op".into(), json!(op_str(c.op)));
            match &c.rhs {
                Rhs::Var(r) => obj.insert(
                    "var".into(),
                    json!({"tuple": r.tuple, "attr": schema.attr_name(r.attr)}),
                ),
                Rhs::Const(v) => obj.insert("value".into(), value_json(v)),
            };
            Value::Object(obj)
        })
        .collect();
    json!({"tuples": tuples, "constraints": constraints})
}

/// The request body for one question: the spec plus the serving keys.
pub fn render(graph: &Graph, question: &WhyQuestion, algo: Algorithm, stream: bool) -> Value {
    let schema = graph.schema();
    let mut body = Map::new();
    body.insert("query".into(), query_json(schema, &question.query));
    body.insert("exemplar".into(), exemplar_json(schema, &question.exemplar));
    body.insert("algo".into(), json!(algo.to_string()));
    if stream {
        body.insert("stream".into(), json!(true));
    }
    Value::Object(body)
}

/// True when parsing the rendered spec gives back exactly this question.
/// The spec format has no way to say "pattern node 2 was removed" or to
/// spell a string constant `"?"`, so a question whose query has tombstoned
/// node slots (or such a constant) does not survive the trip; callers drop
/// those from the pool instead of serving a different question.
pub fn round_trips(graph: &Graph, question: &WhyQuestion) -> bool {
    let spec = render(graph, question, Algorithm::AnsW, false);
    wqe_core::spec::parse_question(graph, &spec)
        .is_ok_and(|p| p.query == question.query && p.exemplar == question.exemplar)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wqe_core::paper::paper_question;
    use wqe_core::{EngineCtx, WqeConfig, WqeEngine};
    use wqe_graph::product::product_graph;
    use wqe_serve::parse_request;

    #[test]
    fn paper_question_round_trips_with_the_same_answer() {
        let graph = Arc::new(product_graph().graph);
        let question = paper_question(&graph);
        assert!(round_trips(&graph, &question));

        let body = render(&graph, &question, Algorithm::AnsHeu, true);
        let (request, stream) = parse_request(&graph, &body).expect("rendered spec parses");
        assert!(stream);
        assert_eq!(request.algorithm, Algorithm::AnsHeu);
        assert_eq!(request.question.query, question.query);
        assert_eq!(request.question.exemplar, question.exemplar);

        let ctx = EngineCtx::with_default_oracle(Arc::clone(&graph));
        let cfg = WqeConfig {
            budget: 4.0,
            ..Default::default()
        };
        let run = |q: WhyQuestion| {
            WqeEngine::new(ctx.clone(), q, cfg.clone())
                .run(Algorithm::AnsW)
                .fingerprint()
        };
        assert_eq!(run(request.question), run(question));
    }

    #[test]
    fn tombstoned_queries_are_reported_not_mangled() {
        let graph = product_graph().graph;
        let mut question = paper_question(&graph);
        let carrier = wqe_core::paper::CARRIER;
        question
            .query
            .remove_edge(question.query.focus(), carrier)
            .expect("paper query has the carrier edge");
        question.query.prune_disconnected();
        assert!(!round_trips(&graph, &question));
    }
}
