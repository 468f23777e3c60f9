//! The wire contract (`wqe::core::spec`): a question spec resolves to
//! exactly the question it writes down, and any mistake in it is an error
//! that names its JSON path — never a default standing in for what was
//! written. HTTP, MCP and the CLI share these types; their front doors are
//! checked in `tests/http_serve.rs` and `tests/cli.rs`. Graph files are
//! held to the same rule: the loaders keep every value or fail naming its
//! line and key, and never panic.

mod common;

use serde_json::{json, Value};
use std::io::Cursor;
use std::sync::Arc;
use wqe::core::exemplar::Exemplar;
use wqe::core::spec::parse_question;
use wqe::core::{Algorithm, EngineCtx, Priority, WqeConfig, WqeEngine};
use wqe::graph::product::product_graph;
use wqe::graph::{read_jsonl, read_tsv, LoadError};
use wqe::query::PatternQuery;
use wqe::serve::parse_request;

fn paper_spec() -> Value {
    serde_json::from_str(common::PAPER_SPEC).expect("fixture parses")
}

/// The parse of `spec` on the product graph, as a comparable value.
fn outcome(spec: &Value) -> Result<(PatternQuery, Exemplar), String> {
    parse_question(&product_graph().graph, spec)
        .map(|wq| (wq.query, wq.exemplar))
        .map_err(|e| e.to_string())
}

fn error_of(spec: Value) -> String {
    outcome(&spec).expect_err("spec must be rejected")
}

#[test]
fn paper_spec_roundtrips_to_same_results() {
    let g = Arc::new(product_graph().graph);
    let wq = parse_question(&g, &paper_spec()).unwrap();
    let config = WqeConfig {
        budget: 4.0,
        ..Default::default()
    };
    let engine = WqeEngine::new(EngineCtx::with_default_oracle(g), wq, config);
    assert_eq!(engine.evaluate_original().outcome.matches.len(), 3);
    let best = engine.run(Algorithm::AnsW).best.unwrap();
    assert!((best.closeness - 0.5).abs() < 1e-9);
}

#[test]
fn unknown_label_rejected() {
    let e = error_of(json!({
        "query": {"nodes": [{"label": "Spaceship", "focus": true}]},
        "exemplar": {"tuples": []}
    }));
    assert!(
        e.contains("query.nodes[0].label: unknown label \"Spaceship\""),
        "{e}"
    );
}

#[test]
fn unknown_attr_rejected() {
    let e = error_of(json!({
        "query": {"nodes": [{"label": "Cellphone", "focus": true,
            "literals": [{"attr": "Nope", "op": "=", "value": 1}]}]},
        "exemplar": {"tuples": []}
    }));
    assert!(e.contains("query.nodes[0].literals[0].attr: "), "{e}");
}

#[test]
fn bad_edge_reference_rejected() {
    let e = error_of(json!({
        "query": {"nodes": [{"id": "a", "label": "Cellphone", "focus": true}],
                  "edges": [{"from": "a", "to": "ghost"}]},
        "exemplar": {"tuples": []}
    }));
    assert!(
        e.contains("query.edges[0].to: unknown node \"ghost\""),
        "{e}"
    );
}

#[test]
fn constraint_tuple_bounds_checked() {
    let e = error_of(json!({
        "query": {"nodes": [{"label": "Cellphone"}]},
        "exemplar": {"tuples": [{"Display": 62}],
            "constraints": [{"lhs": {"tuple": 5, "attr": "Display"}, "op": "=", "value": 1}]}
    }));
    assert!(e.contains("exemplar.constraints[0].lhs.tuple: "), "{e}");
}

#[test]
fn at_most_one_focus_node() {
    let e = error_of(json!({
        "query": {"nodes": [{"label": "Cellphone", "focus": true},
                            {"label": "Carrier", "focus": true}]},
        "exemplar": {"tuples": []}
    }));
    assert!(e.contains("query.nodes[1].focus: "), "{e}");
}

/// The serving keys reach the service request; absent ones take their
/// documented defaults, and a bad one is an error.
#[test]
fn parse_request_honors_serving_keys() {
    let g = product_graph().graph;
    let (req, stream) = parse_request(&g, &paper_spec()).unwrap();
    assert_eq!(req.algorithm, Algorithm::AnsW);
    assert_eq!(req.priority, Priority::Normal);
    assert_eq!(req.deadline_ms, None);
    assert_eq!(req.tenant, None);
    assert!(!stream);

    let with = |key: &str, value: Value| {
        let mut spec = paper_spec();
        if let Value::Object(m) = &mut spec {
            m.insert(key.into(), value);
        }
        spec
    };
    let mut spec = paper_spec();
    for (key, value) in [
        ("algo", json!("heu")),
        ("priority", json!("low")),
        ("deadline_ms", json!(125.5)),
        ("tenant", json!("acme")),
        ("stream", json!(true)),
    ] {
        if let Value::Object(m) = &mut spec {
            m.insert(key.into(), value);
        }
    }
    let (req, stream) = parse_request(&g, &spec).unwrap();
    assert_eq!(req.algorithm, Algorithm::AnsHeu);
    assert_eq!(req.priority, Priority::Low);
    assert_eq!(req.deadline_ms, Some(125.5));
    assert_eq!(req.tenant.as_deref(), Some("acme"));
    assert!(stream);

    assert!(parse_request(&g, &with("algo", json!("alchemy"))).is_err());
    assert!(parse_request(&g, &with("deadline_ms", json!("soon"))).is_err());
}

/// `max_bound` is a `u32`: a larger value is an error, not a wrap to a
/// small bound.
#[test]
fn max_bound_out_of_range_is_an_error() {
    let spec = common::PAPER_SPEC.replace(r#""max_bound": 4"#, r#""max_bound": 4294967300"#);
    let e = error_of(serde_json::from_str(&spec).unwrap());
    assert!(
        e.contains("query.max_bound: expected a nonnegative integer in [0, 4294967295]"),
        "{e}"
    );
}

/// Rebuilds `v` with `f` applied to the key at `target` (a JSON path).
/// `f` gets the key and its value and returns the replacement entry, or
/// `None` to drop it.
fn mutate<F>(v: &Value, path: &str, target: &str, f: &F) -> Value
where
    F: Fn(&str, &Value) -> Option<(String, Value)>,
{
    match v {
        Value::Object(obj) => Value::Object(
            obj.iter()
                .filter_map(|(k, child)| {
                    let p = if path.is_empty() {
                        k.clone()
                    } else {
                        format!("{path}.{k}")
                    };
                    if p == target {
                        f(k, child)
                    } else {
                        Some((k.clone(), mutate(child, &p, target, f)))
                    }
                })
                .collect(),
        ),
        Value::Array(items) => Value::Array(
            items
                .iter()
                .enumerate()
                .map(|(i, c)| mutate(c, &format!("{path}[{i}]"), target, f))
                .collect(),
        ),
        other => other.clone(),
    }
}

/// The path of every key of the format in `v`. Tuple cells are keyed by
/// attribute names, not keys of the format, and are skipped.
fn key_paths(v: &Value, path: &str, out: &mut Vec<String>) {
    match v {
        Value::Object(obj) if !path.starts_with("exemplar.tuples[") => {
            for (k, child) in obj.iter() {
                let p = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                out.push(p.clone());
                key_paths(child, &p, out);
            }
        }
        Value::Array(items) => {
            for (i, c) in items.iter().enumerate() {
                key_paths(c, &format!("{path}[{i}]"), out);
            }
        }
        _ => {}
    }
}

/// The documented default of an optional key (the `wqe_core::spec`
/// defaults table), written out; `None` for a required key.
fn default_of(path: &str) -> Option<Value> {
    let key = path.rsplit('.').next().unwrap();
    Some(match key {
        "max_bound" => json!(4),
        "bound" => json!(1),
        "focus" => json!(false),
        "label" => Value::Null,
        "literals" | "edges" | "constraints" => json!([]),
        "id" => {
            let ix = path.trim_start_matches("query.nodes[").split(']').next();
            json!(format!("node{}", ix.unwrap()))
        }
        _ => return None,
    })
}

/// Every single-key mutation of `PAPER_SPEC` — drop the key, rename it,
/// give it a value of another type — is a typed error naming that key's
/// path, or, for a documented optional key that is dropped, exactly the
/// question the spec with the default written out resolves to.
#[test]
fn single_key_mutations_error_at_their_path_or_default() {
    let spec = paper_spec();
    let mut paths = Vec::new();
    key_paths(&spec, "", &mut paths);
    assert!(paths.len() > 40, "walked {} keys", paths.len());
    for path in &paths {
        let (parent, key) = path.rsplit_once('.').unwrap_or(("", path));
        // A constraint's `var`/`value` pair is one rule: dropping either
        // one is an error at the constraint that names both keys.
        let names_it = |e: &str| {
            e.contains(&format!("{path}: "))
                || (e.contains(&format!("{parent}: ")) && e.contains(&format!("\"{key}\"")))
        };

        let dropped = outcome(&mutate(&spec, "", path, &|_, _| None));
        match default_of(path) {
            Some(d) => {
                let written = mutate(&spec, "", path, &|k, _| Some((k.into(), d.clone())));
                assert_eq!(dropped, outcome(&written), "dropping {path}");
            }
            None => {
                let e = dropped.expect_err(path);
                assert!(names_it(&e), "dropping {path}: {e}");
            }
        }

        let renamed = mutate(&spec, "", path, &|k, v| Some((format!("{k}_x"), v.clone())));
        let e = outcome(&renamed).expect_err(path);
        assert!(
            e.contains(&format!("{path}_x: unknown field")),
            "renaming {path}: {e}"
        );

        let retyped = mutate(&spec, "", path, &|k, v| {
            let other = if v.as_array().is_some() {
                json!("x")
            } else {
                json!([1])
            };
            Some((k.into(), other))
        });
        let e = outcome(&retyped).expect_err(path);
        assert!(names_it(&e), "retyping {path}: {e}");
    }
}

/// A valid graph file the never-panic properties splice into.
const SAMPLE: &str = r#"
# product sample
{"node": {"id": "p1", "label": "Cellphone", "attrs": {"Price": 840, "Brand": "Samsung"}}}
{"node": {"id": "c1", "label": "Carrier", "attrs": {"Discount": 0.25}}}
{"edge": {"from": "p1", "to": "c1", "label": "served_by"}}
"#;

/// Strict loading: every value the loader cannot keep, and every key it
/// does not know, is an error naming its line and key.
#[test]
fn dropped_values_and_unknown_keys_are_errors() {
    let node = r#"{"node": {"id": "a", "label": "N"}}"#;
    let cases = [
        (
            r#"{"node": {"id": "b", "label": "N", "attrs": {"k": null}}}"#,
            "node.attrs.k",
        ),
        (
            r#"{"node": {"id": "b", "label": "N", "attrs": {"k": [1]}}}"#,
            "node.attrs.k",
        ),
        (
            r#"{"node": {"id": "b", "label": "N", "attrs": {"k": {}}}}"#,
            "node.attrs.k",
        ),
        (
            r#"{"node": {"id": "b", "label": "N", "colour": 1}}"#,
            "node.colour",
        ),
        (
            r#"{"edge": {"from": "a", "to": "a", "weight": 1}}"#,
            "edge.weight",
        ),
        (r#"{"nodes": {"id": "b", "label": "N"}}"#, "nodes"),
    ];
    for (line, key) in cases {
        let err = read_jsonl(Cursor::new(format!("{node}\n{line}"))).unwrap_err();
        assert!(matches!(err, LoadError::Malformed { line: 2, .. }), "{err}");
        assert!(err.to_string().contains(key), "{err} does not name {key}");
    }
    let err = read_tsv(Cursor::new("n1\tN\tPrice=1\tbare\n"), Cursor::new("")).unwrap_err();
    assert!(matches!(err, LoadError::Malformed { line: 1, .. }), "{err}");
    assert!(err.to_string().contains("\"bare\""), "{err}");
}

/// Pieces the never-panic properties assemble lines from: JSON and TSV
/// syntax, keys, and values that parse, do not parse, or overflow.
const PIECES: [&str; 24] = [
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    "\t",
    "=",
    " ",
    "\\",
    "\"node\"",
    "\"edge\"",
    "\"id\"",
    "\"label\"",
    "\"attrs\"",
    "\"from\"",
    "\"to\"",
    "null",
    "1e999",
    "-0",
    "true",
    "\"\\u12\"",
    "\u{e9}",
];

fn assemble(ix: &[usize]) -> String {
    ix.iter().map(|&i| PIECES[i % PIECES.len()]).collect()
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(256))]

    /// Arbitrary lines never panic either loader: they load or fail typed.
    #[test]
    fn random_lines_never_panic(
        a in proptest::collection::vec(0usize..PIECES.len(), 0..24),
        b in proptest::collection::vec(0usize..PIECES.len(), 0..24),
    ) {
        let (a, b) = (assemble(&a), assemble(&b));
        let _ = read_jsonl(Cursor::new(format!("{a}\n{b}")));
        let _ = read_tsv(Cursor::new(a.clone()), Cursor::new(b.clone()));
        let _ = read_tsv(Cursor::new(format!("x\tN\n{a}")), Cursor::new(format!("x\tx\t{b}")));
    }

    /// A valid file with one byte dropped, or one piece spliced in,
    /// never panics the loader.
    #[test]
    fn spliced_records_never_panic(at in 0usize..SAMPLE.len(), piece in 0usize..PIECES.len()) {
        let at = (0..=at).rev().find(|&i| SAMPLE.is_char_boundary(i)).unwrap_or(0);
        let spliced = format!("{}{}{}", &SAMPLE[..at], PIECES[piece], &SAMPLE[at..]);
        let _ = read_jsonl(Cursor::new(spliced));
        let next = (at + 1..=SAMPLE.len()).find(|&i| SAMPLE.is_char_boundary(i));
        let dropped = format!("{}{}", &SAMPLE[..at], &SAMPLE[next.unwrap_or(at)..]);
        let _ = read_jsonl(Cursor::new(dropped));
    }
}
