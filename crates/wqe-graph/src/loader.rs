//! JSON-lines graph serialization.
//!
//! A simple interchange format so graphs can be persisted and experiments
//! replayed. Each line is one record:
//!
//! ```text
//! {"node": {"id": "p1", "label": "Cellphone", "attrs": {"Price": 840}}}
//! {"edge": {"from": "p1", "to": "c1", "label": "served_by"}}
//! ```
//!
//! Node ids are arbitrary strings, resolved to dense [`NodeId`]s on load.
//! Attribute values map JSON numbers to `Int`/`Float`, strings to `Str`, and
//! booleans to `Bool` ([`Scalar`]). Loading is strict: a `null`, array or
//! object value, an unknown key, or (in TSV) a field without `=` is an
//! error naming its line and key.

use crate::error::LoadError;
use crate::graph::{Graph, GraphBuilder};
use crate::schema::NodeId;
use crate::value::{AttrValue, Cells, Scalar};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io::{BufRead, Write};

/// Serializes one record, surfacing encoder failures as `InvalidData`
/// rather than panicking mid-write.
fn encode_record(rec: &Record) -> std::io::Result<String> {
    serde_json::to_string(rec)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

#[derive(Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
struct NodeRec {
    id: String,
    label: String,
    #[serde(default)]
    attrs: Cells,
}

#[derive(Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
struct EdgeRec {
    from: String,
    to: String,
    #[serde(default)]
    label: String,
}

#[derive(Serialize, Deserialize)]
enum Record {
    #[serde(rename = "node")]
    Node(NodeRec),
    #[serde(rename = "edge")]
    Edge(EdgeRec),
}

/// Reads a graph from a JSON-lines reader. Edges may reference only nodes
/// declared on earlier lines.
pub fn read_jsonl<R: BufRead>(reader: R) -> Result<Graph, LoadError> {
    let mut builder = GraphBuilder::new();
    let mut ids: HashMap<String, NodeId> = HashMap::new();
    for (i, line) in reader.lines().enumerate() {
        let lineno = i + 1;
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        // Syntax first, then the record schema, so valid JSON that is not
        // a record is reported as a malformed record, not as bad JSON.
        let value: serde_json::Value =
            serde_json::from_str(trimmed).map_err(|source| LoadError::Json {
                line: lineno,
                source,
            })?;
        let rec: Record = serde_json::from_value(value).map_err(|e| LoadError::Malformed {
            line: lineno,
            detail: e.to_string(),
        })?;
        match rec {
            Record::Node(n) => {
                if ids.contains_key(&n.id) {
                    return Err(LoadError::DuplicateNode {
                        line: lineno,
                        id: n.id,
                    });
                }
                let attrs = n.attrs.0.iter().map(|(k, v)| (k.as_str(), v.0.clone()));
                let id = builder.add_node(&n.label, attrs);
                ids.insert(n.id, id);
            }
            Record::Edge(e) => {
                let from = *ids.get(&e.from).ok_or_else(|| LoadError::UnknownNode {
                    line: lineno,
                    id: e.from.clone(),
                })?;
                let to = *ids.get(&e.to).ok_or_else(|| LoadError::UnknownNode {
                    line: lineno,
                    id: e.to.clone(),
                })?;
                builder.add_edge(from, to, &e.label);
            }
        }
    }
    Ok(builder.finalize())
}

/// Writes a graph as JSON lines. Node ids are written as `n<index>`.
pub fn write_jsonl<W: Write>(graph: &Graph, mut w: W) -> std::io::Result<()> {
    for v in graph.node_ids() {
        let node = graph.node(v);
        let attrs = node.attrs.iter().map(|(a, val)| {
            let name = graph.schema().attr_name(*a).to_string();
            (name, Scalar(val.clone()))
        });
        let rec = Record::Node(NodeRec {
            id: format!("n{}", v.0),
            label: graph.schema().label_name(node.label).to_string(),
            attrs: Cells(attrs.collect()),
        });
        writeln!(w, "{}", encode_record(&rec)?)?;
    }
    for v in graph.node_ids() {
        for &(t, l) in graph.out_neighbors(v) {
            let rec = Record::Edge(EdgeRec {
                from: format!("n{}", v.0),
                to: format!("n{}", t.0),
                label: graph.schema().edge_label_name(l).to_string(),
            });
            writeln!(w, "{}", encode_record(&rec)?)?;
        }
    }
    Ok(())
}

/// Reads a graph from the two-file TSV format common to public graph dumps:
///
/// * `nodes`: `id<TAB>label[<TAB>attr=value ...]` — values parse as `Int`,
///   then `Float`, then `Bool`, falling back to `Str`;
/// * `edges`: `from<TAB>to[<TAB>label]`, the label `""` when absent.
///
/// Lines starting with `#` and blank lines are skipped in both files.
pub fn read_tsv<N: BufRead, E: BufRead>(nodes: N, edges: E) -> Result<Graph, LoadError> {
    let mut builder = GraphBuilder::new();
    let mut ids: HashMap<String, NodeId> = HashMap::new();
    for (i, line) in nodes.lines().enumerate() {
        let lineno = i + 1;
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let mut fields = t.split('\t');
        let (Some(id), Some(label)) = (fields.next(), fields.next()) else {
            return Err(LoadError::Malformed {
                line: lineno,
                detail: "node line needs `id<TAB>label`".to_string(),
            });
        };
        if ids.contains_key(id) {
            return Err(LoadError::DuplicateNode {
                line: lineno,
                id: id.to_string(),
            });
        }
        let attrs = fields
            .map(|f| match f.split_once('=') {
                Some((k, v)) => Ok((k, parse_tsv_value(v))),
                None => Err(LoadError::Malformed {
                    line: lineno,
                    detail: format!("attribute field {f:?} needs `name=value`"),
                }),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let nid = builder.add_node(label, attrs);
        ids.insert(id.to_string(), nid);
    }
    for (i, line) in edges.lines().enumerate() {
        let lineno = i + 1;
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let mut fields = t.split('\t');
        let (Some(from), Some(to)) = (fields.next(), fields.next()) else {
            return Err(LoadError::Malformed {
                line: lineno,
                detail: "edge line needs `from<TAB>to`".to_string(),
            });
        };
        // No label column (or the trailing tab of `write_tsv`'s empty
        // label, trimmed away): the empty label, as in JSON lines.
        let label = fields.next().unwrap_or("");
        let f = *ids.get(from).ok_or_else(|| LoadError::UnknownNode {
            line: lineno,
            id: from.to_string(),
        })?;
        let tt = *ids.get(to).ok_or_else(|| LoadError::UnknownNode {
            line: lineno,
            id: to.to_string(),
        })?;
        builder.add_edge(f, tt, label);
    }
    Ok(builder.finalize())
}

fn parse_tsv_value(v: &str) -> AttrValue {
    if let Ok(i) = v.parse::<i64>() {
        return AttrValue::Int(i);
    }
    if let Ok(f) = v.parse::<f64>() {
        if let Some(av) = AttrValue::float(f) {
            return av;
        }
    }
    match v {
        "true" => AttrValue::Bool(true),
        "false" => AttrValue::Bool(false),
        other => AttrValue::Str(other.to_string()),
    }
}

/// Writes the two-file TSV form of a graph.
pub fn write_tsv<N: Write, E: Write>(
    graph: &Graph,
    mut nodes: N,
    mut edges: E,
) -> std::io::Result<()> {
    for v in graph.node_ids() {
        let node = graph.node(v);
        write!(nodes, "n{}\t{}", v.0, graph.schema().label_name(node.label))?;
        for (a, val) in &node.attrs {
            write!(nodes, "\t{}={}", graph.schema().attr_name(*a), val)?;
        }
        writeln!(nodes)?;
    }
    for v in graph.node_ids() {
        for &(t, l) in graph.out_neighbors(v) {
            writeln!(
                edges,
                "n{}\tn{}\t{}",
                v.0,
                t.0,
                graph.schema().edge_label_name(l)
            )?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    const SAMPLE: &str = r#"
# product sample
{"node": {"id": "p1", "label": "Cellphone", "attrs": {"Price": 840, "Brand": "Samsung"}}}
{"node": {"id": "c1", "label": "Carrier", "attrs": {"Discount": 0.25}}}
{"edge": {"from": "p1", "to": "c1", "label": "served_by"}}
"#;

    #[test]
    fn roundtrip() {
        let g = read_jsonl(Cursor::new(SAMPLE)).unwrap();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        let mut buf = Vec::new();
        write_jsonl(&g, &mut buf).unwrap();
        let g2 = read_jsonl(Cursor::new(buf)).unwrap();
        assert_eq!(g2.node_count(), 2);
        assert_eq!(g2.edge_count(), 1);
        let price = g2.schema().attr_id("Price").unwrap();
        let phone = g2.schema().label_id("Cellphone").unwrap();
        let p = g2.nodes_with_label(phone)[0];
        assert_eq!(g2.attr(p, price), Some(&AttrValue::Int(840)));
    }

    #[test]
    fn unknown_node_rejected() {
        let bad = r#"{"edge": {"from": "x", "to": "y", "label": "e"}}"#;
        let err = read_jsonl(Cursor::new(bad)).unwrap_err();
        assert!(matches!(err, LoadError::UnknownNode { .. }));
    }

    #[test]
    fn duplicate_node_rejected() {
        let bad = "{\"node\": {\"id\": \"a\", \"label\": \"N\"}}\n{\"node\": {\"id\": \"a\", \"label\": \"N\"}}";
        let err = read_jsonl(Cursor::new(bad)).unwrap_err();
        assert!(matches!(err, LoadError::DuplicateNode { .. }));
    }

    #[test]
    fn invalid_json_reports_line() {
        let bad = "{\"node\": {\"id\": \"a\", \"label\": \"N\"}}\nnot-json";
        match read_jsonl(Cursor::new(bad)).unwrap_err() {
            LoadError::Json { line, .. } => assert_eq!(line, 2),
            other => panic!("expected Json error, got {other}"),
        }
    }

    #[test]
    fn tsv_roundtrip() {
        let nodes = "# comment\nn1\tCellphone\tPrice=840\tBrand=Samsung\tScore=1.5\tHot=true\nn2\tCarrier\tDiscount=25\n";
        let edges = "n1\tn2\tserved_by\n";
        let g = read_tsv(Cursor::new(nodes), Cursor::new(edges)).unwrap();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        let price = g.schema().attr_id("Price").unwrap();
        let score = g.schema().attr_id("Score").unwrap();
        let hot = g.schema().attr_id("Hot").unwrap();
        let v = crate::schema::NodeId(0);
        assert_eq!(g.attr(v, price), Some(&AttrValue::Int(840)));
        assert_eq!(g.attr(v, score), Some(&AttrValue::Float(1.5)));
        assert_eq!(g.attr(v, hot), Some(&AttrValue::Bool(true)));

        let mut nbuf = Vec::new();
        let mut ebuf = Vec::new();
        write_tsv(&g, &mut nbuf, &mut ebuf).unwrap();
        let g2 = read_tsv(Cursor::new(nbuf), Cursor::new(ebuf)).unwrap();
        assert_eq!(g2.node_count(), 2);
        assert_eq!(g2.edge_count(), 1);
        let p2 = g2.schema().attr_id("Price").unwrap();
        assert_eq!(
            g2.attr(crate::schema::NodeId(0), p2),
            Some(&AttrValue::Int(840))
        );
    }

    #[test]
    fn tsv_unknown_edge_endpoint() {
        let nodes = "a\tN\n";
        let edges = "a\tb\te\n";
        let err = read_tsv(Cursor::new(nodes), Cursor::new(edges)).unwrap_err();
        assert!(matches!(err, LoadError::UnknownNode { .. }));
    }

    #[test]
    fn tsv_duplicate_node_rejected() {
        let nodes = "a\tN\na\tN\n";
        let err = read_tsv(Cursor::new(nodes), Cursor::new("")).unwrap_err();
        assert!(matches!(err, LoadError::DuplicateNode { line: 2, .. }));
    }

    #[test]
    fn tsv_malformed_node_line_rejected() {
        // A single-field node line is structurally malformed, not JSON-broken.
        let nodes = "just-an-id\n";
        let err = read_tsv(Cursor::new(nodes), Cursor::new("")).unwrap_err();
        assert!(matches!(err, LoadError::Malformed { line: 1, .. }), "{err}");
        assert!(err.to_string().contains("id<TAB>label"));
    }

    #[test]
    fn tsv_malformed_edge_line_rejected() {
        let nodes = "a\tN\n";
        let edges = "a\n";
        let err = read_tsv(Cursor::new(nodes), Cursor::new(edges)).unwrap_err();
        assert!(matches!(err, LoadError::Malformed { line: 1, .. }), "{err}");
        assert!(err.to_string().contains("from<TAB>to"));
    }

    #[test]
    fn schema_violation_is_a_malformed_record_not_bad_json() {
        let bad = r#"{"node": {"id": "a", "label": "N", "attrs": {"Price": null}}}"#;
        let err = read_jsonl(Cursor::new(bad)).unwrap_err();
        assert!(matches!(err, LoadError::Malformed { line: 1, .. }), "{err}");
        let text = err.to_string();
        assert!(!text.contains("invalid json"), "{text}");
        assert!(text.contains("node.attrs.Price"), "{text}");
    }

    #[test]
    fn tsv_edge_without_label_gets_the_empty_label_and_round_trips() {
        let nodes = "a\tN\nb\tN\n";
        let g = read_tsv(Cursor::new(nodes), Cursor::new("a\tb\n")).unwrap();
        let from_json = read_jsonl(Cursor::new(
            "{\"node\": {\"id\": \"a\", \"label\": \"N\"}}\n\
             {\"node\": {\"id\": \"b\", \"label\": \"N\"}}\n\
             {\"edge\": {\"from\": \"a\", \"to\": \"b\"}}",
        ))
        .unwrap();
        let label = |g: &Graph| {
            let (_, l) = g.out_neighbors(NodeId(0))[0];
            g.schema().edge_label_name(l).to_string()
        };
        assert_eq!(label(&g), "");
        assert_eq!(label(&from_json), "");
        // The written form keeps the empty label column, and reads back.
        let (mut n, mut e) = (Vec::new(), Vec::new());
        write_tsv(&g, &mut n, &mut e).unwrap();
        assert_eq!(String::from_utf8(e.clone()).unwrap(), "n0\tn1\t\n");
        let back = read_tsv(Cursor::new(n), Cursor::new(e)).unwrap();
        assert_eq!(back.edge_count(), 1);
        assert_eq!(label(&back), "");
    }

    #[test]
    fn truncated_jsonl_record_is_error_not_panic() {
        // A record cut mid-object — as from a truncated download.
        let bad = "{\"node\": {\"id\": \"a\", \"lab";
        let err = read_jsonl(Cursor::new(bad)).unwrap_err();
        assert!(matches!(err, LoadError::Json { line: 1, .. }), "{err}");
    }

    #[test]
    fn garbage_bytes_are_error_not_panic() {
        let garbage: &[u8] = &[0x00, 0xde, 0xad, 0xbe, 0xef, b'\n', 0xff, 0xfe];
        // Non-UTF8 input surfaces as an Io error from the line reader;
        // anything that decodes surfaces as Json. Either way: no panic.
        let err = read_jsonl(Cursor::new(garbage)).unwrap_err();
        assert!(
            matches!(err, LoadError::Io(_) | LoadError::Json { .. }),
            "{err}"
        );
    }

    #[test]
    fn float_and_bool_values() {
        let src = r#"{"node": {"id": "a", "label": "N", "attrs": {"f": 1.5, "b": true}}}"#;
        let g = read_jsonl(Cursor::new(src)).unwrap();
        let f = g.schema().attr_id("f").unwrap();
        let b = g.schema().attr_id("b").unwrap();
        let v = crate::schema::NodeId(0);
        assert_eq!(g.attr(v, f), Some(&AttrValue::Float(1.5)));
        assert_eq!(g.attr(v, b), Some(&AttrValue::Bool(true)));
    }
}
