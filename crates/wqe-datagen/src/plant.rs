//! Planted-pattern workloads: synthetic graphs with a known number of
//! embedded copies of a target pattern.
//!
//! Anchor-grown ground-truth queries (see [`crate::queries`]) can have
//! answer sets of any size, often tiny. For experiments that need a
//! controlled, non-trivial ground truth — recall at scale, precision under
//! noise — this module *plants* `copies` instantiations of a template into
//! a background graph and returns the matching query, guaranteeing
//! `|Q*(G)| >= copies`.

use crate::synth::SynthConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wqe_graph::{AttrValue, CmpOp, Graph, GraphBuilder, NodeId};
use wqe_query::{Literal, PatternQuery};

/// One spoke of the planted template.
#[derive(Debug, Clone)]
pub struct PlantSpoke {
    /// Label of the spoke node.
    pub label: String,
    /// `true`: edge runs focus → spoke.
    pub outgoing: bool,
    /// Insert an unlabeled relay node so the spoke sits at distance 2
    /// (exercises edge-to-path matching).
    pub via_relay: bool,
}

/// The pattern to plant.
#[derive(Debug, Clone)]
pub struct PlantTemplate {
    /// Focus label (kept distinct from background labels).
    pub focus_label: String,
    /// Numeric focus attribute and the half-open range its planted values
    /// are drawn from — the query constrains it to exactly this range.
    pub focus_attr: (String, std::ops::Range<i64>),
    /// Spokes around the focus.
    pub spokes: Vec<PlantSpoke>,
    /// Decoy foci: same label, same spokes, but attribute values *outside*
    /// the range (candidates the query must filter out).
    pub decoys: usize,
}

impl Default for PlantTemplate {
    fn default() -> Self {
        PlantTemplate {
            focus_label: "PlantedFocus".into(),
            focus_attr: ("pval".into(), 100..200),
            spokes: vec![
                PlantSpoke {
                    label: "PlantedLeafA".into(),
                    outgoing: true,
                    via_relay: false,
                },
                PlantSpoke {
                    label: "PlantedLeafB".into(),
                    outgoing: true,
                    via_relay: true,
                },
            ],
            decoys: 0,
        }
    }
}

/// A generated planted workload.
#[derive(Debug, Clone)]
pub struct PlantedWorkload {
    /// The graph: background plus planted structures.
    pub graph: Graph,
    /// The planted focus nodes (guaranteed matches of [`PlantedWorkload::query`]).
    pub planted: Vec<NodeId>,
    /// Decoy focus nodes (same shape, failing the attribute constraint).
    pub decoys: Vec<NodeId>,
    /// The target query whose answers contain every planted focus.
    pub query: PatternQuery,
}

/// Generates a background graph and plants `copies` template instances.
pub fn generate_planted(
    background: &SynthConfig,
    template: &PlantTemplate,
    copies: usize,
) -> PlantedWorkload {
    let mut rng = StdRng::seed_from_u64(background.seed ^ 0x9E3779B97F4A7C15);
    // Build the background graph's nodes/edges through a fresh builder so
    // planted nodes share the schema.
    let bg = crate::synth::generate(background);
    let mut b = GraphBuilder::new();
    // Re-add background nodes and edges (cheap for laptop-scale graphs).
    let mut remap = Vec::with_capacity(bg.node_count());
    for v in bg.node_ids() {
        let node = bg.node(v);
        let label_name = bg.schema().label_name(node.label).to_string();
        let attrs: Vec<(String, AttrValue)> = node
            .attrs
            .iter()
            .map(|(a, val)| (bg.schema().attr_name(*a).to_string(), val.clone()))
            .collect();
        let id = b.add_node(
            &label_name,
            attrs.iter().map(|(n, v)| (n.as_str(), v.clone())),
        );
        remap.push(id);
    }
    for v in bg.node_ids() {
        for &(t, l) in bg.out_neighbors(v) {
            let name = bg.schema().edge_label_name(l).to_string();
            b.add_edge(remap[v.index()], remap[t.index()], &name);
        }
    }

    let (attr_name, range) = (&template.focus_attr.0, template.focus_attr.1.clone());
    let plant_one = |b: &mut GraphBuilder, rng: &mut StdRng, value: i64| -> NodeId {
        let focus = b.add_node(
            &template.focus_label,
            [(attr_name.as_str(), AttrValue::Int(value))],
        );
        for spoke in &template.spokes {
            let leaf = b.add_node(&spoke.label, []);
            let (src, dst) = if spoke.outgoing {
                (focus, leaf)
            } else {
                (leaf, focus)
            };
            if spoke.via_relay {
                let relay = b.add_node("PlantedRelay", []);
                b.add_edge(src, relay, "planted");
                b.add_edge(relay, dst, "planted");
            } else {
                b.add_edge(src, dst, "planted");
            }
            // Tie the structure into the background so planted nodes are
            // not an isolated island.
            if !remap.is_empty() {
                let bgn = remap[rng.gen_range(0..remap.len())];
                b.add_edge(leaf, bgn, "planted_link");
            }
        }
        focus
    };

    let planted: Vec<NodeId> = (0..copies)
        .map(|_| {
            let value = rng.gen_range(range.clone());
            plant_one(&mut b, &mut rng, value)
        })
        .collect();
    let decoys: Vec<NodeId> = (0..template.decoys)
        .map(|_| {
            // Outside the range: shifted above the upper bound.
            let value = range.end + rng.gen_range(1..100);
            plant_one(&mut b, &mut rng, value)
        })
        .collect();

    let graph = b.finalize();
    let s = graph.schema();
    let mut query = PatternQuery::new(s.label_id(&template.focus_label), 4);
    let attr = s.attr_id(attr_name).expect("planted attribute interned");
    query
        .add_literal(query.focus(), Literal::new(attr, CmpOp::Ge, range.start))
        .expect("literal");
    query
        .add_literal(query.focus(), Literal::new(attr, CmpOp::Lt, range.end))
        .expect("literal");
    for spoke in &template.spokes {
        let leaf = query.add_node(s.label_id(&spoke.label));
        let bound = if spoke.via_relay { 2 } else { 1 };
        if spoke.outgoing {
            query.add_edge(query.focus(), leaf, bound).expect("edge");
        } else {
            query.add_edge(leaf, query.focus(), bound).expect("edge");
        }
    }

    PlantedWorkload {
        graph,
        planted,
        decoys,
        query,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wqe_index::Oracle;
    use wqe_query::Matcher;

    fn small_background() -> SynthConfig {
        SynthConfig {
            nodes: 400,
            avg_out_degree: 3.0,
            labels: 6,
            seed: 13,
            ..Default::default()
        }
    }

    #[test]
    fn planted_copies_all_match() {
        let w = generate_planted(&small_background(), &PlantTemplate::default(), 12);
        let graph = Arc::new(w.graph.clone());
        let matcher = Matcher::new(Arc::clone(&graph), Arc::new(Oracle::build(&graph)));
        let out = matcher.evaluate(&w.query);
        for &p in &w.planted {
            assert!(out.matches.contains(&p), "planted focus {p:?} must match");
        }
        assert!(out.matches.len() >= 12);
    }

    #[test]
    fn decoys_are_candidates_but_not_matches() {
        let template = PlantTemplate {
            decoys: 5,
            ..Default::default()
        };
        let w = generate_planted(&small_background(), &template, 8);
        let graph = Arc::new(w.graph.clone());
        let matcher = Matcher::new(Arc::clone(&graph), Arc::new(Oracle::build(&graph)));
        let out = matcher.evaluate(&w.query);
        let focus_label = w
            .graph
            .schema()
            .label_id("PlantedFocus")
            .expect("planted label");
        for &d in &w.decoys {
            assert_eq!(w.graph.label(d), focus_label);
            assert!(!out.matches.contains(&d), "decoy {d:?} must fail the range");
        }
    }

    #[test]
    fn incoming_spokes_and_relays() {
        let template = PlantTemplate {
            spokes: vec![
                PlantSpoke {
                    label: "In".into(),
                    outgoing: false,
                    via_relay: false,
                },
                PlantSpoke {
                    label: "FarOut".into(),
                    outgoing: true,
                    via_relay: true,
                },
            ],
            ..Default::default()
        };
        let w = generate_planted(&small_background(), &template, 4);
        let graph = Arc::new(w.graph.clone());
        let matcher = Matcher::new(Arc::clone(&graph), Arc::new(Oracle::build(&graph)));
        let out = matcher.evaluate(&w.query);
        for &p in &w.planted {
            assert!(out.matches.contains(&p));
        }
        // The relayed spoke carries bound 2 in the query.
        assert!(w.query.edges().iter().any(|e| e.bound == 2));
    }

    #[test]
    fn background_preserved() {
        let cfg = small_background();
        let bg = crate::synth::generate(&cfg);
        let w = generate_planted(&cfg, &PlantTemplate::default(), 3);
        assert!(w.graph.node_count() > bg.node_count());
        // Background labels still present with plausible populations.
        let some_bg_label = bg.schema().label_ids().next().unwrap();
        let name = bg.schema().label_name(some_bg_label);
        let in_planted = w.graph.schema().label_id(name).unwrap();
        assert!(!w.graph.nodes_with_label(in_planted).is_empty());
    }
}
