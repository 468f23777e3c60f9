//! Property tests for the star-view matcher: equivalence with the naive
//! reference on random attributed graphs (cache on and off), parity of the
//! planned cursor join with the naive reference's oracle join on the
//! matcher's own domains and on synthetic tables and domains, cache
//! transparency across rewrite sequences, and the bitset-union support
//! domains against hash-set intersection.

use crate::literal::Literal;
use crate::matcher::join::JoinPlan;
use crate::matcher::star::{support_domains, StarLeaf, StarQuery, StarRow, StarTable, TableView};
use crate::matcher::{
    assignment_order, naive_evaluate, oracle_join, Matcher, Truncated, Valuation,
};
use crate::ops::AtomicOp;
use crate::pattern::{PatternQuery, QNodeId};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use wqe_graph::{AttrValue, CmpOp, Graph, GraphBuilder, LabelId, NodeId};
use wqe_index::{DistanceOracle, PllIndex};

/// Verifies every focus candidate of `q` on `matcher`'s own tables and
/// support domains through both the planned join and the oracle join.
/// Returns how many candidates matched.
fn assert_join_parity(matcher: &Matcher, oracle: &dyn DistanceOracle, q: &PatternQuery) -> usize {
    let (tables, domains) = matcher.plan(q);
    assert_join_parity_on(oracle, q, &domains, &tables, &domains[&q.focus()])
}

/// Verifies each of `focus` through one [`JoinPlan`] of `q` over `domains`
/// and `tables`, and through the oracle join, under a sweep of step
/// limits — unlimited, then every limit around and below the work the
/// candidate actually needs — and demands the same outcome, valuation and
/// steps left. One plan serves every candidate and limit, as it does in
/// an evaluation. Returns how many candidates matched.
fn assert_join_parity_on(
    oracle: &dyn DistanceOracle,
    q: &PatternQuery,
    domains: &HashMap<QNodeId, Vec<NodeId>>,
    tables: &[StarTable],
    focus: &[NodeId],
) -> usize {
    let order = assignment_order(q);
    let mut plan = JoinPlan::new(q, domains, tables);
    let mut matched = 0;
    for &v in focus {
        let mut run = |limit: usize| {
            let (mut probed, mut asked) = (limit, limit);
            let got = plan.verify(v, &mut probed);
            let want = oracle_join(oracle, q, &order, domains, v, &mut asked);
            assert_eq!(got, want, "focus {v:?}, step limit {limit}");
            assert_eq!(probed, asked, "steps left, focus {v:?}, limit {limit}");
            (got, limit - probed)
        };
        let (full, needed) = run(usize::MAX);
        matched += usize::from(matches!(full, Ok(Some(_))));
        let sweep = needed.saturating_sub(70)..=needed + 1;
        for limit in (0..needed.min(70)).chain(sweep) {
            let (got, _) = run(limit);
            assert_eq!(
                got == Err(Truncated),
                limit < needed,
                "limit {limit} of {needed}"
            );
        }
    }
    matched
}

/// An oracle that answers from star tables: a query whose edge `i` has
/// bound `i + 1` asks about edge `i`, and the pair is within it when edge
/// `i`'s table lists the leaf end in the center end's row. The star-probe
/// join answers the same way on any domains, so on synthetic tables the
/// oracle join is its reference.
struct TableOracle {
    edges: Vec<(QNodeId, QNodeId)>,
    tables: Vec<StarTable>,
}

impl DistanceOracle for TableOracle {
    fn distance_within(&self, u: NodeId, v: NodeId, bound: u32) -> Option<u32> {
        let i = bound as usize - 1;
        let (from, _) = self.edges[i];
        let table = &self.tables[i];
        let (center, leaf) = if table.star.center == from {
            (u, v)
        } else {
            (v, u)
        };
        let row = table.rows.iter().find(|r| r.center == center)?;
        row.leaf_matches[0]
            .iter()
            .any(|&(w, _)| w == leaf)
            .then_some(bound)
    }
}

/// Node ids of the synthetic joins: few, so rows, leaves and domains
/// collide and injectivity skips are routine.
const JOIN_IDS: u32 = 10;

/// A synthetic join: a wildcard pattern on four nodes (a random tree and
/// up to two extra edges, so cycles and opposite edges occur) whose edge
/// `i` has bound `i + 1`; per edge, a table centered on a random end with
/// random rows — centers without a row, rows with an empty leaf list —
/// and per node a random sorted domain, values with no row included.
fn arb_join() -> impl Strategy<Value = (PatternQuery, Vec<StarTable>, HashMap<QNodeId, Vec<NodeId>>)>
{
    let ids = || 0..JOIN_IDS;
    let rows = proptest::collection::vec((ids(), proptest::collection::vec(ids(), 0..5)), 0..7);
    (
        proptest::collection::vec((0usize..4, any::<bool>()), 3),
        proptest::collection::vec((0usize..4, 0usize..4), 0..3),
        proptest::collection::vec((any::<bool>(), rows), 5),
        proptest::collection::vec(proptest::collection::vec(ids(), 0..8), 4),
    )
        .prop_map(|(tree, extra, specs, doms)| {
            let mut q = PatternQuery::new(None, 8);
            let mut nodes = vec![q.focus()];
            let mut next_bound = 1;
            let mut add = |q: &mut PatternQuery, from, to| {
                if q.add_edge(from, to, next_bound).is_ok() {
                    next_bound += 1;
                }
            };
            for (i, (anchor, outgoing)) in tree.into_iter().enumerate() {
                let anchor = nodes[anchor % (i + 1)];
                let new = q.add_node(None);
                nodes.push(new);
                if outgoing {
                    add(&mut q, anchor, new);
                } else {
                    add(&mut q, new, anchor);
                }
            }
            for (a, b) in extra {
                add(&mut q, nodes[a], nodes[b]);
            }
            let tables = q
                .edges()
                .iter()
                .zip(specs)
                .map(|(e, (outgoing, rows))| {
                    let (center, leaf) = if outgoing {
                        (e.from, e.to)
                    } else {
                        (e.to, e.from)
                    };
                    let mut rows: Vec<StarRow> = rows
                        .into_iter()
                        .map(|(c, mut leaves)| {
                            leaves.sort_unstable();
                            leaves.dedup();
                            row(c, &leaves)
                        })
                        .collect();
                    rows.sort_by_key(|r| r.center);
                    rows.dedup_by_key(|r| r.center);
                    table(center, leaf, outgoing, e.bound, rows)
                })
                .collect();
            let domains = nodes
                .iter()
                .zip(doms)
                .map(|(&u, mut dom)| {
                    dom.sort_unstable();
                    dom.dedup();
                    (u, dom.into_iter().map(NodeId).collect())
                })
                .collect();
            (q, tables, domains)
        })
}

/// The planned join against the oracle join on a synthetic join, for every
/// node id as the focus match (in the focus domain or not, with a row or
/// not). Returns how many matched.
fn assert_synthetic_parity(
    q: &PatternQuery,
    tables: &[StarTable],
    domains: &HashMap<QNodeId, Vec<NodeId>>,
) -> usize {
    let oracle = TableOracle {
        edges: q.edges().iter().map(|e| (e.from, e.to)).collect(),
        tables: tables.to_vec(),
    };
    let focus: Vec<NodeId> = (0..JOIN_IDS).map(NodeId).collect();
    assert_join_parity_on(&oracle, q, domains, tables, &focus)
}

/// One table row: `center` and its sorted leaf ids.
fn row(center: u32, leaves: &[u32]) -> StarRow {
    StarRow {
        center: NodeId(center),
        leaf_matches: vec![leaves.iter().map(|&w| (NodeId(w), 1)).collect()],
    }
}

/// A one-leaf star of pattern edge `bound - 1` over `rows`.
fn table(
    center: QNodeId,
    leaf: QNodeId,
    outgoing: bool,
    bound: u32,
    rows: Vec<StarRow>,
) -> StarTable {
    StarTable {
        star: StarQuery {
            center,
            leaves: vec![StarLeaf {
                node: leaf,
                outgoing,
                bound,
            }],
            augmented: None,
        },
        rows: Arc::new(rows),
    }
}

/// The walks the cursors must get right, each pinned against the oracle
/// join at every step limit: a focus path `f -> a <- b` whose first edge
/// is probed from the leaf side (a's domain walks f's leaf list) and
/// whose second from the center side (b's domain walks the rows of a
/// star centered on b).
///
/// - Focus 3's row lists 2 and 6. a's domain `[0, 1, 2, 3, 5, 6]` holds
///   0, 1 and 5, which the list lacks; the hit 2, under which b finds
///   nothing; 3, the focus itself, skipped for injectivity between the
///   two hits; and the hit 6, which completes the valuation.
/// - Focus 1 has no row: a's walk fits nothing and is charged whole.
/// - Under a = 2, b's domain `[0, 2, 4, 5, 7, 9]` holds 2, skipped for
///   injectivity between rows 0 and 4; 5 and 9, which have no row; and
///   0, 4 and 7, whose rows do not list 2.
#[test]
fn cursor_join_walks_rows_and_leaf_lists_exactly() {
    let mut q = PatternQuery::new(None, 4);
    let f = q.focus();
    let a = q.add_node(None);
    let b = q.add_node(None);
    q.add_edge(f, a, 1).unwrap();
    q.add_edge(b, a, 2).unwrap();
    let tables = vec![
        table(f, a, true, 1, vec![row(3, &[2, 6])]),
        table(
            b,
            a,
            true,
            2,
            vec![row(0, &[6]), row(2, &[6]), row(4, &[6]), row(7, &[3])],
        ),
    ];
    let ids = |v: &[u32]| v.iter().copied().map(NodeId).collect::<Vec<_>>();
    let domains = HashMap::from([
        (f, ids(&[1, 3])),
        (a, ids(&[0, 1, 2, 3, 5, 6])),
        (b, ids(&[0, 2, 4, 5, 7, 9])),
    ]);
    let mut plan = JoinPlan::new(&q, &domains, &tables);
    let mut steps = usize::MAX;
    let h = plan
        .verify(NodeId(3), &mut steps)
        .unwrap()
        .expect("3 -> 6 <- 0");
    assert_eq!(
        h,
        Valuation::from([(f, NodeId(3)), (a, NodeId(6)), (b, NodeId(0))])
    );
    // a: 0, 1, 2; b under a = 2: all six; a: 3, 5, 6; b under a = 6: 0.
    assert_eq!(usize::MAX - steps, 3 + 6 + 3 + 1);
    let mut steps = 100;
    assert_eq!(plan.verify(NodeId(1), &mut steps), Ok(None));
    assert_eq!(100 - steps, 6, "a rowless center charges a's whole domain");
    assert_eq!(assert_synthetic_parity(&q, &tables, &domains), 1);
}

/// `Matcher::evaluate` equals `naive_evaluate` with the star cache on and
/// off, and never truncates.
fn assert_matches_naive(g: &Graph, q: &PatternQuery) -> Vec<wqe_graph::NodeId> {
    let oracle = PllIndex::build(g);
    let reference = naive_evaluate(g, &oracle, q);
    for cached in [true, false] {
        let mut m = matcher_for(g);
        if !cached {
            m = m.without_cache();
        }
        let out = m.evaluate(q);
        assert!(!out.truncated);
        assert_eq!(
            out.matches,
            reference,
            "cache {cached}, query:\n{}",
            q.display(g.schema())
        );
    }
    reference
}

/// A fixed query with every shape the star-probe join must get right: a
/// cycle, two opposite edges between the same two nodes, a wildcard node,
/// and stars whose focus is reached through an augmented edge.
#[test]
fn star_join_handles_cycles_opposite_edges_wildcards_and_augmented_stars() {
    let mut b = GraphBuilder::new();
    let n: Vec<_> = (0..12)
        .map(|i| b.add_node(["A", "B", "C"][i % 3], []))
        .collect();
    for i in 0..12 {
        b.add_edge(n[i], n[(i + 1) % 12], "e");
        b.add_edge(n[(i + 4) % 12], n[i], "e");
    }
    b.add_edge(n[1], n[0], "e");
    let g = b.finalize();
    let s = g.schema();
    let mut q = PatternQuery::new(s.label_id("A"), 3);
    let ub = q.add_node(s.label_id("B"));
    let any = q.add_node(None);
    let uc = q.add_node(s.label_id("C"));
    q.add_edge(q.focus(), ub, 1).unwrap();
    q.add_edge(ub, q.focus(), 2).unwrap(); // opposite edge, same two nodes
    q.add_edge(ub, any, 2).unwrap(); // star at B, augmented to the focus
    q.add_edge(any, uc, 2).unwrap(); // star at the wildcard, augmented
    q.add_edge(uc, q.focus(), 3).unwrap(); // closes the cycle
    let stars = crate::matcher::star::decompose(&q);
    assert!(stars.iter().any(|st| st.augmented.is_some()));
    let matches = assert_matches_naive(&g, &q);
    assert!(!matches.is_empty(), "the fixture has a match");
    let oracle = PllIndex::build(&g);
    assert_eq!(
        assert_join_parity(&matcher_for(&g), &oracle, &q),
        matches.len()
    );
}

fn matcher_for(g: &Graph) -> Matcher {
    let graph = Arc::new(g.clone());
    let oracle: Arc<dyn DistanceOracle> = Arc::new(PllIndex::build(g));
    Matcher::new(graph, oracle)
}

/// A random attributed digraph of 4–15 nodes over 3 labels.
fn arb_graph() -> impl Strategy<Value = Graph> {
    arb_graph_of(4..16, 3)
}

/// A random attributed digraph: `n` nodes over `labels` labels with one
/// numeric attribute `x` in 0..20, plus random edges.
fn arb_graph_of(nodes: std::ops::Range<usize>, labels: u8) -> impl Strategy<Value = Graph> {
    nodes.prop_flat_map(move |n| {
        (
            proptest::collection::vec((0..n, 0..n), 2..(n * 2)),
            proptest::collection::vec(0u8..labels, n),
            proptest::collection::vec(0i64..20, n),
        )
            .prop_map(move |(edges, labels, xs)| {
                let mut b = GraphBuilder::new();
                let ids: Vec<_> = (0..n)
                    .map(|i| b.add_node(&format!("L{}", labels[i]), [("x", AttrValue::Int(xs[i]))]))
                    .collect();
                for (u, v) in edges {
                    if u != v {
                        b.add_edge(ids[u], ids[v], "e");
                    }
                }
                b.finalize()
            })
    })
}

/// A random query over the graph's schema: 1–3 tree edges with bounds
/// 1–2, then up to two extra edges between existing nodes (cycles, and
/// opposite edges between the same two nodes), random labels with one
/// value in four a wildcard, and numeric literals on random nodes.
fn arb_query(g: &Graph) -> impl Strategy<Value = PatternQuery> {
    let label_count = g.schema().label_count() as u32;
    let x = g.schema().attr_id("x").expect("x attr");
    // Label values past the schema's labels stand for the wildcard.
    let label = move |l: u32| (l < label_count).then_some(LabelId(l));
    (
        proptest::collection::vec((0u32..label_count + 1, 1u32..3), 1..4),
        proptest::collection::vec((0usize..4, 0u8..5, 0i64..20), 0..4),
        0u32..label_count + 1,
        proptest::collection::vec((0usize..4, 0usize..4, 1u32..3), 0..3),
    )
        .prop_map(move |(spokes, lits, focus_label, extra)| {
            let mut q = PatternQuery::new(label(focus_label), 2);
            let mut nodes = vec![q.focus()];
            for (i, &(l, bound)) in spokes.iter().enumerate() {
                let new = q.add_node(label(l));
                // Alternate directions and attachment points.
                let anchor = nodes[i % nodes.len()];
                if i % 2 == 0 {
                    let _ = q.add_edge(anchor, new, bound);
                } else {
                    let _ = q.add_edge(new, anchor, bound);
                }
                nodes.push(new);
            }
            for (a, b, bound) in extra {
                // Self loops and duplicates are refused; that is fine.
                let _ = q.add_edge(nodes[a % nodes.len()], nodes[b % nodes.len()], bound);
            }
            for (node_ix, op_ix, c) in lits {
                let u = nodes[node_ix % nodes.len()];
                let op = CmpOp::ALL[op_ix as usize % 5];
                let _ = q.add_literal(u, Literal::new(x, op, c));
            }
            q
        })
}

/// Per pattern node, the intersection across views of the node sets each
/// view supports (its live centers, its live rows' leaf matches), built
/// from hash sets.
fn reference_support_domains(views: &[TableView<'_>]) -> HashMap<QNodeId, HashSet<NodeId>> {
    let mut domains: HashMap<QNodeId, HashSet<NodeId>> = HashMap::new();
    let mut intersect = |u: QNodeId, support: HashSet<NodeId>| {
        domains
            .entry(u)
            .and_modify(|d| d.retain(|v| support.contains(v)))
            .or_insert(support);
    };
    for view in views {
        intersect(
            view.table.star.center,
            view.rows().map(|r| r.center).collect(),
        );
        for (i, leaf) in view.table.star.leaves.iter().enumerate() {
            let support = view
                .rows()
                .flat_map(|r| r.leaf_matches[i].iter().map(|&(w, _)| w))
                .collect();
            intersect(leaf.node, support);
        }
    }
    domains
}

/// A one-leaf star table to build: its center and leaf pattern nodes, and
/// its rows as `(center, live, leaf matches)`.
type TableSpec = (u32, u32, Vec<(u32, bool, Vec<u32>)>);

/// Pattern nodes among four, centers and leaf matches drawn from `ids`.
fn arb_table(ids: impl Strategy<Value = u32> + Clone) -> impl Strategy<Value = TableSpec> {
    (
        0u32..4,
        0u32..4,
        proptest::collection::vec(
            (
                ids.clone(),
                any::<bool>(),
                proptest::collection::vec(ids, 0..6),
            ),
            0..10,
        ),
    )
}

/// Star tables over node ids that share one 64-bit word, that span many,
/// or that are sparse and high.
fn arb_tables() -> impl Strategy<Value = Vec<TableSpec>> {
    let tables = |ids: BoxedStrategy<u32>| proptest::collection::vec(arb_table(ids), 1..5);
    prop_oneof![
        tables((0u32..24).boxed()),
        tables((0u32..2_000).boxed()),
        tables((0u32..40).prop_map(|k| (1 << 22) + k * 4_099).boxed()),
    ]
}

/// The table a materialization would hold — rows sorted by distinct
/// center, leaf lists sorted and distinct — with its live row indices.
fn build_table((center, leaf, rows): &TableSpec) -> (StarTable, Vec<u32>) {
    let mut rows: Vec<(u32, bool, Vec<u32>)> = rows.clone();
    rows.sort_by_key(|r| r.0);
    rows.dedup_by_key(|r| r.0);
    let live = (0..rows.len() as u32)
        .filter(|&i| rows[i as usize].1)
        .collect();
    let rows = rows
        .into_iter()
        .map(|(c, _, mut leaves)| {
            leaves.sort_unstable();
            leaves.dedup();
            StarRow {
                center: NodeId(c),
                leaf_matches: vec![leaves.into_iter().map(|w| (NodeId(w), 1)).collect()],
            }
        })
        .collect();
    let star = StarQuery {
        center: QNodeId(*center),
        leaves: vec![StarLeaf {
            node: QNodeId(*leaf),
            outgoing: true,
            bound: 1,
        }],
        augmented: None,
    };
    (
        StarTable {
            star,
            rows: Arc::new(rows),
        },
        live,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `support_domains` equals hash-set intersection on random star
    /// tables under random live filters — stars sharing centers and
    /// leaves, empty rows, empty views, ids in one bitset word, across
    /// many, or sparse and high — and every domain comes sorted and
    /// distinct.
    #[test]
    fn support_domains_equal_hash_set_intersection(specs in arb_tables()) {
        let built: Vec<(StarTable, Vec<u32>)> = specs.iter().map(build_table).collect();
        let views: Vec<TableView<'_>> = built
            .iter()
            .map(|(table, live)| TableView { table, live: live.clone() })
            .collect();
        let got = support_domains(&views);
        let want = reference_support_domains(&views);
        prop_assert_eq!(got.len(), want.len());
        for (u, dom) in &got {
            prop_assert!(dom.windows(2).all(|w| w[0] < w[1]), "{:?}: {:?}", u, dom);
            let mut expected: Vec<NodeId> = want[u].iter().copied().collect();
            expected.sort_unstable();
            prop_assert_eq!(dom, &expected, "pattern node {:?}", u);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The star-view matcher agrees with the naive reference on arbitrary
    /// graphs, bounds, literal sets and pattern shapes, with the star cache
    /// on and off.
    #[test]
    fn star_matcher_equals_naive((g, q) in arb_graph().prop_flat_map(|g| {
        let q = arb_query(&g);
        (Just(g), q)
    })) {
        assert_matches_naive(&g, &q);
    }

    /// As above on one-label graphs of 120 to 159 nodes, so most focus
    /// domains are long.
    #[test]
    fn star_matcher_equals_naive_past_the_fan_out((g, q) in arb_graph_of(120..160, 1).prop_flat_map(|g| {
        let q = arb_query(&g);
        (Just(g), q)
    })) {
        assert_matches_naive(&g, &q);
    }

    /// The planned join and the oracle join agree on outcome,
    /// valuation, and steps consumed for every focus candidate at every
    /// step limit, on the matcher's own support domains (same-label
    /// pattern nodes make `used` conflicts routine here).
    #[test]
    fn star_join_equals_oracle_join((g, q) in arb_graph().prop_flat_map(|g| {
        let q = arb_query(&g);
        (Just(g), q)
    })) {
        assert_join_parity(&matcher_for(&g), &PllIndex::build(&g), &q);
    }

    /// The planned join equals the oracle join on synthetic tables and
    /// domains: rows missing for domain values and for placed centers,
    /// empty leaf lists, injectivity skips between hits, every step limit.
    #[test]
    fn planned_join_equals_oracle_join_on_any_tables((q, tables, domains) in arb_join()) {
        assert_synthetic_parity(&q, &tables, &domains);
    }

    /// Cache transparency: a matcher that has evaluated *other* rewrites
    /// first returns exactly what a fresh matcher returns.
    #[test]
    fn cache_is_transparent((g, q) in arb_graph().prop_flat_map(|g| {
        let q = arb_query(&g);
        (Just(g), q)
    })) {
        let warm = matcher_for(&g);
        // Warm the cache with literal rewrites of the query.
        let x = g.schema().attr_id("x").expect("x");
        let focus = q.focus();
        for c in [0i64, 5, 10, 15] {
            let mut variant = q.clone();
            let _ = variant.add_literal(focus, Literal::new(x, CmpOp::Ge, c));
            warm.evaluate(&variant);
        }
        // Also evaluate edge-modified variants.
        if let Some(e) = q.edges().first().copied() {
            let mut variant = q.clone();
            let _ = variant.remove_edge(e.from, e.to);
            warm.evaluate(&variant);
        }
        let from_warm = warm.evaluate(&q).matches;
        let fresh = matcher_for(&g).evaluate(&q).matches;
        prop_assert_eq!(from_warm, fresh);
    }

    /// Applying a relaxation never shrinks and a refinement never grows
    /// the answer, evaluated through the production matcher.
    #[test]
    fn operator_classes_are_monotone((g, q) in arb_graph().prop_flat_map(|g| {
        let q = arb_query(&g);
        (Just(g), q)
    })) {
        let matcher = matcher_for(&g);
        let before: std::collections::HashSet<_> =
            matcher.evaluate(&q).matches.into_iter().collect();
        let x = g.schema().attr_id("x").expect("x");
        let focus = q.focus();

        // A refinement: add a literal.
        let mut refined = q.clone();
        let add = AtomicOp::AddL {
            node: focus,
            lit: Literal::new(x, CmpOp::Ge, 10),
        };
        if add.apply(&mut refined).is_ok() {
            let after: std::collections::HashSet<_> =
                matcher.evaluate(&refined).matches.into_iter().collect();
            prop_assert!(after.is_subset(&before));
        }

        // A relaxation: remove the first literal of the focus.
        if let Some(lit) = q.node(focus).and_then(|n| n.literals.first().cloned()) {
            let mut relaxed = q.clone();
            AtomicOp::RmL { node: focus, lit }.apply(&mut relaxed).expect("applicable");
            let after: std::collections::HashSet<_> =
                matcher.evaluate(&relaxed).matches.into_iter().collect();
            prop_assert!(before.is_subset(&after));
        }

        // A relaxation: grow the first edge's bound.
        if let Some(e) = q.edges().iter().find(|e| e.bound < q.max_bound()).copied() {
            let mut relaxed = q.clone();
            AtomicOp::RxE {
                from: e.from,
                to: e.to,
                old_bound: e.bound,
                new_bound: e.bound + 1,
            }
            .apply(&mut relaxed)
            .expect("applicable");
            let after: std::collections::HashSet<_> =
                matcher.evaluate(&relaxed).matches.into_iter().collect();
            prop_assert!(before.is_subset(&after));
        }
    }
}
