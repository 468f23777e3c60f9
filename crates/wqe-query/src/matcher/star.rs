//! Star views and star tables (§2.3).
//!
//! A star view decomposes a query into star queries covering every node and
//! edge. Following Fig. 4 (where the two-edge query of Fig. 1 yields *two*
//! views `Q01`, `Q02`), the decomposition here is **one star per pattern
//! edge**: the center is the endpoint closer to the focus, the other
//! endpoint is the single leaf. Stars not containing the focus carry an
//! *augmented edge* labeled with the bound-weighted center–focus distance
//! in `Q`.
//!
//! Two choices make the materialized tables maximally reusable across the
//! highly similar rewrites a Q-Chase produces (§5.2 "Caching the Stars"):
//!
//! 1. **Per-edge stars** — an operator touching one edge invalidates only
//!    that edge's table;
//! 2. **Literal-free centers** — tables are keyed and materialized on the
//!    center's *label* only; the center's current literals are applied as a
//!    cheap row filter at lookup time ([`TableView`]), so relaxing or
//!    refining a center literal (the most common rewrite step) hits the
//!    cache. Rewrite operators never change labels, so label-keyed tables
//!    stay valid across a whole chase.
//!
//! A table's rows are sorted by center and each row's leaf list by node
//! id, with the distances the materializing BFS found. The join answers
//! every edge constraint from them ([`StarTable::admits`]), so each
//! distance `Match` needs is computed once, here.

use crate::matcher::candidates::is_candidate;
use crate::pattern::{PatternQuery, QNodeId};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use wqe_graph::{Graph, NodeId};
use wqe_pool::obs::{self, Counter};

/// One leaf (spoke) of a star query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StarLeaf {
    /// The pattern node at the tip of the spoke.
    pub node: QNodeId,
    /// `true` when the pattern edge is `center -> leaf`.
    pub outgoing: bool,
    /// The edge's path bound.
    pub bound: u32,
}

/// The augmented center–focus constraint (§2.3): present when the focus is
/// not part of the star. `dist` is the bound-weighted distance in `Q`; the
/// direction follows the orientation of the connecting pattern path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AugmentedEdge {
    /// `true` when the path runs `center -> focus` in `Q`.
    pub center_to_focus: bool,
    /// The distance label.
    pub dist: u32,
}

/// A star query `Q_i` (one pattern edge plus bookkeeping).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StarQuery {
    /// The center `u_i`.
    pub center: QNodeId,
    /// Spokes (at most one in the per-edge decomposition; kept as a vec so
    /// tables generalize).
    pub leaves: Vec<StarLeaf>,
    /// Augmented constraint to the focus, when applicable.
    pub augmented: Option<AugmentedEdge>,
}

impl StarQuery {
    /// The cache key describing everything the table content depends on:
    /// the center's **label**, each leaf's full spec (label, literals,
    /// bound, direction), and the augmented constraint with the focus
    /// **label**. Center literals are deliberately excluded — they are
    /// applied at lookup time by [`TableView`].
    pub fn spec_key(&self, q: &PatternQuery) -> String {
        let label_sig = |u: QNodeId| -> String {
            q.node(u)
                .and_then(|n| n.label)
                .map(|l| l.0 as i64)
                .unwrap_or(-1)
                .to_string()
        };
        let full_sig = |u: QNodeId| -> String {
            let mut lits: Vec<String> = q
                .node(u)
                .map(|n| n.literals.as_slice())
                .unwrap_or_default()
                .iter()
                .map(|l| format!("{}{:?}{}", l.attr.0, l.op, l.value))
                .collect();
            lits.sort();
            format!("{}[{}]", label_sig(u), lits.join(","))
        };
        let mut key = format!("c:{}", label_sig(self.center));
        for leaf in &self.leaves {
            key.push_str(&format!(
                ";l:{}:{}:{}",
                if leaf.outgoing { ">" } else { "<" },
                leaf.bound,
                full_sig(leaf.node)
            ));
        }
        if let Some(aug) = self.augmented {
            key.push_str(&format!(
                ";a:{}:{}:{}",
                if aug.center_to_focus { ">" } else { "<" },
                aug.dist,
                label_sig(q.focus())
            ));
        }
        key
    }
}

/// One row of a star table: a (label-level) center match with its
/// supporting leaf matches.
#[derive(Debug, Clone)]
pub struct StarRow {
    /// The center match `v_j`.
    pub center: NodeId,
    /// For each leaf (same order as [`StarQuery::leaves`]): the matches of
    /// that leaf reachable from/to `v_j` within the bound, with distances.
    pub leaf_matches: Vec<Vec<(NodeId, u32)>>,
}

/// A materialized star table `T_i(G)`. Rows are shared (`Arc`) so the star
/// cache can hand the same materialization to many query rewrites.
#[derive(Debug, Clone)]
pub struct StarTable {
    /// The star it materializes.
    pub star: StarQuery,
    /// Verified rows (center filtered by label only), sorted by center,
    /// each leaf list sorted by node id.
    pub rows: std::sync::Arc<Vec<StarRow>>,
}

/// A star table with the *current query's* center literals applied: `live`
/// holds the indices of rows whose center satisfies them.
#[derive(Debug)]
pub struct TableView<'a> {
    /// The underlying (possibly cached) table.
    pub table: &'a StarTable,
    /// Indices of rows passing the center's literal filter.
    pub live: Vec<u32>,
}

impl<'a> TableView<'a> {
    /// Applies `q`'s current center literals (and label, defensively) to
    /// the table's rows.
    pub fn build(graph: &Graph, q: &PatternQuery, table: &'a StarTable) -> Self {
        let center = table.star.center;
        let live = table
            .rows
            .iter()
            .enumerate()
            .filter(|(_, row)| is_candidate(graph, q, center, row.center))
            .map(|(i, _)| i as u32)
            .collect();
        TableView { table, live }
    }

    /// Iterates the live rows.
    pub fn rows(&self) -> impl Iterator<Item = &StarRow> + '_ {
        self.live.iter().map(|&i| &self.table.rows[i as usize])
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// True when no row survives the filter.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }
}

impl StarTable {
    /// True if the row of `center` lists `leaf` among the matches of the
    /// star's leaf `i`: `center` has a row and `leaf` is a candidate of
    /// that leaf within its bound of `center`. Two binary searches.
    pub fn admits(&self, center: NodeId, i: usize, leaf: NodeId) -> bool {
        self.rows
            .binary_search_by_key(&center, |r| r.center)
            .is_ok_and(|r| {
                self.rows[r].leaf_matches[i]
                    .binary_search_by_key(&leaf, |&(w, _)| w)
                    .is_ok()
            })
    }

    /// Renders the table in the style of Fig. 4: one row per center match,
    /// columns listing the supporting leaf matches with distances.
    /// `name_of` resolves node ids to display names.
    pub fn display(
        &self,
        q: &PatternQuery,
        name_of: impl Fn(NodeId) -> String,
        max_rows: usize,
    ) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(out, "| u{} (center) |", self.star.center.0);
        for leaf in &self.star.leaves {
            let dir = if leaf.outgoing { "→" } else { "←" };
            let _ = write!(out, " u{} ({dir} ≤{}) |", leaf.node.0, leaf.bound);
        }
        if let Some(aug) = self.star.augmented {
            let _ = write!(out, " focus u{} (aug ≤{}) |", q.focus().0, aug.dist);
        }
        out.push_str("\n|---|");
        for _ in &self.star.leaves {
            out.push_str("---|");
        }
        if self.star.augmented.is_some() {
            out.push_str("---|");
        }
        out.push('\n');
        for row in self.rows.iter().take(max_rows) {
            let _ = write!(out, "| {} |", name_of(row.center));
            for matches in &row.leaf_matches {
                let cells: Vec<String> = matches
                    .iter()
                    .take(4)
                    .map(|&(w, d)| format!("{}:{d}", name_of(w)))
                    .collect();
                let more = if matches.len() > 4 { ", …" } else { "" };
                let _ = write!(out, " {}{more} |", cells.join(", "));
            }
            if self.star.augmented.is_some() {
                out.push_str(" ✓ |");
            }
            out.push('\n');
        }
        if self.rows.len() > max_rows {
            let _ = writeln!(out, "| … ({} rows total) |", self.rows.len());
        }
        out
    }
}

/// Query-BFS depth of every node from the focus (undirected).
fn focus_depths(q: &PatternQuery) -> HashMap<QNodeId, u32> {
    let mut depth = HashMap::new();
    let mut queue = VecDeque::new();
    depth.insert(q.focus(), 0u32);
    queue.push_back(q.focus());
    while let Some(u) = queue.pop_front() {
        let d = depth[&u];
        for (w, _) in q.neighbors(u) {
            depth.entry(w).or_insert_with(|| {
                queue.push_back(w);
                d + 1
            });
        }
    }
    depth
}

/// Decomposes `Q` into one star per edge (centered on the endpoint closer
/// to the focus). An edgeless query yields one leafless star at the focus.
pub fn decompose(q: &PatternQuery) -> Vec<StarQuery> {
    if q.edge_count() == 0 {
        return vec![StarQuery {
            center: q.focus(),
            leaves: Vec::new(),
            augmented: None,
        }];
    }
    let depth = focus_depths(q);
    let mut stars = Vec::new();
    for e in q.edges() {
        let df = depth.get(&e.from).copied().unwrap_or(u32::MAX);
        let dt = depth.get(&e.to).copied().unwrap_or(u32::MAX);
        // Center = endpoint nearer the focus (ties: `from`).
        let (center, leaf, outgoing) = if df <= dt {
            (e.from, e.to, true)
        } else {
            (e.to, e.from, false)
        };
        let augmented = if center == q.focus() || leaf == q.focus() {
            None
        } else if let Some(d) = q.directed_bound_distance(center, q.focus()) {
            Some(AugmentedEdge {
                center_to_focus: true,
                dist: d,
            })
        } else {
            q.directed_bound_distance(q.focus(), center)
                .map(|d| AugmentedEdge {
                    center_to_focus: false,
                    dist: d,
                })
        };
        stars.push(StarQuery {
            center,
            leaves: vec![StarLeaf {
                node: leaf,
                outgoing,
                bound: e.bound,
            }],
            augmented,
        });
    }
    stars
}

/// Materializes a star table by bounded BFS around each center candidate.
///
/// Centers are filtered by **label only** (literals apply at lookup time);
/// leaves by their full candidacy; the augmented constraint asks for some
/// node carrying the focus's label (any node, for a wildcard focus) in
/// range.
pub fn materialize(graph: &Graph, q: &PatternQuery, star: &StarQuery) -> StarTable {
    StarTable {
        star: star.clone(),
        rows: std::sync::Arc::new(materialize_rows(graph, q, star)),
    }
}

/// Row computation behind [`materialize`]; exposed so the star cache can
/// store rows independently of any particular [`StarQuery`] instance.
///
/// Rows come out sorted by center and each leaf list sorted by node id,
/// which is what [`StarTable::admits`] searches. One forward and one
/// backward bounded BFS scratch serve every center, and each leaf's
/// candidacy is decided once per node. Adds the rows kept to [`Counter::StarRows`] and
/// the nodes the BFS expanded to [`Counter::StarBfsPops`], once per call.
pub fn materialize_rows(graph: &Graph, q: &PatternQuery, star: &StarQuery) -> Vec<StarRow> {
    // Label-level center pool.
    let all_nodes: Vec<NodeId>;
    let center_cands: &[NodeId] = match q.node(star.center).and_then(|n| n.label) {
        Some(l) => graph.nodes_with_label(l),
        None => {
            all_nodes = graph.node_ids().collect();
            &all_nodes
        }
    };
    // How far each direction must reach: the farthest leaf or augmented
    // constraint on that side.
    let reach_of = |forward: bool| {
        let leaves = star.leaves.iter().filter(|l| l.outgoing == forward);
        let aug = star.augmented.filter(|a| a.center_to_focus == forward);
        leaves
            .map(|l| l.bound)
            .chain(aug.map(|a| a.dist))
            .max()
            .unwrap_or(0)
    };
    let mut fwd = Reach::new(graph, true, reach_of(true));
    let mut bwd = Reach::new(graph, false, reach_of(false));
    let focus_label = q.node(q.focus()).and_then(|n| n.label);
    // Per leaf, per node: whether it is a candidate of the leaf, once known.
    let mut candidacy = vec![vec![None; graph.node_count()]; star.leaves.len()];

    let mut rows = Vec::new();
    let mut pops = 0u64;
    'cand: for &v in center_cands {
        pops += fwd.run(graph, v) + bwd.run(graph, v);
        if let Some(aug) = star.augmented {
            let reach = if aug.center_to_focus { &fwd } else { &bwd };
            let ok = reach
                .iter()
                .any(|(w, d)| d <= aug.dist && focus_label.is_none_or(|l| graph.label(w) == l));
            if !ok {
                continue 'cand;
            }
        }
        let mut leaf_matches = Vec::with_capacity(star.leaves.len());
        for (leaf, known) in star.leaves.iter().zip(&mut candidacy) {
            let reach = if leaf.outgoing { &fwd } else { &bwd };
            let mut matches: Vec<(NodeId, u32)> = reach
                .iter()
                .filter(|&(w, d)| {
                    (1..=leaf.bound).contains(&d)
                        && *known[w.index()]
                            .get_or_insert_with(|| is_candidate(graph, q, leaf.node, w))
                })
                .collect();
            if matches.is_empty() {
                continue 'cand;
            }
            matches.sort_unstable_by_key(|&(w, _)| w);
            leaf_matches.push(matches);
        }
        rows.push(StarRow {
            center: v,
            leaf_matches,
        });
    }
    rows.sort_unstable_by_key(|r| r.center);
    obs::with_current(|p| {
        p.add(Counter::StarRows, rows.len() as u64);
        p.add(Counter::StarBfsPops, pops);
    });
    rows
}

/// Bounded BFS along one edge direction, reused across the centers of one
/// materialization: `dist` is node-indexed (`u32::MAX` = unseen) and
/// `reached` lists the nodes seen from the current source in BFS order —
/// queue, result and reset list at once.
struct Reach {
    forward: bool,
    bound: u32,
    dist: Vec<u32>,
    reached: Vec<NodeId>,
}

impl Reach {
    /// A BFS reaching `bound` hops; with `bound == 0` it reaches nothing
    /// and allocates nothing.
    fn new(graph: &Graph, forward: bool, bound: u32) -> Self {
        let n = if bound > 0 { graph.node_count() } else { 0 };
        Reach {
            forward,
            bound,
            dist: vec![u32::MAX; n],
            reached: Vec::new(),
        }
    }

    /// Replaces the reach set with `src`'s (`src` itself at distance 0)
    /// and returns how many nodes had their edges scanned.
    fn run(&mut self, graph: &Graph, src: NodeId) -> u64 {
        for w in self.reached.drain(..) {
            self.dist[w.index()] = u32::MAX;
        }
        if self.bound == 0 {
            return 0;
        }
        self.dist[src.index()] = 0;
        self.reached.push(src);
        let mut head = 0;
        // BFS order is distance order: past the first node at the bound,
        // nothing left in the queue needs expanding.
        while let Some(&x) = self.reached.get(head) {
            let d = self.dist[x.index()];
            if d == self.bound {
                break;
            }
            head += 1;
            let edges = if self.forward {
                graph.out_neighbors(x)
            } else {
                graph.in_neighbors(x)
            };
            for &(y, _) in edges {
                if self.dist[y.index()] == u32::MAX {
                    self.dist[y.index()] = d + 1;
                    self.reached.push(y);
                }
            }
        }
        head as u64
    }

    /// The current reach set as `(node, distance)`, in BFS order.
    fn iter(&self) -> impl Iterator<Item = (NodeId, u32)> + '_ {
        self.reached.iter().map(|&w| (w, self.dist[w.index()]))
    }
}

/// Per-pattern-node support sets from the (literal-filtered) table views:
/// the intersection across stars of the nodes each star admits, sorted.
/// This is the candidate *domain* the join verifies against — an
/// over-approximation of the true match sets. A view's live centers come
/// sorted (rows are sorted by center); its leaf supports are its rows'
/// leaf lists concatenated, sorted and deduplicated; stars sharing a
/// pattern node intersect by a merge walk.
pub fn support_domains(q: &PatternQuery, views: &[TableView<'_>]) -> HashMap<QNodeId, Vec<NodeId>> {
    let mut domains: HashMap<QNodeId, Vec<NodeId>> = HashMap::new();
    let mut intersect = |u: QNodeId, support: Vec<NodeId>| match domains.entry(u) {
        Entry::Occupied(mut d) => {
            let mut rest = support.iter().peekable();
            d.get_mut().retain(|v| {
                while rest.next_if(|&w| w < v).is_some() {}
                rest.peek() == Some(&v)
            });
        }
        Entry::Vacant(d) => {
            d.insert(support);
        }
    };
    for view in views {
        intersect(
            view.table.star.center,
            view.rows().map(|r| r.center).collect(),
        );
        for (i, leaf) in view.table.star.leaves.iter().enumerate() {
            let mut support: Vec<NodeId> = view
                .rows()
                .flat_map(|row| row.leaf_matches[i].iter().map(|&(w, _)| w))
                .collect();
            support.sort_unstable();
            support.dedup();
            intersect(leaf.node, support);
        }
    }
    let _ = q;
    domains
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::literal::Literal;
    use crate::matcher::candidates::node_candidates;
    use wqe_graph::{product::product_graph, CmpOp};

    /// The paper's query Q (Fig. 1): Cellphone focus with Carrier (bound 1)
    /// and Sensor (bound 2) spokes.
    fn paper_query(g: &wqe_graph::Graph) -> PatternQuery {
        let s = g.schema();
        let mut q = PatternQuery::new(s.label_id("Cellphone"), 4);
        let carrier = q.add_node(s.label_id("Carrier"));
        let sensor = q.add_node(s.label_id("Sensor"));
        q.add_edge(q.focus(), carrier, 1).unwrap();
        q.add_edge(q.focus(), sensor, 2).unwrap();
        let price = s.attr_id("Price").unwrap();
        let brand = s.attr_id("Brand").unwrap();
        q.add_literal(q.focus(), Literal::new(price, CmpOp::Ge, 840))
            .unwrap();
        q.add_literal(q.focus(), Literal::new(brand, CmpOp::Eq, "Samsung"))
            .unwrap();
        q
    }

    #[test]
    fn decompose_one_star_per_edge() {
        // Matches Fig. 4: Q decomposes into two views Q01 and Q02.
        let pg = product_graph();
        let q = paper_query(&pg.graph);
        let stars = decompose(&q);
        assert_eq!(stars.len(), 2);
        assert!(stars.iter().all(|s| s.center == q.focus()));
        assert!(stars.iter().all(|s| s.leaves.len() == 1));
        assert!(stars.iter().all(|s| s.augmented.is_none()));
    }

    #[test]
    fn decompose_path_has_augmented_edge() {
        let pg = product_graph();
        let s = pg.graph.schema();
        // focus -> a -> b: the (a, b) star has center a with an augmented
        // edge back to the focus (path focus -> a, so focus_to_center).
        let mut q = PatternQuery::new(s.label_id("Cellphone"), 4);
        let a = q.add_node(s.label_id("Wearable"));
        let b = q.add_node(s.label_id("Sensor"));
        q.add_edge(q.focus(), a, 1).unwrap();
        q.add_edge(a, b, 1).unwrap();
        let stars = decompose(&q);
        assert_eq!(stars.len(), 2);
        let far = stars.iter().find(|st| st.center == a).expect("star at a");
        let aug = far.augmented.expect("augmented edge to focus");
        assert!(!aug.center_to_focus);
        assert_eq!(aug.dist, 1);
    }

    #[test]
    fn materialize_label_level_then_filter() {
        let pg = product_graph();
        let g = &pg.graph;
        let q = paper_query(g);
        let stars = decompose(&q);
        // The carrier star (bound 1).
        let carrier_star = stars
            .iter()
            .find(|s| s.leaves[0].bound == 1)
            .expect("carrier star");
        let t = materialize(g, &q, carrier_star);
        // Label-level rows: every phone with a carrier (P1..P5), literals
        // NOT yet applied.
        let centers: Vec<NodeId> = t.rows.iter().map(|r| r.center).collect();
        assert_eq!(centers.len(), 5);
        // The view applies Price >= 840 & Brand = Samsung: P1, P2, P5.
        let view = TableView::build(g, &q, &t);
        let live: Vec<NodeId> = view.rows().map(|r| r.center).collect();
        assert_eq!(live, vec![pg.phones[0], pg.phones[1], pg.phones[4]]);
    }

    #[test]
    fn spec_key_excludes_center_literals() {
        let pg = product_graph();
        let g = &pg.graph;
        let q1 = paper_query(g);
        // Same query with a relaxed price literal: keys must match so the
        // cache is hit.
        let mut q2 = q1.clone();
        let price = g.schema().attr_id("Price").unwrap();
        q2.replace_literal(
            q2.focus(),
            &Literal::new(price, CmpOp::Ge, 840),
            Literal::new(price, CmpOp::Ge, 790),
        )
        .unwrap();
        let k1: Vec<String> = decompose(&q1).iter().map(|s| s.spec_key(&q1)).collect();
        let k2: Vec<String> = decompose(&q2).iter().map(|s| s.spec_key(&q2)).collect();
        assert_eq!(k1, k2);
    }

    #[test]
    fn spec_key_includes_leaf_literals() {
        let pg = product_graph();
        let g = &pg.graph;
        let q1 = paper_query(g);
        let mut q2 = q1.clone();
        let discount = g.schema().attr_id("Discount").unwrap();
        q2.add_literal(
            crate::pattern::QNodeId(1),
            Literal::new(discount, CmpOp::Eq, 25),
        )
        .unwrap();
        let k1: std::collections::HashSet<String> =
            decompose(&q1).iter().map(|s| s.spec_key(&q1)).collect();
        let k2: std::collections::HashSet<String> =
            decompose(&q2).iter().map(|s| s.spec_key(&q2)).collect();
        // Exactly one star (the carrier edge) changed key.
        assert_eq!(k1.intersection(&k2).count(), 1);
    }

    #[test]
    fn support_domains_match_paper_answer() {
        let pg = product_graph();
        let g = &pg.graph;
        let q = paper_query(g);
        let tables: Vec<StarTable> = decompose(&q)
            .iter()
            .map(|s| materialize(g, &q, s))
            .collect();
        let views: Vec<TableView> = tables.iter().map(|t| TableView::build(g, &q, t)).collect();
        let domains = support_domains(&q, &views);
        // Every domain is sorted and distinct.
        for dom in domains.values() {
            assert!(dom.windows(2).all(|w| w[0] < w[1]), "{dom:?}");
        }
        // P1, P2, P5 — both stars agree and literals applied.
        assert_eq!(
            domains[&q.focus()],
            vec![pg.phones[0], pg.phones[1], pg.phones[4]]
        );
        // Domains over-approximate actual matches: compare with raw
        // candidates for the leaves.
        for u in q.node_ids() {
            if u == q.focus() {
                continue;
            }
            let raw = node_candidates(g, &q, u);
            assert!(domains[&u].iter().all(|v| raw.contains(v)));
        }
    }

    #[test]
    fn star_table_display_fig4_style() {
        let pg = product_graph();
        let g = &pg.graph;
        let q = paper_query(g);
        let stars = decompose(&q);
        let name_attr = g.schema().attr_id("Name").unwrap();
        let t = materialize(g, &q, &stars[0]);
        let rendered = t.display(
            &q,
            |v| {
                g.attr(v, name_attr)
                    .map(|n| n.to_string())
                    .unwrap_or_else(|| format!("n{}", v.0))
            },
            3,
        );
        assert!(rendered.contains("u0 (center)"));
        assert!(rendered.lines().count() >= 4, "{rendered}");
        // Distances annotated on leaf matches.
        assert!(rendered.contains(":1") || rendered.contains(":2"));
        // Row cap respected.
        assert!(rendered.contains("rows total") || t.rows.len() <= 3);
    }

    #[test]
    fn leafless_star_for_single_node_query() {
        let pg = product_graph();
        let q = PatternQuery::new(pg.graph.schema().label_id("Cellphone"), 4);
        let stars = decompose(&q);
        assert_eq!(stars.len(), 1);
        assert!(stars[0].leaves.is_empty());
    }
}
