//! The directed, attributed graph `G = (V, E, L, f_A)` of §2.1.
//!
//! Nodes carry a label and a tuple of attribute–value pairs; edges carry a
//! label. The finalized graph uses CSR adjacency (forward and reverse) for
//! cache-friendly traversal, a per-label node index for candidate lookup, and
//! precomputed per-attribute active-domain statistics used by the operator
//! cost model (Table 1 normalizes literal changes by `range(A)` and edge
//! bound changes by the diameter `D(G)`).

use crate::error::LoadError;
use crate::schema::{AttrId, EdgeLabelId, LabelId, NodeId, Schema};
use crate::stats::{AttrStats, GraphStats};
use crate::value::AttrValue;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};

/// One node's payload: its label and sorted attribute tuple.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeData {
    /// The node label `L(v)`.
    pub label: LabelId,
    /// The attribute tuple `f_A(v)`, sorted by [`AttrId`] for binary search.
    pub attrs: Vec<(AttrId, AttrValue)>,
}

impl NodeData {
    /// Looks up the value of attribute `a`, if present.
    pub fn attr(&self, a: AttrId) -> Option<&AttrValue> {
        self.attrs
            .binary_search_by_key(&a, |(id, _)| *id)
            .ok()
            .map(|i| &self.attrs[i].1)
    }
}

/// Compressed sparse row adjacency.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct Csr {
    offsets: Vec<u32>,
    targets: Vec<(NodeId, EdgeLabelId)>,
}

impl Csr {
    fn build(n: usize, mut adj: Vec<Vec<(NodeId, EdgeLabelId)>>) -> Self {
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(adj.iter().map(Vec::len).sum());
        offsets.push(0u32);
        for list in adj.iter_mut() {
            list.sort_unstable_by_key(|(v, _)| *v);
            targets.extend_from_slice(list);
            offsets.push(targets.len() as u32);
        }
        Csr { offsets, targets }
    }

    #[inline]
    fn neighbors(&self, v: NodeId) -> &[(NodeId, EdgeLabelId)] {
        let lo = self.offsets[v.index()] as usize;
        let hi = self.offsets[v.index() + 1] as usize;
        &self.targets[lo..hi]
    }
}

/// An immutable, finalized attributed graph.
///
/// Build one with [`GraphBuilder`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Graph {
    schema: Schema,
    nodes: Vec<NodeData>,
    out: Csr,
    inn: Csr,
    label_index: Vec<Vec<NodeId>>,
    edge_count: usize,
    attr_stats: Vec<AttrStats>,
    diameter: u32,
}

impl Graph {
    /// The shared schema (label/attribute/edge-label id spaces).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of nodes `|V|`.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges `|E|`.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Iterates all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// The payload of node `v`.
    #[inline]
    pub fn node(&self, v: NodeId) -> &NodeData {
        &self.nodes[v.index()]
    }

    /// The label of node `v`.
    #[inline]
    pub fn label(&self, v: NodeId) -> LabelId {
        self.nodes[v.index()].label
    }

    /// The value of attribute `a` on node `v`, if present.
    #[inline]
    pub fn attr(&self, v: NodeId, a: AttrId) -> Option<&AttrValue> {
        self.nodes[v.index()].attr(a)
    }

    /// Out-neighbors of `v` with edge labels, sorted by target id.
    #[inline]
    pub fn out_neighbors(&self, v: NodeId) -> &[(NodeId, EdgeLabelId)] {
        self.out.neighbors(v)
    }

    /// In-neighbors of `v` with edge labels, sorted by source id.
    #[inline]
    pub fn in_neighbors(&self, v: NodeId) -> &[(NodeId, EdgeLabelId)] {
        self.inn.neighbors(v)
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.out.neighbors(v).len()
    }

    /// In-degree of `v`.
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.inn.neighbors(v).len()
    }

    /// True if the directed edge `(u, v)` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.out
            .neighbors(u)
            .binary_search_by_key(&v, |(t, _)| *t)
            .is_ok()
    }

    /// Nodes carrying label `l` (the label-candidate set).
    pub fn nodes_with_label(&self, l: LabelId) -> &[NodeId] {
        self.label_index
            .get(l.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Per-attribute statistics over the active domain `adom(A, G)`.
    pub fn attr_stats(&self, a: AttrId) -> Option<&AttrStats> {
        self.attr_stats.get(a.index())
    }

    /// `range(A)` from Table 1: the numeric span of `adom(A, G)`, floored at
    /// 1.0 so cost normalization never divides by zero.
    pub fn attr_range(&self, a: AttrId) -> f64 {
        self.attr_stats(a)
            .map(|s| (s.max_num - s.min_num).max(1.0))
            .unwrap_or(1.0)
    }

    /// The (estimated) diameter `D(G)`, floored at 1.
    pub fn diameter(&self) -> u32 {
        self.diameter.max(1)
    }

    /// Distinct values of attribute `a` over a restricted node set — the
    /// `adom(A, E_P)` used by picky `RxL` generation (§5.3). Numeric values
    /// are returned sorted ascending and deduplicated.
    pub fn restricted_numeric_adom<I>(&self, a: AttrId, nodes: I) -> Vec<f64>
    where
        I: IntoIterator<Item = NodeId>,
    {
        let mut vals: Vec<f64> = nodes
            .into_iter()
            .filter_map(|v| self.attr(v, a).and_then(AttrValue::as_f64))
            .collect();
        vals.sort_by(|x, y| x.partial_cmp(y).expect("no NaN attribute values"));
        vals.dedup();
        vals
    }

    /// Whole-graph summary statistics.
    pub fn stats(&self) -> GraphStats {
        let attrs_total: usize = self.nodes.iter().map(|n| n.attrs.len()).sum();
        GraphStats {
            nodes: self.node_count(),
            edges: self.edge_count(),
            labels: self.schema.label_count(),
            attributes: self.schema.attr_count(),
            avg_attrs_per_node: if self.nodes.is_empty() {
                0.0
            } else {
                attrs_total as f64 / self.nodes.len() as f64
            },
            diameter_estimate: self.diameter(),
        }
    }

    /// Extracts the induced subgraph on `nodes` as a standalone graph with
    /// a fresh, compact id space (sharing no state with `self`). Node
    /// payloads and internal edges are copied; labels and attributes are
    /// re-interned by name. Returns the subgraph and the old→new node map.
    pub fn induced_subgraph<I>(&self, nodes: I) -> (Graph, HashMap<NodeId, NodeId>)
    where
        I: IntoIterator<Item = NodeId>,
    {
        let mut keep: Vec<NodeId> = nodes.into_iter().collect();
        keep.sort();
        keep.dedup();
        let mut b = GraphBuilder::new();
        let mut map: HashMap<NodeId, NodeId> = HashMap::with_capacity(keep.len());
        for &v in &keep {
            let node = self.node(v);
            let label = self.schema.label_name(node.label).to_string();
            let attrs: Vec<(String, AttrValue)> = node
                .attrs
                .iter()
                .map(|(a, val)| (self.schema.attr_name(*a).to_string(), val.clone()))
                .collect();
            let nv = b.add_node(&label, attrs.iter().map(|(n, v)| (n.as_str(), v.clone())));
            map.insert(v, nv);
        }
        for &v in &keep {
            for &(t, l) in self.out_neighbors(v) {
                if let Some(&nt) = map.get(&t) {
                    let name = self.schema.edge_label_name(l).to_string();
                    b.add_edge(map[&v], nt, &name);
                }
            }
        }
        (b.finalize(), map)
    }

    /// BFS distances (hop counts) from `src`, bounded by `max_dist`.
    /// Returns pairs `(node, dist)` for every node with `dist <= max_dist`,
    /// excluding `src` itself at distance 0 only if `max_dist == 0`.
    pub fn bounded_bfs(&self, src: NodeId, max_dist: u32) -> Vec<(NodeId, u32)> {
        let mut seen: HashMap<NodeId, u32> = HashMap::new();
        let mut queue = VecDeque::new();
        seen.insert(src, 0);
        queue.push_back(src);
        let mut out = vec![(src, 0)];
        while let Some(u) = queue.pop_front() {
            let d = seen[&u];
            if d == max_dist {
                continue;
            }
            for &(w, _) in self.out.neighbors(u) {
                if let std::collections::hash_map::Entry::Vacant(e) = seen.entry(w) {
                    e.insert(d + 1);
                    out.push((w, d + 1));
                    queue.push_back(w);
                }
            }
        }
        out
    }

    /// Reconstructs one shortest directed path `src -> dst` of length at
    /// most `max_dist`, inclusive of both endpoints. Returns `None` when
    /// `dst` is farther than the bound (or unreachable). Used to *witness*
    /// edge-to-path matches in explanations.
    pub fn shortest_path_within(
        &self,
        src: NodeId,
        dst: NodeId,
        max_dist: u32,
    ) -> Option<Vec<NodeId>> {
        if src == dst {
            return Some(vec![src]);
        }
        let mut parent: HashMap<NodeId, NodeId> = HashMap::new();
        let mut queue = VecDeque::new();
        let mut dist: HashMap<NodeId, u32> = HashMap::new();
        dist.insert(src, 0);
        queue.push_back(src);
        while let Some(u) = queue.pop_front() {
            let d = dist[&u];
            if d == max_dist {
                continue;
            }
            for &(w, _) in self.out.neighbors(u) {
                if dist.contains_key(&w) {
                    continue;
                }
                dist.insert(w, d + 1);
                parent.insert(w, u);
                if w == dst {
                    let mut path = vec![dst];
                    let mut cur = dst;
                    while let Some(&p) = parent.get(&cur) {
                        path.push(p);
                        cur = p;
                    }
                    path.reverse();
                    return Some(path);
                }
                queue.push_back(w);
            }
        }
        None
    }

    /// Reassembles a graph from exploded [`GraphParts`] without re-deriving
    /// CSR adjacency, the label index, statistics, or the diameter — the
    /// snapshot-load fast path. Validates structural invariants (offset
    /// monotonicity, id ranges, array lengths) and returns
    /// [`LoadError::Corrupt`] on violation; never panics.
    pub fn from_parts(parts: GraphParts) -> Result<Graph, LoadError> {
        parts.validate()?;
        let edge_count = parts.out_targets.len();
        Ok(Graph {
            schema: parts.schema,
            nodes: parts.nodes,
            out: Csr {
                offsets: parts.out_offsets,
                targets: parts.out_targets,
            },
            inn: Csr {
                offsets: parts.in_offsets,
                targets: parts.in_targets,
            },
            label_index: parts.label_index,
            edge_count,
            attr_stats: parts.attr_stats,
            diameter: parts.diameter,
        })
    }

    /// Explodes the graph into its [`GraphParts`], consuming it (no copies).
    pub fn into_parts(self) -> GraphParts {
        GraphParts {
            schema: self.schema,
            nodes: self.nodes,
            out_offsets: self.out.offsets,
            out_targets: self.out.targets,
            in_offsets: self.inn.offsets,
            in_targets: self.inn.targets,
            label_index: self.label_index,
            attr_stats: self.attr_stats,
            diameter: self.diameter,
        }
    }

    /// Raw forward CSR arrays `(offsets, targets)` — the writer-side view.
    pub fn out_csr(&self) -> (&[u32], &[(NodeId, EdgeLabelId)]) {
        (&self.out.offsets, &self.out.targets)
    }

    /// Raw reverse CSR arrays `(offsets, sources)`.
    pub fn in_csr(&self) -> (&[u32], &[(NodeId, EdgeLabelId)]) {
        (&self.inn.offsets, &self.inn.targets)
    }

    /// The full per-label node index, indexed by [`LabelId`].
    pub fn label_index(&self) -> &[Vec<NodeId>] {
        &self.label_index
    }

    /// All per-attribute statistics, indexed by [`AttrId`].
    pub fn attr_stats_all(&self) -> &[AttrStats] {
        &self.attr_stats
    }

    /// The stored diameter estimate exactly as finalized (no floor) — what
    /// a lossless snapshot must persist so [`Graph::from_parts`] reproduces
    /// [`Graph::diameter`] bit-for-bit.
    pub fn raw_diameter(&self) -> u32 {
        self.diameter
    }

    /// Like [`Graph::bounded_bfs`] but traversing edges backwards.
    pub fn bounded_bfs_rev(&self, src: NodeId, max_dist: u32) -> Vec<(NodeId, u32)> {
        let mut seen: HashMap<NodeId, u32> = HashMap::new();
        let mut queue = VecDeque::new();
        seen.insert(src, 0);
        queue.push_back(src);
        let mut out = vec![(src, 0)];
        while let Some(u) = queue.pop_front() {
            let d = seen[&u];
            if d == max_dist {
                continue;
            }
            for &(w, _) in self.inn.neighbors(u) {
                if let std::collections::hash_map::Entry::Vacant(e) = seen.entry(w) {
                    e.insert(d + 1);
                    out.push((w, d + 1));
                    queue.push_back(w);
                }
            }
        }
        out
    }
}

/// Every derived structure of a finalized [`Graph`], exploded into plain
/// vectors — the exchange type between a graph and its durable snapshot.
///
/// [`Graph::into_parts`] exports a graph losslessly;
/// [`Graph::from_parts`] reconstitutes one *without re-deriving anything*
/// (no CSR rebuild, no stats pass, no diameter sweeps), which is what makes
/// snapshot load fast. `from_parts` validates structural invariants and
/// returns [`LoadError::Corrupt`] — never panics — so it is safe to feed
/// with data decoded from untrusted bytes.
#[derive(Debug, Clone)]
pub struct GraphParts {
    /// Label/attribute/edge-label id spaces.
    pub schema: Schema,
    /// Per-node payloads, indexed by [`NodeId`].
    pub nodes: Vec<NodeData>,
    /// Forward CSR offsets (`nodes.len() + 1` entries, starting at 0).
    pub out_offsets: Vec<u32>,
    /// Forward CSR targets, each run sorted by target id.
    pub out_targets: Vec<(NodeId, EdgeLabelId)>,
    /// Reverse CSR offsets.
    pub in_offsets: Vec<u32>,
    /// Reverse CSR targets (sources), each run sorted by source id.
    pub in_targets: Vec<(NodeId, EdgeLabelId)>,
    /// Nodes grouped by label, indexed by [`LabelId`].
    pub label_index: Vec<Vec<NodeId>>,
    /// Active-domain statistics, indexed by [`AttrId`].
    pub attr_stats: Vec<AttrStats>,
    /// The stored diameter estimate (raw, pre-floor).
    pub diameter: u32,
}

impl GraphParts {
    fn validate(&self) -> Result<(), LoadError> {
        let corrupt =
            |section: &'static str, detail: String| LoadError::Corrupt { section, detail };
        let n = self.nodes.len();
        for (section, offsets, targets) in [
            ("out_csr", &self.out_offsets, &self.out_targets),
            ("in_csr", &self.in_offsets, &self.in_targets),
        ] {
            if offsets.len() != n + 1 {
                return Err(corrupt(
                    section,
                    format!("{} offsets for {n} nodes (need {})", offsets.len(), n + 1),
                ));
            }
            if offsets[0] != 0 {
                return Err(corrupt(section, "first offset not 0".to_string()));
            }
            if offsets.windows(2).any(|w| w[0] > w[1]) {
                return Err(corrupt(section, "offsets not monotonic".to_string()));
            }
            if offsets[n] as usize != targets.len() {
                return Err(corrupt(
                    section,
                    format!(
                        "last offset {} != target count {}",
                        offsets[n],
                        targets.len()
                    ),
                ));
            }
            if let Some(&(t, l)) = targets
                .iter()
                .find(|&&(t, l)| t.index() >= n || l.index() >= self.schema.edge_label_count())
            {
                return Err(corrupt(
                    section,
                    format!("target ({}, {}) out of range", t.0, l.0),
                ));
            }
        }
        if self.out_targets.len() != self.in_targets.len() {
            return Err(corrupt(
                "in_csr",
                format!(
                    "reverse edge count {} != forward {}",
                    self.in_targets.len(),
                    self.out_targets.len()
                ),
            ));
        }
        for node in &self.nodes {
            if node.label.index() >= self.schema.label_count() {
                return Err(corrupt(
                    "nodes",
                    format!("node label {} out of range", node.label.0),
                ));
            }
            if let Some(&(a, _)) = node
                .attrs
                .iter()
                .find(|(a, _)| a.index() >= self.schema.attr_count())
            {
                return Err(corrupt("nodes", format!("attr id {} out of range", a.0)));
            }
        }
        if self.label_index.len() != self.schema.label_count() {
            return Err(corrupt(
                "label_index",
                format!(
                    "{} buckets for {} labels",
                    self.label_index.len(),
                    self.schema.label_count()
                ),
            ));
        }
        if let Some(&v) = self.label_index.iter().flatten().find(|v| v.index() >= n) {
            return Err(corrupt(
                "label_index",
                format!("node id {} out of range", v.0),
            ));
        }
        if self.attr_stats.len() != self.schema.attr_count() {
            return Err(corrupt(
                "attr_stats",
                format!(
                    "{} entries for {} attributes",
                    self.attr_stats.len(),
                    self.schema.attr_count()
                ),
            ));
        }
        Ok(())
    }
}

/// Mutable builder producing a finalized [`Graph`].
#[derive(Debug, Default)]
pub struct GraphBuilder {
    schema: Schema,
    nodes: Vec<NodeData>,
    edges: Vec<(NodeId, NodeId, EdgeLabelId)>,
    diameter_override: Option<u32>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder reusing an existing schema (so queries built against
    /// a previous graph share ids).
    pub fn with_schema(schema: Schema) -> Self {
        GraphBuilder {
            schema,
            ..Default::default()
        }
    }

    /// Mutable access to the schema for pre-interning.
    pub fn schema_mut(&mut self) -> &mut Schema {
        &mut self.schema
    }

    /// Read access to the schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Adds a node with a label name and named attributes.
    pub fn add_node<'a, I>(&mut self, label: &str, attrs: I) -> NodeId
    where
        I: IntoIterator<Item = (&'a str, AttrValue)>,
    {
        let label = self.schema.label(label);
        let attrs = attrs
            .into_iter()
            .map(|(name, v)| (self.schema.attr(name), v))
            .collect();
        self.add_node_raw(label, attrs)
    }

    /// Adds a node with pre-interned ids.
    pub fn add_node_raw(&mut self, label: LabelId, mut attrs: Vec<(AttrId, AttrValue)>) -> NodeId {
        attrs.sort_by_key(|(a, _)| *a);
        attrs.dedup_by_key(|(a, _)| *a);
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeData { label, attrs });
        id
    }

    /// Adds a directed labeled edge.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, label: &str) {
        let l = self.schema.edge_label(label);
        self.add_edge_raw(from, to, l);
    }

    /// Adds a directed edge with a pre-interned label.
    pub fn add_edge_raw(&mut self, from: NodeId, to: NodeId, label: EdgeLabelId) {
        debug_assert!(from.index() < self.nodes.len(), "edge source out of range");
        debug_assert!(to.index() < self.nodes.len(), "edge target out of range");
        self.edges.push((from, to, label));
    }

    /// Forces the reported diameter instead of estimating it (useful for
    /// tests that need a deterministic cost model).
    pub fn set_diameter(&mut self, d: u32) {
        self.diameter_override = Some(d);
    }

    /// Finalizes into an immutable [`Graph`]: builds CSR adjacency, the
    /// label index, active-domain statistics, and a diameter estimate.
    pub fn finalize(self) -> Graph {
        let n = self.nodes.len();
        let mut out_adj = vec![Vec::new(); n];
        let mut in_adj = vec![Vec::new(); n];
        let mut edge_count = 0usize;
        for (u, v, l) in &self.edges {
            out_adj[u.index()].push((*v, *l));
            in_adj[v.index()].push((*u, *l));
            edge_count += 1;
        }
        let out = Csr::build(n, out_adj);
        let inn = Csr::build(n, in_adj);

        let mut label_index = vec![Vec::new(); self.schema.label_count()];
        for (i, node) in self.nodes.iter().enumerate() {
            label_index[node.label.index()].push(NodeId(i as u32));
        }

        let mut attr_stats = vec![AttrStats::default(); self.schema.attr_count()];
        for node in &self.nodes {
            for (a, v) in &node.attrs {
                attr_stats[a.index()].observe(v);
            }
        }

        let mut graph = Graph {
            schema: self.schema,
            nodes: self.nodes,
            out,
            inn,
            label_index,
            edge_count,
            attr_stats,
            diameter: 1,
        };
        graph.diameter = match self.diameter_override {
            Some(d) => d,
            None => estimate_diameter(&graph.out.offsets, &graph.out.targets),
        };
        graph
    }
}

/// Estimates the diameter `D(G)` over a flat forward CSR with a handful of
/// BFS double-sweeps: from each of four seeds spread over the id space, sweep
/// to the farthest node (the last one discovered at the largest distance),
/// then sweep again from it. Exact all-pairs diameter is quadratic; the
/// sweeps give a lower bound that is tight in practice on small-world graphs
/// and only normalizes operator costs (Table 1). Floored at 1; the empty
/// graph reads 1. [`GraphBuilder::finalize`] and the streaming generator
/// both call this, so a snapshot's meta word never depends on which of the
/// two built the graph.
pub fn estimate_diameter(offsets: &[u32], targets: &[(NodeId, EdgeLabelId)]) -> u32 {
    let n = offsets.len().saturating_sub(1);
    if n == 0 {
        return 1;
    }
    let mut dist = vec![u32::MAX; n];
    let mut queue: Vec<u32> = Vec::new();
    let mut sweep = |src: usize| -> (usize, u32) {
        for &u in &queue {
            dist[u as usize] = u32::MAX;
        }
        queue.clear();
        dist[src] = 0;
        queue.push(src as u32);
        let (mut far, mut far_d) = (src, 0);
        let mut head = 0;
        while let Some(&u) = queue.get(head) {
            head += 1;
            let (u, d) = (u as usize, dist[u as usize] + 1);
            for &(t, _) in &targets[offsets[u] as usize..offsets[u + 1] as usize] {
                if dist[t.index()] == u32::MAX {
                    dist[t.index()] = d;
                    queue.push(t.0);
                    // BFS discovers in nondecreasing distance order.
                    (far, far_d) = (t.index(), d);
                }
            }
        }
        (far, far_d)
    };
    let mut best = 1u32;
    for s in [0, n / 3, (2 * n) / 3, n - 1] {
        let (far, d1) = sweep(s);
        let (_, d2) = sweep(far);
        best = best.max(d1).max(d2);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize) -> Graph {
        let mut b = GraphBuilder::new();
        let ids: Vec<_> = (0..n)
            .map(|i| b.add_node("N", [("idx", AttrValue::Int(i as i64))]))
            .collect();
        for w in ids.windows(2) {
            b.add_edge(w[0], w[1], "next");
        }
        b.finalize()
    }

    #[test]
    fn builder_basics() {
        let g = chain(4);
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.out_degree(NodeId(0)), 1);
        assert_eq!(g.in_degree(NodeId(0)), 0);
        assert_eq!(g.in_degree(NodeId(3)), 1);
        assert!(g.has_edge(NodeId(1), NodeId(2)));
        assert!(!g.has_edge(NodeId(2), NodeId(1)));
    }

    #[test]
    fn label_index_and_attrs() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("Phone", [("price", AttrValue::Int(800))]);
        let c = b.add_node("Phone", [("price", AttrValue::Int(700))]);
        b.add_node("Carrier", []);
        let g = b.finalize();
        let phone = g.schema().label_id("Phone").unwrap();
        assert_eq!(g.nodes_with_label(phone), &[a, c]);
        let price = g.schema().attr_id("price").unwrap();
        assert_eq!(g.attr(a, price), Some(&AttrValue::Int(800)));
        assert_eq!(g.attr(c, price), Some(&AttrValue::Int(700)));
    }

    #[test]
    fn attr_range_floor() {
        let mut b = GraphBuilder::new();
        b.add_node("N", [("x", AttrValue::Int(5))]);
        let g = b.finalize();
        let x = g.schema().attr_id("x").unwrap();
        // Single value => zero span, floored at 1.
        assert_eq!(g.attr_range(x), 1.0);
    }

    #[test]
    fn diameter_of_chain() {
        let g = chain(6);
        assert_eq!(g.diameter(), 5);
    }

    #[test]
    fn diameter_override() {
        let mut b = GraphBuilder::new();
        b.add_node("N", []);
        b.set_diameter(42);
        let g = b.finalize();
        assert_eq!(g.diameter(), 42);
    }

    #[test]
    fn bounded_bfs_respects_bound() {
        let g = chain(10);
        let reach = g.bounded_bfs(NodeId(0), 3);
        assert_eq!(reach.len(), 4); // distances 0..=3
        assert!(reach.iter().all(|&(_, d)| d <= 3));
        let rev = g.bounded_bfs_rev(NodeId(9), 2);
        assert_eq!(rev.len(), 3);
    }

    #[test]
    fn shortest_path_witness() {
        let g = chain(6);
        let p = g.shortest_path_within(NodeId(1), NodeId(4), 5).unwrap();
        assert_eq!(p, vec![NodeId(1), NodeId(2), NodeId(3), NodeId(4)]);
        assert!(g.shortest_path_within(NodeId(1), NodeId(4), 2).is_none());
        assert!(g.shortest_path_within(NodeId(4), NodeId(1), 5).is_none());
        assert_eq!(
            g.shortest_path_within(NodeId(2), NodeId(2), 0),
            Some(vec![NodeId(2)])
        );
    }

    #[test]
    fn duplicate_attrs_deduped() {
        let mut b = GraphBuilder::new();
        let v = b.add_node("N", [("x", AttrValue::Int(1)), ("x", AttrValue::Int(2))]);
        let g = b.finalize();
        let x = g.schema().attr_id("x").unwrap();
        // First occurrence wins after sort+dedup on equal ids.
        assert!(g.attr(v, x).is_some());
        assert_eq!(g.node(v).attrs.len(), 1);
    }

    #[test]
    fn restricted_adom_sorted_dedup() {
        let mut b = GraphBuilder::new();
        let n1 = b.add_node("N", [("x", AttrValue::Int(5))]);
        let n2 = b.add_node("N", [("x", AttrValue::Int(2))]);
        let n3 = b.add_node("N", [("x", AttrValue::Int(5))]);
        let n4 = b.add_node("N", [("y", AttrValue::Int(9))]);
        let g = b.finalize();
        let x = g.schema().attr_id("x").unwrap();
        let adom = g.restricted_numeric_adom(x, [n1, n2, n3, n4]);
        assert_eq!(adom, vec![2.0, 5.0]);
    }

    #[test]
    fn induced_subgraph_extraction() {
        let g = chain(6);
        let (sub, map) = g.induced_subgraph([NodeId(1), NodeId(2), NodeId(4)]);
        assert_eq!(sub.node_count(), 3);
        // Only the 1->2 edge is internal; 2->3 and 3->4 cross the cut.
        assert_eq!(sub.edge_count(), 1);
        assert!(sub.has_edge(map[&NodeId(1)], map[&NodeId(2)]));
        // Attributes survive re-interning.
        let idx = sub.schema().attr_id("idx").unwrap();
        assert_eq!(sub.attr(map[&NodeId(4)], idx), Some(&AttrValue::Int(4)));
        // The original is untouched.
        assert_eq!(g.node_count(), 6);
    }

    #[test]
    fn serde_roundtrip_preserves_structure() {
        let g = chain(5);
        let json = serde_json::to_string(&g).expect("serialize");
        let g2: Graph = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(g2.node_count(), g.node_count());
        assert_eq!(g2.edge_count(), g.edge_count());
        assert_eq!(g2.diameter(), g.diameter());
        for v in g.node_ids() {
            assert_eq!(g2.label(v), g.label(v));
            assert_eq!(g2.out_neighbors(v), g.out_neighbors(v));
        }
        let idx = g.schema().attr_id("idx").unwrap();
        assert_eq!(g2.attr(NodeId(3), idx), Some(&AttrValue::Int(3)));
        assert_eq!(g2.attr_range(idx), g.attr_range(idx));
    }

    #[test]
    fn edge_labels_preserved() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("N", []);
        let c = b.add_node("N", []);
        b.add_edge(a, c, "likes");
        b.add_edge(c, a, "follows");
        let g = b.finalize();
        let likes = g.schema().edge_label_id("likes").unwrap();
        let follows = g.schema().edge_label_id("follows").unwrap();
        assert_eq!(g.out_neighbors(a), &[(c, likes)]);
        assert_eq!(g.out_neighbors(c), &[(a, follows)]);
        assert_eq!(g.in_neighbors(a), &[(c, follows)]);
    }

    fn attrs_equal(a: &Graph, b: &Graph) -> bool {
        a.node_ids().all(|v| a.node(v).attrs == b.node(v).attrs)
    }

    #[test]
    fn parts_roundtrip_is_lossless() {
        let mut b = GraphBuilder::new();
        let p = b.add_node(
            "Phone",
            [
                ("price", AttrValue::Int(800)),
                ("brand", AttrValue::Str("S".into())),
            ],
        );
        let c = b.add_node("Carrier", [("discount", AttrValue::Float(0.25))]);
        let q = b.add_node("Phone", [("hot", AttrValue::Bool(true))]);
        b.add_edge(p, c, "served_by");
        b.add_edge(q, c, "served_by");
        b.add_edge(c, p, "serves");
        let g = b.finalize();

        let g2 = Graph::from_parts(g.clone().into_parts()).unwrap();
        assert_eq!(g2.node_count(), g.node_count());
        assert_eq!(g2.edge_count(), g.edge_count());
        assert_eq!(g2.diameter(), g.diameter());
        assert_eq!(g2.raw_diameter(), g.raw_diameter());
        assert!(attrs_equal(&g, &g2));
        for v in g.node_ids() {
            assert_eq!(g2.label(v), g.label(v));
            assert_eq!(g2.out_neighbors(v), g.out_neighbors(v));
            assert_eq!(g2.in_neighbors(v), g.in_neighbors(v));
        }
        let phone = g.schema().label_id("Phone").unwrap();
        assert_eq!(g2.nodes_with_label(phone), g.nodes_with_label(phone));
        let price = g.schema().attr_id("price").unwrap();
        assert_eq!(g2.attr_range(price), g.attr_range(price));
        assert_eq!(
            g2.attr_stats(price).unwrap().count,
            g.attr_stats(price).unwrap().count
        );
    }

    #[test]
    fn from_parts_rejects_corrupt_structures() {
        let g = chain(4);

        let mut p = g.clone().into_parts();
        p.out_offsets[1] = 99; // beyond target count and non-monotonic
        assert!(matches!(
            Graph::from_parts(p),
            Err(LoadError::Corrupt {
                section: "out_csr",
                ..
            })
        ));

        let mut p = g.clone().into_parts();
        p.out_targets[0].0 = NodeId(1000);
        assert!(matches!(
            Graph::from_parts(p),
            Err(LoadError::Corrupt {
                section: "out_csr",
                ..
            })
        ));

        let mut p = g.clone().into_parts();
        p.in_offsets.pop();
        assert!(matches!(
            Graph::from_parts(p),
            Err(LoadError::Corrupt {
                section: "in_csr",
                ..
            })
        ));

        let mut p = g.clone().into_parts();
        p.label_index[0].push(NodeId(77));
        assert!(matches!(
            Graph::from_parts(p),
            Err(LoadError::Corrupt {
                section: "label_index",
                ..
            })
        ));

        let mut p = g.clone().into_parts();
        p.attr_stats.clear();
        assert!(matches!(
            Graph::from_parts(p),
            Err(LoadError::Corrupt {
                section: "attr_stats",
                ..
            })
        ));

        let mut p = g.clone().into_parts();
        p.nodes[0].label = crate::schema::LabelId(9);
        assert!(matches!(
            Graph::from_parts(p),
            Err(LoadError::Corrupt {
                section: "nodes",
                ..
            })
        ));
    }

    #[test]
    fn stats_summary() {
        let g = chain(3);
        let s = g.stats();
        assert_eq!(s.nodes, 3);
        assert_eq!(s.edges, 2);
        assert_eq!(s.labels, 1);
        assert!((s.avg_attrs_per_node - 1.0).abs() < 1e-9);
    }

    /// Reference for [`estimate_diameter`]: the same double-sweep over
    /// `bounded_bfs`, with `max_by_key` picking the farthest node (the last
    /// maximum, i.e. the last discovered).
    fn reference_diameter(g: &Graph) -> u32 {
        let n = g.node_count();
        if n == 0 {
            return 1;
        }
        let mut best = 1u32;
        for s in [0usize, n / 3, (2 * n) / 3, n - 1] {
            let far = g
                .bounded_bfs(NodeId(s as u32), u32::MAX)
                .into_iter()
                .max_by_key(|&(_, d)| d);
            if let Some((far_node, d1)) = far {
                best = best.max(d1);
                if let Some((_, d2)) = g
                    .bounded_bfs(far_node, u32::MAX)
                    .into_iter()
                    .max_by_key(|&(_, d)| d)
                {
                    best = best.max(d2);
                }
            }
        }
        best.max(1)
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// Random graphs of 0 to 39 nodes and up to 4 edges a node,
        /// parallel edges and self-loops included: `sel == 0` makes every
        /// node a sink (no edges at all), otherwise nodes below `sel - 1`
        /// are sinks; with `parts == 2` edges only join nodes of equal
        /// parity, so the graph is disconnected.
        fn arb_graph() -> impl Strategy<Value = Graph> {
            (0usize..40, 1usize..3, 0usize..8).prop_flat_map(|(n, parts, sel)| {
                let span = n.max(1);
                let sinks = if sel == 0 { n } else { sel - 1 };
                proptest::collection::vec((0..span, 0..span), 0..(n * 4 + 1)).prop_map(
                    move |edges| {
                        let mut b = GraphBuilder::new();
                        let ids: Vec<_> = (0..n).map(|_| b.add_node("N", [])).collect();
                        for (u, v) in edges {
                            if u < n && v < n && u >= sinks && u % parts == v % parts {
                                b.add_edge(ids[u], ids[v], "e");
                            }
                        }
                        b.finalize()
                    },
                )
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// The flat-CSR estimate equals the `bounded_bfs` reference on
            /// every graph, ties included: `finalize` stored the reference's
            /// value in every snapshot written so far.
            #[test]
            fn flat_csr_diameter_equals_the_reference(g in arb_graph()) {
                let (offsets, targets) = g.out_csr();
                prop_assert_eq!(estimate_diameter(offsets, targets), reference_diameter(&g));
            }
        }
    }
}
