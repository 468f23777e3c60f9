//! Procedure `Match` (§5.2): star-view based query evaluation.

pub mod candidates;
mod join;
#[cfg(test)]
mod proptests;
pub mod star;

pub use join::{assignment_order, Truncated, Valuation};

use crate::cache::{Footprint, StarCache};
use crate::pattern::{PatternQuery, QNodeId};
use join::JoinPlan;
use star::{StarQuery, StarTable};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use wqe_graph::{Graph, NodeId};
use wqe_index::DistanceOracle;
use wqe_pool::obs;

/// The result of evaluating a query.
#[derive(Debug, Clone, Default)]
pub struct MatchOutcome {
    /// `Q(G)` — the matches of the focus, sorted by node id.
    pub matches: Vec<NodeId>,
    /// One witness valuation per focus match.
    pub valuations: HashMap<NodeId, Valuation>,
    /// The materialized star tables backing the evaluation (consulted by
    /// picky-operator generation, §5.3).
    pub tables: Vec<StarTable>,
    /// True if some candidate's verification hit the step budget and was
    /// conservatively reported as a non-match, or a governor halt cut the
    /// candidate loop short.
    pub truncated: bool,
    /// Steps consumed verifying candidates: one per focus candidate
    /// examined, plus the join iterations its verification performed. A
    /// deterministic measure of work done: a pure function of the query
    /// and graph, so governor step caps keyed on it stay reproducible at
    /// any search parallelism.
    pub steps: usize,
}

impl MatchOutcome {
    /// True if `v` is a focus match.
    pub fn is_match(&self, v: NodeId) -> bool {
        self.matches.binary_search(&v).is_ok()
    }

    /// The witnessed matches of pattern node `u` — the union of `h(u)` over
    /// the recorded valuations. An under-approximation of `Q(u, G)` (one
    /// witness per focus match), which is what operator generation needs.
    pub fn witnessed_node_matches(&self, u: QNodeId) -> HashSet<NodeId> {
        self.valuations
            .values()
            .filter_map(|h| h.get(&u).copied())
            .collect()
    }

    /// The union of all witness valuations and their connecting paths —
    /// the *provenance subgraph* of the answer, suitable for rendering
    /// with `wqe_graph::dot::subgraph_to_dot`.
    pub fn answer_subgraph_nodes(&self, graph: &Graph, q: &PatternQuery) -> HashSet<NodeId> {
        let mut nodes = HashSet::new();
        for &m in &self.matches {
            if let Some(h) = self.valuations.get(&m) {
                nodes.extend(h.values().copied());
            }
            for (_, _, path) in self.witness_paths(graph, q, m) {
                nodes.extend(path);
            }
        }
        nodes
    }

    /// The concrete graph paths realizing each pattern edge for one focus
    /// match's witness valuation: `(from, to, path)` per edge, where `path`
    /// includes both endpoints. Explains *how* an edge-to-path constraint
    /// was satisfied (e.g. Fig. 2's cellphone → wearable → sensor).
    pub fn witness_paths(
        &self,
        graph: &Graph,
        q: &PatternQuery,
        focus_match: NodeId,
    ) -> Vec<(QNodeId, QNodeId, Vec<NodeId>)> {
        let Some(h) = self.valuations.get(&focus_match) else {
            return Vec::new();
        };
        q.edges()
            .iter()
            .filter_map(|e| {
                let (&hf, &ht) = (h.get(&e.from)?, h.get(&e.to)?);
                let path = graph.shortest_path_within(hf, ht, e.bound)?;
                Some((e.from, e.to, path))
            })
            .collect()
    }
}

/// The star-view matcher.
///
/// Owns an optional [`StarCache`]; with the cache disabled each evaluation
/// materializes its stars from scratch (the `AnsWnc` ablation of Exp-1).
/// Evaluation computes every distance it needs in the star tables; the
/// oracle it carries serves the callers that hold the matcher (operator
/// generation).
///
/// The matcher shares ownership of its graph and oracle (`Arc`), so it is
/// `'static`, `Send`, and `Sync`: sessions holding a matcher can be moved
/// to or shared across threads, and several sessions over the same graph
/// cost one allocation each, not one graph copy each.
pub struct Matcher {
    graph: Arc<Graph>,
    oracle: Arc<dyn DistanceOracle>,
    cache: Option<Arc<StarCache>>,
    step_limit: usize,
}

impl Matcher {
    /// Creates a matcher with its own default-sized cache.
    pub fn new(graph: Arc<Graph>, oracle: Arc<dyn DistanceOracle>) -> Self {
        Matcher {
            graph,
            oracle,
            cache: Some(Arc::new(StarCache::default_sized())),
            step_limit: 2_000_000,
        }
    }

    /// Disables the star cache (ablation `AnsWnc`).
    pub fn without_cache(mut self) -> Self {
        self.cache = None;
        self
    }

    /// Shares an externally owned star cache (the live-graph epoch store
    /// hands every session of an epoch the same cache, so rewrites across
    /// sessions reuse each other's tables and publish-time invalidation
    /// has one place to look).
    pub fn with_shared_cache(mut self, cache: Arc<StarCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Overrides the per-candidate verification step budget.
    pub fn with_step_limit(mut self, limit: usize) -> Self {
        self.step_limit = limit.max(1);
        self
    }

    /// The underlying graph. Returns the shared handle; deref (or
    /// `Arc::clone`) as needed — the former `graph()`/`graph_arc()` pair
    /// collapsed into this one accessor.
    pub fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// The distance oracle, as the shared handle (see [`Matcher::graph`]).
    pub fn oracle(&self) -> &Arc<dyn DistanceOracle> {
        &self.oracle
    }

    /// Candidates `V_u` of a pattern node.
    pub fn candidates(&self, q: &PatternQuery, u: QNodeId) -> Vec<NodeId> {
        candidates::node_candidates(&self.graph, q, u)
    }

    fn table_for(&self, q: &PatternQuery, s: &StarQuery) -> StarTable {
        let materialize = || {
            let _span = obs::span(obs::Stage::StarMaterialize);
            star::materialize_rows(&self.graph, q, s)
        };
        let rows = match &self.cache {
            Some(cache) => {
                cache.get_or_compute(&s.spec_key(q), || star_footprint(q, s), materialize)
            }
            None => Arc::new(materialize()),
        };
        StarTable {
            star: s.clone(),
            rows,
        }
    }

    /// The star tables of `q` (table `i` for pattern edge `i`) and every
    /// pattern node's join domain: its support in the tables under the
    /// current center literals, sorted. `q` must have an edge.
    fn plan(&self, q: &PatternQuery) -> (Vec<StarTable>, HashMap<QNodeId, Vec<NodeId>>) {
        let tables: Vec<StarTable> = star::decompose(q)
            .iter()
            .map(|s| self.table_for(q, s))
            .collect();
        // Apply the current center literals at lookup time.
        let views: Vec<star::TableView<'_>> = tables
            .iter()
            .map(|t| star::TableView::build(&self.graph, q, t))
            .collect();

        // Candidate domains from star supports; nodes untouched by stars
        // fall back to raw candidates. Both come sorted.
        let mut supports = star::support_domains(&views);
        let domains = q
            .node_ids()
            .map(|u| {
                let dom = supports.remove(&u).unwrap_or_else(|| self.candidates(q, u));
                (u, dom)
            })
            .collect();
        (tables, domains)
    }

    /// Evaluates `Q(G)` (procedure `Match`).
    pub fn evaluate(&self, q: &PatternQuery) -> MatchOutcome {
        let _span = obs::span(obs::Stage::Match);
        let focus = q.focus();

        // Single-node query: the candidates are the matches.
        if q.edge_count() == 0 {
            let mut matches = self.candidates(q, focus);
            matches.sort();
            let valuations = matches
                .iter()
                .map(|&v| (v, HashMap::from([(focus, v)])))
                .collect();
            let steps = matches.len();
            return MatchOutcome {
                matches: matches.clone(),
                valuations,
                tables: vec![StarTable {
                    star: StarQuery {
                        center: focus,
                        leaves: Vec::new(),
                        augmented: None,
                    },
                    rows: Arc::new(
                        matches
                            .into_iter()
                            .map(|v| star::StarRow {
                                center: v,
                                leaf_matches: Vec::new(),
                            })
                            .collect(),
                    ),
                }],
                truncated: false,
                steps,
            };
        }

        let (tables, domains) = self.plan(q);
        let focus_domain = domains.get(&focus).map_or(&[][..], Vec::as_slice);
        let mut join = JoinPlan::new(q, &domains, &tables);

        // Candidate verifications run in order on the calling thread; the
        // search fans out across rewrites (`Chase::evaluate`), not here.
        let join_span = obs::span(obs::Stage::Join);
        let mut verified = Vec::new();
        let mut truncated = false;
        let mut steps = 0usize;
        // Governor halts (cancel/deadline) cut the candidate loop short;
        // polled before the first candidate and every 16th after, so a long
        // focus domain cannot pin the thread past the deadline and an
        // evaluation started after a halt stops at once.
        let gov = wqe_pool::governor::current();
        for (i, &v) in focus_domain.iter().enumerate() {
            if let Some(g) = gov.as_deref() {
                if i % 16 == 0 && g.halt().is_some() {
                    truncated = true;
                    break;
                }
            }
            let mut left = self.step_limit;
            match join.verify(v, &mut left) {
                Ok(Some(h)) => verified.push((v, h)),
                Ok(None) => {}
                Err(Truncated) => truncated = true,
            }
            // One step for examining the candidate itself, plus the join
            // work its verification consumed. Without the `1 +`, candidates
            // rejected before the join recursion descends (single-node
            // assignment orders, empty inner domains, literal failures)
            // consume nothing, so tiny queries report `steps == 0` and a
            // governor step cap can never engage on them.
            steps += 1 + (self.step_limit - left);
        }
        drop(join_span);

        let mut matches: Vec<NodeId> = verified.iter().map(|(v, _)| *v).collect();
        let valuations: HashMap<NodeId, Valuation> = verified.into_iter().collect();
        matches.sort();
        MatchOutcome {
            matches,
            valuations,
            tables,
            truncated,
            steps,
        }
    }
}

/// The invalidation footprint of one star's cached table: the labels of
/// its center, leaves, and augmented focus, the attrs of baked leaf
/// literals, and whether any of those pattern nodes is wildcard.
fn star_footprint(q: &PatternQuery, s: &StarQuery) -> Footprint {
    let mut fp = Footprint::default();
    let mut note_label = |u: QNodeId| match q.node(u).and_then(|n| n.label) {
        Some(l) => {
            if !fp.labels.contains(&l.0) {
                fp.labels.push(l.0);
            }
        }
        None => fp.wildcard = true,
    };
    note_label(s.center);
    for leaf in &s.leaves {
        note_label(leaf.node);
    }
    if s.augmented.is_some() {
        note_label(q.focus());
    }
    for leaf in &s.leaves {
        for lit in q
            .node(leaf.node)
            .map(|n| n.literals.as_slice())
            .unwrap_or_default()
        {
            if !fp.attrs.contains(&lit.attr.0) {
                fp.attrs.push(lit.attr.0);
            }
        }
    }
    fp.labels.sort_unstable();
    fp.attrs.sort_unstable();
    fp
}

/// A brute-force reference matcher: enumerates injective assignments over
/// raw candidate sets with no view pruning, asking `oracle` about every
/// edge. Exponential — use only on small graphs (the matcher's equivalence
/// tests).
pub fn naive_evaluate<O: DistanceOracle + ?Sized>(
    graph: &Graph,
    oracle: &O,
    q: &PatternQuery,
) -> Vec<NodeId> {
    let order = assignment_order(q);
    let domains: HashMap<QNodeId, Vec<NodeId>> = q
        .node_ids()
        .map(|u| (u, candidates::node_candidates(graph, q, u)))
        .collect();
    let mut result: Vec<NodeId> = domains[&q.focus()]
        .iter()
        .copied()
        .filter(|&v| {
            let mut steps = usize::MAX;
            matches!(
                oracle_join(oracle, q, &order, &domains, v, &mut steps),
                Ok(Some(_))
            )
        })
        .collect();
    result.sort();
    result
}

/// The join of [`naive_evaluate`]: the same backtracking search as
/// [`JoinPlan::verify`], written independently of it and asking the
/// oracle one pair at a time, one `within` per constraint per domain
/// value, over any domains. The reference the star-probe join must match
/// in result, valuation and steps left.
fn oracle_join<O: DistanceOracle + ?Sized>(
    oracle: &O,
    q: &PatternQuery,
    order: &[QNodeId],
    domains: &HashMap<QNodeId, Vec<NodeId>>,
    focus_match: NodeId,
    steps: &mut usize,
) -> Result<Option<Valuation>, Truncated> {
    fn backtrack<O: DistanceOracle + ?Sized>(
        oracle: &O,
        q: &PatternQuery,
        order: &[QNodeId],
        domains: &HashMap<QNodeId, Vec<NodeId>>,
        assignment: &mut Valuation,
        used: &mut HashSet<NodeId>,
        steps: &mut usize,
    ) -> Result<bool, Truncated> {
        let Some(&u) = order.get(assignment.len()) else {
            return Ok(true);
        };
        for &v in domains.get(&u).map_or(&[][..], Vec::as_slice) {
            if *steps == 0 {
                return Err(Truncated);
            }
            *steps -= 1;
            if used.contains(&v) {
                continue;
            }
            let ok = q.edges().iter().all(|e| {
                if e.from == u {
                    assignment
                        .get(&e.to)
                        .is_none_or(|&t| oracle.within(v, t, e.bound))
                } else if e.to == u {
                    assignment
                        .get(&e.from)
                        .is_none_or(|&s| oracle.within(s, v, e.bound))
                } else {
                    true
                }
            });
            if !ok {
                continue;
            }
            assignment.insert(u, v);
            used.insert(v);
            if backtrack(oracle, q, order, domains, assignment, used, steps)? {
                return Ok(true);
            }
            assignment.remove(&u);
            used.remove(&v);
        }
        Ok(false)
    }
    let mut assignment: Valuation = HashMap::from([(q.focus(), focus_match)]);
    let mut used = HashSet::from([focus_match]);
    if !backtrack(oracle, q, order, domains, &mut assignment, &mut used, steps)? {
        return Ok(None);
    }
    Ok(Some(assignment))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::literal::Literal;
    use wqe_graph::{product::product_graph, CmpOp};
    use wqe_index::PllIndex;

    fn matcher_for(g: &Graph) -> Matcher {
        let graph = Arc::new(g.clone());
        let oracle: Arc<dyn DistanceOracle> = Arc::new(PllIndex::build(g));
        Matcher::new(graph, oracle)
    }

    fn paper_query(g: &Graph) -> PatternQuery {
        let s = g.schema();
        let mut q = PatternQuery::new(s.label_id("Cellphone"), 4);
        let carrier = q.add_node(s.label_id("Carrier"));
        let sensor = q.add_node(s.label_id("Sensor"));
        q.add_edge(q.focus(), carrier, 1).unwrap();
        q.add_edge(q.focus(), sensor, 2).unwrap();
        let price = s.attr_id("Price").unwrap();
        let brand = s.attr_id("Brand").unwrap();
        let ram = s.attr_id("RAM").unwrap();
        let display = s.attr_id("Display").unwrap();
        q.add_literal(q.focus(), Literal::new(price, CmpOp::Ge, 840))
            .unwrap();
        q.add_literal(q.focus(), Literal::new(brand, CmpOp::Eq, "Samsung"))
            .unwrap();
        q.add_literal(q.focus(), Literal::new(ram, CmpOp::Ge, 4))
            .unwrap();
        q.add_literal(q.focus(), Literal::new(display, CmpOp::Ge, 62))
            .unwrap();
        q
    }

    #[test]
    fn example_2_1_answer() {
        let pg = product_graph();
        let g = &pg.graph;
        let m = matcher_for(g);
        let out = m.evaluate(&paper_query(g));
        // Q(Cellphone, G) = {P1, P2, P5}.
        assert_eq!(out.matches, vec![pg.phones[0], pg.phones[1], pg.phones[4]]);
        assert!(!out.truncated);
    }

    #[test]
    fn agrees_with_naive() {
        let pg = product_graph();
        let g = &pg.graph;
        let oracle = PllIndex::build(g);
        let m = matcher_for(g);
        let q = paper_query(g);
        assert_eq!(m.evaluate(&q).matches, naive_evaluate(g, &oracle, &q));
    }

    #[test]
    fn single_node_query_returns_candidates() {
        let pg = product_graph();
        let g = &pg.graph;
        let m = matcher_for(g);
        let q = PatternQuery::new(g.schema().label_id("Cellphone"), 4);
        let out = m.evaluate(&q);
        assert_eq!(out.matches.len(), 6);
        assert_eq!(out.valuations.len(), 6);
    }

    /// Evaluates `q` twice on `m` under a fresh profiler.
    fn profile_twice(m: &Matcher, q: &PatternQuery) -> obs::ProfileSnapshot {
        let p = Arc::new(obs::Profiler::new());
        let _scope = wqe_pool::scope::Scope {
            profiler: Some(Arc::clone(&p)),
            ..Default::default()
        }
        .enter();
        m.evaluate(q);
        m.evaluate(q);
        p.snapshot()
    }

    #[test]
    fn cache_hits_across_rewrites() {
        let pg = product_graph();
        let g = &pg.graph;
        let q = paper_query(g);
        // Identical query: the second evaluation's stars all hit.
        let s = profile_twice(&matcher_for(g), &q);
        assert_eq!(s.stage(obs::Stage::Match).count, 2);
        assert_eq!(s.counter(obs::Counter::CacheMiss), 2);
        assert_eq!(s.counter(obs::Counter::CacheHit), 2);
        assert_eq!(s.stage(obs::Stage::StarMaterialize).count, 2);
    }

    #[test]
    fn without_cache_rebuilds() {
        let pg = product_graph();
        let g = &pg.graph;
        let q = paper_query(g);
        let s = profile_twice(&matcher_for(g).without_cache(), &q);
        // Per-edge decomposition: two stars per evaluation, rebuilt twice,
        // and no cache consulted.
        assert_eq!(s.stage(obs::Stage::StarMaterialize).count, 4);
        assert_eq!(s.counter(obs::Counter::CacheHit), 0);
        assert_eq!(s.counter(obs::Counter::CacheMiss), 0);
    }

    #[test]
    fn witness_paths_realize_edge_bounds() {
        let pg = product_graph();
        let g = &pg.graph;
        let m = matcher_for(g);
        let q = paper_query(g);
        let out = m.evaluate(&q);
        // P1 matches via the 2-hop path P1 -> GearS3 -> HeartRate.
        let paths = out.witness_paths(g, &q, pg.phones[0]);
        assert_eq!(paths.len(), 2);
        for (from, to, path) in &paths {
            let bound = q.edge_between(*from, *to).unwrap().bound;
            assert!(path.len() as u32 - 1 <= bound);
            assert_eq!(path[0], pg.phones[0]);
            // Consecutive hops are real edges.
            for w in path.windows(2) {
                assert!(g.has_edge(w[0], w[1]));
            }
        }
        let sensor_path = paths
            .iter()
            .find(|(_, to, _)| *to == QNodeId(2))
            .map(|(_, _, p)| p.clone())
            .unwrap();
        assert_eq!(sensor_path.len(), 3, "P1 reaches a sensor via a wearable");
    }

    #[test]
    fn query_dot_rendering() {
        let pg = product_graph();
        let q = paper_query(&pg.graph);
        let dot = q.to_dot(pg.graph.schema());
        assert!(dot.contains("peripheries=2")); // focus
        assert!(dot.contains("<=2")); // sensor bound
        assert!(dot.contains("Cellphone"));
    }

    #[test]
    fn witnessed_node_matches() {
        let pg = product_graph();
        let g = &pg.graph;
        let m = matcher_for(g);
        let q = paper_query(g);
        let out = m.evaluate(&q);
        // The carrier pattern node is witnessed by real carriers.
        let carrier_node = QNodeId(1);
        let carriers = out.witnessed_node_matches(carrier_node);
        let carrier_label = g.schema().label_id("Carrier").unwrap();
        assert!(!carriers.is_empty());
        assert!(carriers.iter().all(|&v| g.label(v) == carrier_label));
    }
}
