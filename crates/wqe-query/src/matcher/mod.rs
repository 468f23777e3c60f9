//! Procedure `Match` (§5.2): star-view based query evaluation.

mod cache;
pub mod candidates;
mod join;
#[cfg(test)]
mod proptests;
pub mod star;

pub use cache::{CacheStats, StarCache, StarFootprint};
pub use join::{assignment_order, verify_candidate, Truncated, Valuation};

use crate::pattern::{PatternQuery, QNodeId};
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
    /// candidate fan-out short.
    pub truncated: bool,
    /// Steps consumed verifying candidates: one per focus candidate
    /// examined, plus the join iterations its verification performed. A
    /// deterministic measure of work done: a pure function of the query
    /// and graph, independent of thread count, so governor step caps
    /// keyed on it stay reproducible at any parallelism.
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

/// One star's row in a [`MatchPlan`].
#[derive(Debug, Clone)]
pub struct StarPlan {
    /// The cache key (spec) of the star.
    pub spec_key: String,
    /// Center pattern node.
    pub center: QNodeId,
    /// Leaf pattern node (if any).
    pub leaf: Option<QNodeId>,
    /// Whether the table came from the cache.
    pub cached: bool,
    /// Materialized (label-level) row count.
    pub rows: usize,
    /// Rows surviving the current center literals.
    pub live_rows: usize,
}

/// The result of [`Matcher::explain_plan`].
#[derive(Debug, Clone)]
pub struct MatchPlan {
    /// Per-star decomposition and materialization info.
    pub stars: Vec<StarPlan>,
    /// Candidate-domain size per pattern node after view intersection.
    pub domains: Vec<(QNodeId, usize)>,
}

impl MatchPlan {
    /// Renders a compact textual plan.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("match plan:\n");
        for s in &self.stars {
            let leaf = s
                .leaf
                .map(|l| format!("u{}", l.0))
                .unwrap_or_else(|| "-".into());
            let _ = writeln!(
                out,
                "  star u{} -> {leaf}: {} rows ({} live){}",
                s.center.0,
                s.rows,
                s.live_rows,
                if s.cached { " [cached]" } else { "" }
            );
        }
        out.push_str("  domains:");
        for (u, n) in &self.domains {
            let _ = write!(out, " u{}={n}", u.0);
        }
        out.push('\n');
        out
    }
}

/// Instrumentation counters for the experiments.
#[derive(Debug, Default, Clone, Copy)]
pub struct MatcherStats {
    /// Number of `evaluate` calls.
    pub evaluations: u64,
    /// Focus candidates verified.
    pub candidates_verified: u64,
    /// Star tables materialized (cache misses when caching is on).
    pub tables_built: u64,
}

/// The star-view matcher.
///
/// Owns an optional [`StarCache`]; with the cache disabled each evaluation
/// materializes its stars from scratch (the `AnsWnc` ablation of Exp-1).
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
    parallelism: usize,
    stats: std::sync::Mutex<MatcherStats>,
}

impl Matcher {
    /// Creates a matcher with its own default-sized cache.
    pub fn new(graph: Arc<Graph>, oracle: Arc<dyn DistanceOracle>) -> Self {
        Matcher {
            graph,
            oracle,
            cache: Some(Arc::new(StarCache::default_sized())),
            step_limit: 2_000_000,
            parallelism: 1,
            stats: std::sync::Mutex::new(MatcherStats::default()),
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

    /// The star cache, when caching is enabled.
    pub fn shared_cache(&self) -> Option<&Arc<StarCache>> {
        self.cache.as_ref()
    }

    /// Overrides the per-candidate verification step budget.
    pub fn with_step_limit(mut self, limit: usize) -> Self {
        self.step_limit = limit.max(1);
        self
    }

    /// Verifies focus candidates on up to `threads` OS threads (candidate
    /// verifications are mutually independent). `0` resolves to one worker
    /// per available core; `1` (the default) keeps evaluation
    /// single-threaded; large pools only.
    pub fn with_parallelism(mut self, threads: usize) -> Self {
        self.parallelism = wqe_pool::resolve_threads(threads);
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

    /// Locks the stats mutex, recovering from poison: the counters stay
    /// meaningful even if a verifier thread panicked mid-update.
    fn stats_lock(&self) -> std::sync::MutexGuard<'_, MatcherStats> {
        self.stats
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> MatcherStats {
        *self.stats_lock()
    }

    /// Cache counters, when caching is enabled.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// Candidates `V_u` of a pattern node.
    pub fn candidates(&self, q: &PatternQuery, u: QNodeId) -> Vec<NodeId> {
        candidates::node_candidates(&self.graph, q, u)
    }

    fn table_for(
        &self,
        q: &PatternQuery,
        s: &StarQuery,
        focus_cands: &HashSet<NodeId>,
    ) -> StarTable {
        match &self.cache {
            Some(cache) => {
                let key = s.spec_key(q);
                let mut built = false;
                let rows = cache.get_or_compute(
                    &key,
                    || star_footprint(q, s),
                    || {
                        built = true;
                        let _span = obs::span(obs::Stage::StarMaterialize);
                        star::materialize_rows(&self.graph, q, s, focus_cands)
                    },
                );
                if built {
                    self.stats_lock().tables_built += 1;
                }
                StarTable {
                    star: s.clone(),
                    rows,
                }
            }
            None => {
                self.stats_lock().tables_built += 1;
                let _span = obs::span(obs::Stage::StarMaterialize);
                StarTable {
                    star: s.clone(),
                    rows: Arc::new(star::materialize_rows(&self.graph, q, s, focus_cands)),
                }
            }
        }
    }

    /// Produces an `EXPLAIN`-style description of how the matcher would
    /// evaluate `q`: the star decomposition, per-star cache status and row
    /// counts, and the literal-filtered domain sizes the join would verify.
    /// Evaluates star tables (and caches them) but skips the join.
    pub fn explain_plan(&self, q: &PatternQuery) -> MatchPlan {
        let focus = q.focus();
        let focus_pool: HashSet<NodeId> = match q.node(focus).and_then(|n| n.label) {
            Some(l) => self.graph.nodes_with_label(l).iter().copied().collect(),
            None => self.graph.node_ids().collect(),
        };
        let before = self.cache_stats();
        let stars = star::decompose(q);
        let mut plan_stars = Vec::with_capacity(stars.len());
        for s in &stars {
            let misses_before = self.cache_stats().map(|c| c.misses).unwrap_or(0);
            let table = self.table_for(q, s, &focus_pool);
            let was_cached = self
                .cache_stats()
                .map(|c| c.misses == misses_before)
                .unwrap_or(false);
            let view = star::TableView::build(&self.graph, q, &table);
            plan_stars.push(StarPlan {
                spec_key: s.spec_key(q),
                center: s.center,
                leaf: s.leaves.first().map(|l| l.node),
                cached: was_cached,
                rows: table.rows.len(),
                live_rows: view.len(),
            });
        }
        let tables: Vec<StarTable> = stars
            .iter()
            .map(|s| self.table_for(q, s, &focus_pool))
            .collect();
        let views: Vec<star::TableView<'_>> = tables
            .iter()
            .map(|t| star::TableView::build(&self.graph, q, t))
            .collect();
        let supports = star::support_domains(q, &views);
        let domains = q
            .node_ids()
            .map(|u| {
                let size = supports
                    .get(&u)
                    .map(|s| s.len())
                    .unwrap_or_else(|| self.candidates(q, u).len());
                (u, size)
            })
            .collect();
        let _ = before;
        MatchPlan {
            stars: plan_stars,
            domains,
        }
    }

    /// Evaluates `Q(G)` (procedure `Match`).
    pub fn evaluate(&self, q: &PatternQuery) -> MatchOutcome {
        let _span = obs::span(obs::Stage::Match);
        self.stats_lock().evaluations += 1;
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

        // Label-level focus pool (backs augmented-edge filtering; it is
        // rewrite-invariant, which keeps cached tables valid).
        let focus_pool: HashSet<NodeId> = match q.node(focus).and_then(|n| n.label) {
            Some(l) => self.graph.nodes_with_label(l).iter().copied().collect(),
            None => self.graph.node_ids().collect(),
        };

        let stars = star::decompose(q);
        let tables: Vec<StarTable> = stars
            .iter()
            .map(|s| self.table_for(q, s, &focus_pool))
            .collect();
        // Apply the current center literals at lookup time.
        let views: Vec<star::TableView<'_>> = tables
            .iter()
            .map(|t| star::TableView::build(&self.graph, q, t))
            .collect();

        // Candidate domains from star supports; nodes untouched by stars
        // fall back to raw candidates.
        let supports = star::support_domains(q, &views);
        let mut domains: HashMap<QNodeId, Vec<NodeId>> = HashMap::new();
        for u in q.node_ids() {
            let mut dom: Vec<NodeId> = match supports.get(&u) {
                Some(set) => set.iter().copied().collect(),
                None => self.candidates(q, u),
            };
            dom.sort();
            domains.insert(u, dom);
        }

        let order = assignment_order(q);
        let focus_domain = domains.get(&focus).cloned().unwrap_or_default();
        self.stats_lock().candidates_verified += focus_domain.len() as u64;

        let verify_chunk = |chunk: &[NodeId]| -> (Vec<(NodeId, Valuation)>, bool, usize) {
            let mut found = Vec::new();
            let mut truncated = false;
            let mut consumed = 0usize;
            // Governor halts (cancel/deadline) cut the candidate fan-out
            // short; polled every few candidates so a slow oracle cannot
            // pin the thread past the deadline.
            let gov = wqe_pool::governor::current();
            for (i, &v) in chunk.iter().enumerate() {
                if let Some(g) = gov.as_deref() {
                    if i % 16 == 15 && g.halt().is_some() {
                        truncated = true;
                        break;
                    }
                }
                let mut steps = self.step_limit;
                match verify_candidate(
                    &self.graph,
                    &self.oracle,
                    q,
                    &order,
                    &domains,
                    v,
                    &mut steps,
                ) {
                    Ok(Some(h)) => found.push((v, h)),
                    Ok(None) => {}
                    Err(Truncated) => truncated = true,
                }
                // One step for examining the candidate itself, plus the
                // join work its verification consumed. Without the `1 +`,
                // candidates rejected before the join recursion descends
                // (single-node assignment orders, empty inner domains,
                // literal failures) consume nothing, so tiny queries
                // report `steps == 0` and a governor step cap can never
                // engage on them. Charged per candidate — not batched —
                // so per-chunk sums are exact at any parallelism.
                consumed += 1 + (self.step_limit - steps);
            }
            (found, truncated, consumed)
        };

        // Candidate verifications are independent; fan out across threads
        // when the pool is large enough to amortize spawning. Chunk results
        // come back in chunk order, so matches are thread-count-invariant
        // even before the final sort.
        let join_span = obs::span(obs::Stage::Join);
        let (verified, truncated, steps) = if self.parallelism > 1 && focus_domain.len() >= 64 {
            let chunk_size = focus_domain.len().div_ceil(self.parallelism);
            let chunks: Vec<&[NodeId]> = focus_domain.chunks(chunk_size).collect();
            let results = wqe_pool::WorkerPool::new(self.parallelism)
                .map(&chunks, |_, chunk| verify_chunk(chunk));
            let mut verified = Vec::new();
            let mut truncated = false;
            let mut steps = 0usize;
            for (found, trunc, consumed) in results {
                verified.extend(found);
                truncated |= trunc;
                steps += consumed;
            }
            (verified, truncated, steps)
        } else {
            verify_chunk(&focus_domain)
        };
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
fn star_footprint(q: &PatternQuery, s: &StarQuery) -> cache::StarFootprint {
    let mut fp = cache::StarFootprint::default();
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
/// raw candidate sets with no view pruning. Exponential — use only on small
/// graphs (the matcher's equivalence tests).
pub fn naive_evaluate<O: DistanceOracle + ?Sized>(
    graph: &Graph,
    oracle: &O,
    q: &PatternQuery,
) -> Vec<NodeId> {
    let order = assignment_order(q);
    let mut domains = HashMap::new();
    for u in q.node_ids() {
        domains.insert(u, candidates::node_candidates(graph, q, u));
    }
    let mut result = Vec::new();
    for &v in domains.get(&q.focus()).unwrap_or(&Vec::new()) {
        let mut steps = usize::MAX;
        if let Ok(Some(_)) = verify_candidate(graph, oracle, q, &order, &domains, v, &mut steps) {
            result.push(v);
        }
    }
    result.sort();
    result
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

    #[test]
    fn cache_hits_across_rewrites() {
        let pg = product_graph();
        let g = &pg.graph;
        let m = matcher_for(g);
        let q = paper_query(g);
        m.evaluate(&q);
        m.evaluate(&q); // identical query: all stars hit
        let cs = m.cache_stats().unwrap();
        assert!(cs.hits >= 1, "second evaluation should hit the cache");
    }

    #[test]
    fn without_cache_rebuilds() {
        let pg = product_graph();
        let g = &pg.graph;
        let m = matcher_for(g).without_cache();
        let q = paper_query(g);
        m.evaluate(&q);
        m.evaluate(&q);
        assert!(m.cache_stats().is_none());
        // Per-edge decomposition: two stars per evaluation, rebuilt twice.
        assert_eq!(m.stats().tables_built, 4);
    }

    #[test]
    fn explain_plan_reports_stars_and_domains() {
        let pg = product_graph();
        let g = &pg.graph;
        let m = matcher_for(g);
        let q = paper_query(g);
        let plan = m.explain_plan(&q);
        assert_eq!(plan.stars.len(), 2, "per-edge decomposition");
        // Label-level rows exceed the literal-filtered live rows (P1..P5
        // have carriers, but only P1, P2, P5 pass Price/Brand).
        let carrier_star = plan
            .stars
            .iter()
            .find(|s| s.rows == 5)
            .expect("carrier star with 5 label-level rows");
        assert_eq!(carrier_star.live_rows, 3);
        // Second explain of the same query must come from the cache.
        let plan2 = m.explain_plan(&q);
        assert!(plan2.stars.iter().all(|s| s.cached));
        // Domain sizes reflect the view intersection.
        let focus_domain = plan
            .domains
            .iter()
            .find(|(u, _)| *u == q.focus())
            .map(|&(_, n)| n)
            .unwrap();
        assert_eq!(focus_domain, 3);
        let text = plan.render();
        assert!(text.contains("match plan:"));
        assert!(text.contains("domains:"));
    }

    #[test]
    fn parallel_evaluation_matches_serial() {
        // A pool of 200 same-label nodes (past the >= 64 fan-out gate),
        // half with a neighbor of the right label.
        let mut b = wqe_graph::GraphBuilder::new();
        let mut expected = Vec::new();
        for i in 0..200u32 {
            let f = b.add_node("F", [("i", wqe_graph::AttrValue::Int(i as i64))]);
            if i % 2 == 0 {
                let l = b.add_node("L", []);
                b.add_edge(f, l, "e");
                expected.push(f);
            } else {
                let x = b.add_node("X", []);
                b.add_edge(f, x, "e");
            }
        }
        let g = b.finalize();
        let s = g.schema();
        let mut q = PatternQuery::new(s.label_id("F"), 2);
        let leaf = q.add_node(s.label_id("L"));
        q.add_edge(q.focus(), leaf, 1).unwrap();

        let serial = matcher_for(&g).evaluate(&q);
        let parallel = matcher_for(&g).with_parallelism(4).evaluate(&q);
        assert_eq!(serial.matches, parallel.matches);
        assert_eq!(parallel.matches, expected);
        assert_eq!(serial.valuations.len(), parallel.valuations.len());
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
