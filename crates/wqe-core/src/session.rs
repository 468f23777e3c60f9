//! The why-question session: shared state every algorithm consults.
//!
//! A session pins down the inputs of the WQE problem statement (§3): the
//! graph, the original query with its focus, the exemplar with its
//! representation `rep(E, V)`, the session-fixed focus candidate pool
//! `V_uo`, the budget `B`, and the theoretical optimum `cl*`.

use crate::answ::{AnswerReport, BestFirst};
use crate::chase;
use crate::closeness::{
    answer_closeness, closeness_upper_bound, theoretical_optimum, ClosenessConfig,
};
use crate::ctx::EngineCtx;
use crate::engine::Algorithm;
use crate::error::WqeError;
use crate::exemplar::{compute_representation, satisfies, Exemplar, Representation};
use crate::heuristic::Beam;
use crate::relevance::RelevanceSets;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use wqe_graph::{Graph, NodeId};
use wqe_pool::scope::Scope;
use wqe_query::{MatchOutcome, Matcher, PatternQuery};

/// A why-question `W(Q(u_o), E)` (§2.2).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct WhyQuestion {
    /// The original query `Q`.
    pub query: PatternQuery,
    /// The exemplar `E = (T, C)`.
    pub exemplar: Exemplar,
}

/// Algorithm tunables.
#[derive(Debug, Clone)]
pub struct WqeConfig {
    /// Closeness model (`theta`, `lambda`).
    pub closeness: ClosenessConfig,
    /// The rewrite budget `B` (default 3, the paper's default).
    pub budget: f64,
    /// Wall-clock cap for the anytime algorithms, milliseconds.
    pub time_limit_ms: Option<u64>,
    /// Hard cap on Q-Chase step simulations (safety valve).
    pub max_expansions: usize,
    /// Beam width `k` for `AnsHeu`.
    pub beam_width: usize,
    /// Number of rewrites to return (top-k suggestion, §6.2).
    pub top_k: usize,
    /// Cap on the RC/RM nodes inspected per picky-edge analysis; bounds
    /// `NextOp`'s cost on huge candidate sets.
    pub relevance_sample: usize,
    /// Use the star-view cache (`false` reproduces `AnsWnc`).
    pub caching: bool,
    /// Use the normal-form + cl⁺ pruning (`false`, with `caching = false`,
    /// reproduces `AnsWb`).
    pub pruning: bool,
    /// Worker threads for the search's one parallel hot path: evaluating a
    /// round's rewrites (a batch of `AnsW` frontier children, a level of
    /// the `AnsHeu` beam) concurrently. Each evaluation runs on one thread.
    /// `0` (the [`Default`]) means *auto* — one worker per available core;
    /// `1` forces fully serial execution. The thread count never changes
    /// answers, only wall-clock (see DESIGN.md "Parallel search and index
    /// construction").
    pub parallelism: usize,
    /// Governor wall-clock deadline in milliseconds; `0` (the default)
    /// means no deadline. Unlike `time_limit_ms` — which only the search
    /// loops consult between expansions — the deadline is polled
    /// cooperatively all the way down (matcher candidate loop, BFS
    /// oracle), so it bounds even a single slow evaluation. See DESIGN.md
    /// "Query governor".
    pub deadline_ms: f64,
    /// Governor cap on retained search states (the `AnsW` arena / `AnsHeu`
    /// visited set); `0` means unlimited. Exceeding it ends the search with
    /// `Termination::FrontierCap` and best-so-far answers.
    pub max_frontier_states: usize,
    /// Governor cap on cumulative matcher join steps across the whole
    /// search; `0` means unlimited. Charged serially from merge code, so
    /// trips are deterministic at any `parallelism`. Exceeding it ends the
    /// search with `Termination::StepCap`.
    pub max_match_steps: u64,
}

impl Default for WqeConfig {
    fn default() -> Self {
        WqeConfig {
            closeness: ClosenessConfig::default(),
            budget: 3.0,
            time_limit_ms: Some(10_000),
            max_expansions: 20_000,
            beam_width: 3,
            top_k: 1,
            relevance_sample: 64,
            caching: true,
            pruning: true,
            parallelism: 0,
            deadline_ms: 0.0,
            max_frontier_states: 0,
            max_match_steps: 0,
        }
    }
}

impl WqeConfig {
    /// The resolved worker-thread count: `parallelism`, with `0` mapped to
    /// the number of available cores (always at least 1).
    pub fn effective_parallelism(&self) -> usize {
        wqe_pool::resolve_threads(self.parallelism)
    }

    /// A builder over the [`Default`] configuration. Prefer this for
    /// untrusted or per-request tunables: every numeric range check runs
    /// once, at [`WqeConfigBuilder::build`], instead of being deferred to
    /// whichever `try_new` call site first consumes the config.
    pub fn builder() -> WqeConfigBuilder {
        WqeConfig::default().to_builder()
    }

    /// A builder seeded from this configuration — the override idiom used
    /// by [`crate::service::QueryRequest`]: start from a service's base
    /// config, change a few fields, validate the result.
    pub fn to_builder(&self) -> WqeConfigBuilder {
        WqeConfigBuilder { cfg: self.clone() }
    }

    /// Validates every numeric tunable against its documented range. This
    /// is the single source of truth consulted both by
    /// [`WqeConfigBuilder::build`] and by [`Session::try_new`], so a config
    /// that passed the builder never fails session construction.
    pub fn validate(&self) -> Result<(), WqeError> {
        let checks = [
            ("budget", self.budget, 0.0, f64::INFINITY),
            ("closeness.theta", self.closeness.theta, 0.0, 1.0),
            (
                "closeness.lambda",
                self.closeness.lambda,
                0.0,
                f64::INFINITY,
            ),
            // 0.0 means "no deadline"; NaN and negatives are rejected like
            // the other numeric tunables. The integer governor caps
            // (`max_frontier_states`, `max_match_steps`) need no check:
            // every representable value is valid, with 0 meaning unlimited.
            ("deadline_ms", self.deadline_ms, 0.0, f64::INFINITY),
        ];
        for (field, value, lo, hi) in checks {
            if !(lo..=hi).contains(&value) {
                return Err(WqeError::InvalidConfig { field, value });
            }
        }
        Ok(())
    }
}

/// A validating builder for [`WqeConfig`]. Construct with
/// [`WqeConfig::builder`] (from defaults) or [`WqeConfig::to_builder`]
/// (override an existing config); plain struct construction keeps working
/// for trusted call sites.
#[derive(Debug, Clone)]
pub struct WqeConfigBuilder {
    cfg: WqeConfig,
}

impl WqeConfigBuilder {
    /// Sets the whole closeness model at once.
    pub fn closeness(mut self, c: ClosenessConfig) -> Self {
        self.cfg.closeness = c;
        self
    }

    /// Sets the similarity threshold `theta` (valid range `[0, 1]`).
    pub fn theta(mut self, theta: f64) -> Self {
        self.cfg.closeness.theta = theta;
        self
    }

    /// Sets the irrelevant-match penalty weight `lambda` (`>= 0`).
    pub fn lambda(mut self, lambda: f64) -> Self {
        self.cfg.closeness.lambda = lambda;
        self
    }

    /// Sets the rewrite budget `B` (`>= 0`).
    pub fn budget(mut self, budget: f64) -> Self {
        self.cfg.budget = budget;
        self
    }

    /// Sets the anytime wall-clock cap (`None` = unlimited).
    pub fn time_limit_ms(mut self, ms: Option<u64>) -> Self {
        self.cfg.time_limit_ms = ms;
        self
    }

    /// Sets the Q-Chase step-simulation safety valve.
    pub fn max_expansions(mut self, n: usize) -> Self {
        self.cfg.max_expansions = n;
        self
    }

    /// Sets the beam width `k` used by `AnsHeu`/`AnsHeuB`.
    pub fn beam_width(mut self, k: usize) -> Self {
        self.cfg.beam_width = k;
        self
    }

    /// Sets the number of rewrites to return (top-k suggestion).
    pub fn top_k(mut self, k: usize) -> Self {
        self.cfg.top_k = k;
        self
    }

    /// Sets the RC/RM sample cap for picky-edge analysis.
    pub fn relevance_sample(mut self, n: usize) -> Self {
        self.cfg.relevance_sample = n;
        self
    }

    /// Enables or disables the star-view cache.
    pub fn caching(mut self, on: bool) -> Self {
        self.cfg.caching = on;
        self
    }

    /// Enables or disables normal-form + cl⁺ pruning.
    pub fn pruning(mut self, on: bool) -> Self {
        self.cfg.pruning = on;
        self
    }

    /// Sets the worker-thread count (`0` = auto, `1` = serial).
    pub fn parallelism(mut self, threads: usize) -> Self {
        self.cfg.parallelism = threads;
        self
    }

    /// Sets the governor wall-clock deadline in milliseconds (`0` = none).
    pub fn deadline_ms(mut self, ms: f64) -> Self {
        self.cfg.deadline_ms = ms;
        self
    }

    /// Sets the governor retained-search-state cap (`0` = unlimited).
    pub fn max_frontier_states(mut self, n: usize) -> Self {
        self.cfg.max_frontier_states = n;
        self
    }

    /// Sets the governor cumulative match-step cap (`0` = unlimited).
    pub fn max_match_steps(mut self, n: u64) -> Self {
        self.cfg.max_match_steps = n;
        self
    }

    /// Validates and returns the configuration (see [`WqeConfig::validate`]
    /// for the rejection rules).
    pub fn build(self) -> Result<WqeConfig, WqeError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// Everything evaluated about one query rewrite.
#[derive(Debug, Clone)]
pub struct EvalResult {
    /// The matcher's outcome (matches, witnesses, star tables).
    pub outcome: MatchOutcome,
    /// `cl(Q(G), E)`.
    pub closeness: f64,
    /// `cl⁺(Q, E)` — the refinement-phase prune bound.
    pub upper_bound: f64,
    /// RM/IM/RC/IC classification.
    pub relevance: RelevanceSets,
    /// `Q(G) ⊨ E`?
    pub satisfies: bool,
}

/// One incremental best-so-far improvement emitted by an anytime
/// algorithm while it runs.
///
/// Updates are emitted from the coordinating thread only (the root
/// evaluation and AnsW's serial merge loop), exactly when the best
/// satisfying answer's closeness improves — the same condition that pushes
/// a [`crate::answ::TracePoint`]. Because the emission point is serial and
/// the search trajectory is a function of `answ::FRONTIER_BATCH` alone, the
/// sequence of updates is bit-identical across `parallelism` settings.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AnswerUpdate {
    /// 0-based position of this update in the run's emission order.
    pub seq: u64,
    /// Microseconds since the search started (wall-clock; the only
    /// machine-dependent field).
    pub elapsed_us: u64,
    /// Closeness of the new best satisfying answer. Strictly increases
    /// across the updates of one run.
    pub closeness: f64,
    /// Rewrite cost of the new best answer.
    pub cost: f64,
    /// Number of atomic operations in the rewrite.
    pub ops: usize,
    /// Whether the rewrite satisfies the exemplar (always true for
    /// updates emitted today; kept explicit for the wire format).
    pub satisfies: bool,
}

/// A callback receiving [`AnswerUpdate`]s as a search improves its
/// best-so-far answer. Shared (`Arc`) so the serving layer can hand the
/// same sink to a retry of the same job.
pub type ProgressSink = std::sync::Arc<dyn Fn(&AnswerUpdate) + Send + Sync>;

/// Shared session state.
///
/// The session owns its inputs through an [`EngineCtx`] (shared `Arc`s), so
/// it is `'static`: it can be moved into threads, stored in registries, and
/// outlive the scope that built the graph handle it was given.
pub struct Session {
    /// Shared graph + oracle context.
    pub ctx: EngineCtx,
    /// Star-view matcher (cache configured per [`WqeConfig::caching`]).
    pub matcher: Matcher,
    /// The exemplar.
    pub exemplar: Exemplar,
    /// Tunables.
    pub config: WqeConfig,
    /// `rep(E, V)` over the whole graph.
    pub rep: Representation,
    /// Session-fixed focus candidate pool `V_uo` (label candidates of the
    /// original query's focus; see DESIGN.md §3.1).
    pub v_uo: Vec<NodeId>,
    /// `R(u_o) = rep(E, V) ∩ V_uo`.
    pub r_uo: Vec<NodeId>,
    /// The theoretical optimum `cl*`.
    pub cl_star: f64,
    /// The query governor: deadline / cancellation / step and frontier
    /// caps, built from the config by [`crate::governor::governor_for`].
    /// Clone the `Arc` to cancel a running search from another thread.
    pub governor: std::sync::Arc<wqe_pool::governor::Governor>,
    /// The per-query profiler [`Session::run`] enters while a search runs
    /// (stage spans + the counter registry; see [`crate::obs`]).
    pub profiler: std::sync::Arc<crate::obs::Profiler>,
    /// Streaming progress sink: called (from the coordinating thread only)
    /// with each [`AnswerUpdate`] as the best-so-far answer improves.
    /// `None` (the default) makes emission a no-op branch.
    pub progress: Option<ProgressSink>,
    /// [`Session::label_keys`]'s memo: each node asked about, with its keys.
    label_keys: Mutex<HashMap<NodeId, Arc<[LabelKey]>>>,
}

/// A `(label, distance, outgoing)` neighbourhood key: some node at exactly
/// `distance` hops from a node, along out-edges when `outgoing`, carries
/// `label` (the raw [`wqe_graph::LabelId`]).
pub(crate) type LabelKey = (u32, u32, bool);

impl Session {
    /// The epoch this session answers against (from its context; epoch 0
    /// for contexts built outside a [`crate::live::GraphStore`]).
    pub fn epoch(&self) -> crate::live::EpochId {
        self.ctx.epoch()
    }

    /// Builds a session for a why-question over a shared context.
    ///
    /// # Panics
    ///
    /// Panics if the question or config fail [`Session::try_new`]'s
    /// validation. Use `try_new` when the question comes from untrusted
    /// input (a parsed spec, a CLI flag).
    pub fn new(ctx: EngineCtx, question: &WhyQuestion, config: WqeConfig) -> Self {
        Session::try_new(ctx, question, config).expect("valid why-question and config")
    }

    /// Fallible constructor: validates the question and tunables first.
    pub fn try_new(
        ctx: EngineCtx,
        question: &WhyQuestion,
        config: WqeConfig,
    ) -> Result<Self, WqeError> {
        validate(question, &config)?;
        let matcher = if config.caching {
            // Share the context's per-epoch star cache: sessions pinned to
            // the same epoch reuse each other's materialized star tables.
            Matcher::new(Arc::clone(ctx.graph()), Arc::clone(ctx.oracle()))
                .with_shared_cache(Arc::clone(ctx.star_cache()))
        } else {
            Matcher::new(Arc::clone(ctx.graph()), Arc::clone(ctx.oracle())).without_cache()
        };
        let graph = ctx.graph();
        let focus_label = question
            .query
            .node(question.query.focus())
            .and_then(|n| n.label);
        let v_uo: Vec<NodeId> = match focus_label {
            Some(l) => graph.nodes_with_label(l).to_vec(),
            None => graph.node_ids().collect(),
        };
        let rep = compute_representation(
            graph,
            &question.exemplar,
            v_uo.iter().copied(),
            config.closeness.theta,
        );
        let r_uo: Vec<NodeId> = v_uo.iter().copied().filter(|&v| rep.contains(v)).collect();
        let cl_star = theoretical_optimum(&rep, &v_uo);
        let governor = crate::governor::governor_for(&config);
        let profiler = std::sync::Arc::new(crate::obs::Profiler::new());
        // A snapshot-loaded context did its expensive work before any
        // session existed; replay that cost into this query's profile so
        // `--profile` shows where startup time went.
        if let Some(s) = ctx.snapshot_startup() {
            profiler.record_span(crate::obs::Stage::SnapshotLoad, s.load_ns);
            profiler.add(crate::obs::Counter::SnapshotBytesMapped, s.bytes_mapped);
            // Serving from a snapshot with quarantined sections means the
            // oracle already degraded to its fallback: surface that in the
            // same per-query profile that `--profile` prints.
            if s.degraded() {
                profiler.add(crate::obs::Counter::DegradedServe, 1);
            }
        }
        Ok(Session {
            ctx,
            matcher,
            exemplar: question.exemplar.clone(),
            config,
            rep,
            v_uo,
            r_uo,
            cl_star,
            governor,
            profiler,
            progress: None,
            label_keys: Mutex::default(),
        })
    }

    /// Replaces the session's governor (e.g. with a pre-armed handle shared
    /// with a supervisor thread).
    pub fn with_governor(mut self, governor: std::sync::Arc<wqe_pool::governor::Governor>) -> Self {
        self.governor = governor;
        self
    }

    /// Installs a streaming progress sink: `sink` is called with each
    /// [`AnswerUpdate`] as the best-so-far answer improves. Emission
    /// happens on the coordinating thread only, so the update sequence is
    /// identical across `parallelism` settings.
    pub fn with_progress(mut self, sink: ProgressSink) -> Self {
        self.progress = Some(sink);
        self
    }

    /// Emits a best-so-far improvement to the installed progress sink (a
    /// no-op branch without one). Called by the anytime algorithms at the
    /// same serial point that records a [`crate::answ::TracePoint`].
    pub fn emit_progress(&self, update: &AnswerUpdate) {
        if let Some(sink) = &self.progress {
            sink(update);
        }
    }

    /// Runs `algorithm` on `question` — the one search driver. It starts
    /// the clock, enters the session's governor and profiler as one
    /// request [`Scope`], and contains a panic anywhere in the search as
    /// [`WqeError::WorkerPanicked`]. A governor that tripped before the
    /// run yields an empty report tagged with the halt; a halt that cut the
    /// run tags its report `Cancelled`/`Deadline` (never `Complete`). It
    /// fills the report's `match_steps`, `frontier_peak`, `elapsed_ms` and
    /// `profile`; the algorithm bodies only search.
    ///
    /// `AnsWnc`/`AnsWb` act through this session's `caching`/`pruning`
    /// flags: build the session from [`Algorithm::apply_to`]'s config.
    pub fn run(
        &self,
        algorithm: Algorithm,
        question: &WhyQuestion,
    ) -> Result<AnswerReport, WqeError> {
        let start = Instant::now();
        let gov = &self.governor;
        let steps_before = gov.steps();
        // Every shared layer below (matcher candidate loop, BFS oracle, pool
        // workers) polls this governor and records into this profiler.
        let _scope = Scope {
            governor: Some(Arc::clone(gov)),
            profiler: Some(Arc::clone(&self.profiler)),
            faults: None,
        }
        .enter();
        let mut report = match gov.halt() {
            Some(halt) => AnswerReport {
                termination: halt,
                ..AnswerReport::default()
            },
            None => crate::error::contain(|| match algorithm {
                Algorithm::AnsW | Algorithm::AnsWnc | Algorithm::AnsWb => {
                    chase::search(self, question, start, BestFirst::new(self))
                }
                Algorithm::AnsHeu => chase::search(self, question, start, Beam::new(self, None)),
                Algorithm::AnsHeuB(seed) => {
                    chase::search(self, question, start, Beam::new(self, Some(seed)))
                }
                Algorithm::FMAnsW => Ok(crate::fmansw::search(self, question)),
                Algorithm::WhyMany => Ok(crate::whymany::search(self, question)),
                Algorithm::WhyEmpty => Ok(crate::whyempty::search(self, question)),
            })?,
        };
        if !report.termination.is_partial() {
            if let Some(halt) = gov.halt() {
                report.termination = halt;
            }
        }
        report.match_steps = gov.steps() - steps_before;
        report.frontier_peak = gov.frontier_peak();
        report.elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
        report.profile = Some(crate::obs::QueryProfile::from_snapshot(
            &self.profiler.snapshot(),
            report.termination,
            report.elapsed_ms,
            report.expansions as u64,
            report.match_steps,
            gov.oracle_steps(),
            report.frontier_peak as u64,
        ));
        Ok(report)
    }

    /// The data graph.
    pub fn graph(&self) -> &Graph {
        self.ctx.graph()
    }

    /// Evaluates a query rewrite end to end.
    pub fn evaluate(&self, q: &PatternQuery) -> EvalResult {
        let outcome = self.matcher.evaluate(q);
        self.eval_from_outcome(outcome)
    }

    /// Derives the closeness/relevance bundle from a matcher outcome.
    pub fn eval_from_outcome(&self, outcome: MatchOutcome) -> EvalResult {
        let closeness = answer_closeness(
            &outcome.matches,
            &self.rep,
            self.config.closeness.lambda,
            self.v_uo.len(),
        );
        let upper_bound = closeness_upper_bound(&outcome.matches, &self.rep, self.v_uo.len());
        let relevance = RelevanceSets::classify(&outcome.matches, &self.rep, &self.r_uo);
        let sat = satisfies(
            self.graph(),
            &self.exemplar,
            &outcome.matches,
            self.config.closeness.theta,
        );
        EvalResult {
            outcome,
            closeness,
            upper_bound,
            relevance,
            satisfies: sat,
        }
    }

    /// The sorted, distinct [`LabelKey`]s of `m`'s neighbourhood within two
    /// hops, each direction on its own: one key per node at distance 1 or
    /// 2 from `m` (never `m` itself). Computed once per node and session;
    /// operator generation asks about the same focus matches in every
    /// state.
    pub(crate) fn label_keys(&self, m: NodeId) -> Arc<[LabelKey]> {
        if let Some(keys) = self.lock_label_keys().get(&m) {
            return Arc::clone(keys);
        }
        let keys = neighbourhood_keys(self.graph(), m);
        Arc::clone(self.lock_label_keys().entry(m).or_insert(keys))
    }

    fn lock_label_keys(&self) -> std::sync::MutexGuard<'_, HashMap<NodeId, Arc<[LabelKey]>>> {
        // Each update is one insert of a finished entry, so a poisoned
        // memo is still a valid one.
        self.label_keys.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The exemplar is *nontrivial* iff its representation is non-empty
    /// (§2.2 only considers nontrivial exemplars).
    pub fn nontrivial(&self) -> bool {
        self.rep.satisfiable && !self.rep.nodes.is_empty()
    }
}

/// [`Session::label_keys`] computed afresh: the nodes at distance 1, then
/// 2, from `m` along each direction's edges, as sorted node lists.
fn neighbourhood_keys(g: &Graph, m: NodeId) -> Arc<[LabelKey]> {
    let mut keys = Vec::new();
    for outgoing in [true, false] {
        let step = |x: NodeId| {
            if outgoing {
                g.out_neighbors(x)
            } else {
                g.in_neighbors(x)
            }
        };
        let mut near: Vec<NodeId> = step(m)
            .iter()
            .map(|&(w, _)| w)
            .filter(|&w| w != m)
            .collect();
        near.dedup(); // adjacency lists are sorted
        let mut far: Vec<NodeId> = near
            .iter()
            .flat_map(|&y| step(y).iter().map(|&(w, _)| w))
            .filter(|&w| w != m && near.binary_search(&w).is_err())
            .collect();
        far.sort_unstable();
        far.dedup();
        for (ring, d) in [(&near, 1), (&far, 2)] {
            keys.extend(ring.iter().map(|&w| (g.label(w).0, d, outgoing)));
        }
    }
    keys.sort_unstable();
    keys.dedup();
    keys.into()
}

/// Rejects questions and configs the algorithms cannot make sense of.
fn validate(question: &WhyQuestion, config: &WqeConfig) -> Result<(), WqeError> {
    if question.query.node(question.query.focus()).is_none() {
        return Err(WqeError::DeadFocus);
    }
    config.validate()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exemplar::{Constraint, Rhs, TuplePattern, VarRef};
    use std::sync::Arc;
    use wqe_graph::product::{attrs, product_graph};
    use wqe_graph::{AttrValue, CmpOp};
    use wqe_index::{DistanceOracle, PllIndex};
    use wqe_query::Literal;

    fn ctx_for(g: &Graph) -> EngineCtx {
        let graph = Arc::new(g.clone());
        let oracle: Arc<dyn DistanceOracle> = Arc::new(PllIndex::build(g));
        EngineCtx::new(graph, oracle)
    }

    fn paper_question(g: &Graph) -> WhyQuestion {
        let s = g.schema();
        let mut q = PatternQuery::new(s.label_id("Cellphone"), 4);
        let carrier = q.add_node(s.label_id("Carrier"));
        let sensor = q.add_node(s.label_id("Sensor"));
        q.add_edge(q.focus(), carrier, 1).unwrap();
        q.add_edge(q.focus(), sensor, 2).unwrap();
        let price = s.attr_id(attrs::PRICE).unwrap();
        let brand = s.attr_id(attrs::BRAND).unwrap();
        q.add_literal(q.focus(), Literal::new(price, CmpOp::Ge, 840))
            .unwrap();
        q.add_literal(q.focus(), Literal::new(brand, CmpOp::Eq, "Samsung"))
            .unwrap();

        let display = s.attr_id(attrs::DISPLAY).unwrap();
        let storage = s.attr_id(attrs::STORAGE).unwrap();
        let mut ex = Exemplar::new();
        ex.add_tuple(TuplePattern::new().constant(display, 62i64).var(storage));
        ex.add_tuple(
            TuplePattern::new()
                .constant(display, 63i64)
                .var(storage)
                .var(price),
        );
        ex.add_constraint(Constraint {
            lhs: VarRef {
                tuple: 1,
                attr: price,
            },
            op: CmpOp::Lt,
            rhs: Rhs::Const(AttrValue::Int(800)),
        });
        ex.add_constraint(Constraint {
            lhs: VarRef {
                tuple: 0,
                attr: storage,
            },
            op: CmpOp::Gt,
            rhs: Rhs::Var(VarRef {
                tuple: 1,
                attr: storage,
            }),
        });
        WhyQuestion {
            query: q,
            exemplar: ex,
        }
    }

    #[test]
    fn session_setup_matches_paper() {
        let pg = product_graph();
        let g = &pg.graph;
        let ctx = ctx_for(g);
        let wq = paper_question(g);
        let session = Session::new(ctx.clone(), &wq, WqeConfig::default());
        assert_eq!(session.v_uo.len(), 6);
        assert_eq!(session.r_uo.len(), 3); // {P3, P4, P5}
        assert!((session.cl_star - 0.5).abs() < 1e-9);
        assert!(session.nontrivial());
    }

    #[test]
    fn wildcard_focus_uses_all_nodes() {
        let pg = product_graph();
        let g = &pg.graph;
        let ctx = ctx_for(g);
        let mut wq = paper_question(g);
        wq.query = PatternQuery::new(None, 4); // wildcard focus
        let session = Session::new(ctx.clone(), &wq, WqeConfig::default());
        assert_eq!(session.v_uo.len(), g.node_count());
    }

    #[test]
    fn unsatisfiable_exemplar_is_trivial() {
        let pg = product_graph();
        let g = &pg.graph;
        let ctx = ctx_for(g);
        let mut wq = paper_question(g);
        // Demand an impossible display size.
        let display = g.schema().attr_id(attrs::DISPLAY).unwrap();
        let mut ex = Exemplar::new();
        ex.add_tuple(TuplePattern::new().constant(display, 999i64));
        wq.exemplar = ex;
        let session = Session::new(ctx.clone(), &wq, WqeConfig::default());
        assert!(!session.nontrivial());
        assert_eq!(session.cl_star, 0.0);
        assert!(session.r_uo.is_empty());
    }

    #[test]
    fn lambda_scales_the_penalty() {
        let pg = product_graph();
        let g = &pg.graph;
        let ctx = ctx_for(g);
        let wq = paper_question(g);
        let strict = Session::new(
            ctx.clone(),
            &wq,
            WqeConfig {
                closeness: crate::closeness::ClosenessConfig {
                    theta: 1.0,
                    lambda: 3.0,
                },
                ..Default::default()
            },
        );
        let lax = Session::new(ctx.clone(), &wq, WqeConfig::default());
        let cs = strict.evaluate(&wq.query).closeness;
        let cl = lax.evaluate(&wq.query).closeness;
        assert!(cs < cl, "larger λ penalizes IM harder: {cs} < {cl}");
    }

    #[test]
    fn evaluate_original_query() {
        let pg = product_graph();
        let g = &pg.graph;
        let ctx = ctx_for(g);
        let wq = paper_question(g);
        let session = Session::new(ctx.clone(), &wq, WqeConfig::default());
        let eval = session.evaluate(&wq.query);
        // Q(G) = {P1, P2, P5}: one RM (P5), two IM.
        assert_eq!(eval.outcome.matches.len(), 3);
        assert_eq!(eval.relevance.rm, vec![pg.phones[4]]);
        assert_eq!(eval.relevance.im.len(), 2);
        assert_eq!(eval.relevance.rc.len(), 2);
        // cl(Q(G), E) = (1 - 2λ)/6 = -1/6.
        assert!((eval.closeness - (-1.0 / 6.0)).abs() < 1e-9);
        assert!((eval.upper_bound - 1.0 / 6.0).abs() < 1e-9);
        // Q(G) ⊭ E: no representative for t2 among {P1, P2, P5}.
        assert!(!eval.satisfies);
    }

    #[test]
    fn try_new_rejects_dead_focus() {
        // The public mutators keep the focus live, but a deserialized
        // question (the CLI's JSON path) can point the focus at a dead
        // slot; `try_new` must reject it instead of panicking deeper in.
        let pg = product_graph();
        let g = &pg.graph;
        let mut wq = paper_question(g);
        let mut v = serde_json::to_value(&wq.query);
        let focus = wq.query.focus().0 as usize;
        if let serde_json::Value::Object(map) = &mut v {
            let mut nodes = map.get("nodes").cloned().expect("nodes field");
            if let serde_json::Value::Array(items) = &mut nodes {
                items[focus] = serde_json::Value::Null;
            }
            map.insert("nodes".to_string(), nodes);
        }
        wq.query = serde_json::from_value(v).expect("deserialize");
        match Session::try_new(ctx_for(g), &wq, WqeConfig::default()) {
            Err(e) => assert_eq!(e, crate::error::WqeError::DeadFocus),
            Ok(_) => panic!("expected DeadFocus"),
        }
    }

    #[test]
    fn try_new_rejects_bad_config() {
        let pg = product_graph();
        let g = &pg.graph;
        let wq = paper_question(g);
        for (cfg, field) in [
            (
                WqeConfig {
                    budget: f64::NAN,
                    ..Default::default()
                },
                "budget",
            ),
            (
                WqeConfig {
                    budget: -1.0,
                    ..Default::default()
                },
                "budget",
            ),
            (
                WqeConfig {
                    closeness: crate::closeness::ClosenessConfig {
                        theta: 1.5,
                        lambda: 0.5,
                    },
                    ..Default::default()
                },
                "closeness.theta",
            ),
        ] {
            match Session::try_new(ctx_for(g), &wq, cfg) {
                Err(crate::error::WqeError::InvalidConfig { field: f, .. }) => {
                    assert_eq!(f, field);
                }
                Err(other) => panic!("expected InvalidConfig for {field}, got {other:?}"),
                Ok(_) => panic!("expected InvalidConfig for {field}, got Ok"),
            }
        }
    }

    #[test]
    fn try_new_rejects_bad_deadline() {
        let pg = product_graph();
        let g = &pg.graph;
        let wq = paper_question(g);
        for bad in [f64::NAN, -1.0, f64::NEG_INFINITY] {
            match Session::try_new(
                ctx_for(g),
                &wq,
                WqeConfig {
                    deadline_ms: bad,
                    ..Default::default()
                },
            ) {
                Err(crate::error::WqeError::InvalidConfig { field, .. }) => {
                    assert_eq!(field, "deadline_ms");
                }
                Err(other) => {
                    panic!("expected InvalidConfig for deadline_ms = {bad}, got {other:?}")
                }
                Ok(_) => panic!("expected InvalidConfig for deadline_ms = {bad}, got Ok"),
            }
        }
    }

    #[test]
    fn zero_governor_limits_mean_unlimited() {
        // The three governor knobs all default to 0 = unlimited: the
        // session builds fine and its governor never trips on its own.
        let pg = product_graph();
        let g = &pg.graph;
        let wq = paper_question(g);
        let cfg = WqeConfig {
            deadline_ms: 0.0,
            max_frontier_states: 0,
            max_match_steps: 0,
            ..Default::default()
        };
        let session = Session::try_new(ctx_for(g), &wq, cfg).expect("zero means unlimited");
        assert_eq!(session.governor.halt(), None);
        assert_eq!(session.governor.charge_steps(1_000_000), None);
        assert_eq!(session.governor.note_frontier(1_000_000), None);
    }

    #[test]
    fn builder_validates_at_build() {
        // Happy path: overrides land, everything else keeps its default.
        let cfg = WqeConfig::builder()
            .budget(5.0)
            .beam_width(7)
            .deadline_ms(250.0)
            .caching(false)
            .build()
            .expect("valid overrides");
        assert_eq!(cfg.budget, 5.0);
        assert_eq!(cfg.beam_width, 7);
        assert_eq!(cfg.deadline_ms, 250.0);
        assert!(!cfg.caching);
        assert_eq!(cfg.top_k, WqeConfig::default().top_k);

        // Every range violation is caught at build(), naming the field.
        for (builder, field) in [
            (WqeConfig::builder().budget(-1.0), "budget"),
            (WqeConfig::builder().budget(f64::NAN), "budget"),
            (WqeConfig::builder().theta(1.5), "closeness.theta"),
            (WqeConfig::builder().lambda(-0.5), "closeness.lambda"),
            (WqeConfig::builder().deadline_ms(-3.0), "deadline_ms"),
        ] {
            match builder.build() {
                Err(WqeError::InvalidConfig { field: f, .. }) => assert_eq!(f, field),
                other => panic!("expected InvalidConfig for {field}, got {other:?}"),
            }
        }
    }

    #[test]
    fn to_builder_roundtrips_and_overrides() {
        let base = WqeConfig {
            budget: 9.0,
            top_k: 4,
            ..Default::default()
        };
        // No overrides: the builder reproduces the config exactly.
        let same = base.to_builder().build().unwrap();
        assert_eq!(same.budget, 9.0);
        assert_eq!(same.top_k, 4);
        // Per-request override keeps the rest of the base.
        let tweaked = base.to_builder().deadline_ms(10.0).build().unwrap();
        assert_eq!(tweaked.budget, 9.0);
        assert_eq!(tweaked.deadline_ms, 10.0);
    }

    #[test]
    fn governor_limits_reach_the_session() {
        use wqe_pool::governor::Termination;
        let pg = product_graph();
        let g = &pg.graph;
        let wq = paper_question(g);
        let session = Session::try_new(
            ctx_for(g),
            &wq,
            WqeConfig {
                max_frontier_states: 2,
                max_match_steps: 10,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(
            session.governor.note_frontier(3),
            Some(Termination::FrontierCap)
        );
        assert_eq!(
            session.governor.charge_steps(11),
            Some(Termination::StepCap)
        );
    }
}
