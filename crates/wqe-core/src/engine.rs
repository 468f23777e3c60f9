//! The `WqeEngine` facade: one object bundling a why-question session with
//! every algorithm of the paper.

use crate::answ::{AnswerReport, RewriteResult};
use crate::ctx::EngineCtx;
use crate::error::WqeError;
use crate::explain::DifferentialTable;
use crate::session::{EvalResult, Session, WhyQuestion, WqeConfig};

/// Which algorithm variant to run — the complete §5–§6 catalogue. Every
/// variant runs through the one driver, [`Session::run`], which governs,
/// profiles and contains it.
///
/// Tunables live in [`crate::session::WqeConfig`], not here: the beam
/// width of `AnsHeu`/`AnsHeuB` comes from
/// [`WqeConfig::beam_width`](crate::session::WqeConfig::beam_width), and
/// the `AnsWnc`/`AnsWb` ablations take effect through
/// `caching`/`pruning` (applied automatically by
/// [`Algorithm::apply_to`]; construct the engine with the matching config,
/// or let [`crate::service::QueryService`] do it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Exact anytime search with caching and pruning.
    AnsW,
    /// `AnsW` without the star-view cache.
    AnsWnc,
    /// `AnsW` without caching *and* without pruning.
    AnsWb,
    /// Beam-search heuristic (width = `WqeConfig::beam_width`).
    AnsHeu,
    /// Beam search with random operator selection, seeded (width =
    /// `WqeConfig::beam_width`).
    AnsHeuB(u64),
    /// Frequent-pattern-mining baseline.
    FMAnsW,
    /// `ApxWhyM` (Why-Many, §6.1): remove surplus irrelevant answers.
    WhyMany,
    /// `AnsWE` (Why-Empty, §6.1): relax an over-constrained query.
    WhyEmpty,
}

impl Algorithm {
    /// A stable lower-case name — the spec/CLI spelling, and the
    /// algorithm's component in the `QueryService` cache key.
    pub fn as_str(&self) -> &'static str {
        match self {
            Algorithm::AnsW => "answ",
            Algorithm::AnsWnc => "answnc",
            Algorithm::AnsWb => "answb",
            Algorithm::AnsHeu => "heu",
            Algorithm::AnsHeuB(_) => "heub",
            Algorithm::FMAnsW => "fm",
            Algorithm::WhyMany => "whymany",
            Algorithm::WhyEmpty => "whyempty",
        }
    }

    /// Parses the spec/CLI spelling produced by [`Algorithm::as_str`].
    /// `heub` accepts an optional `:seed` suffix (e.g. `heub:42`).
    pub fn parse(s: &str) -> Option<Algorithm> {
        match s {
            "answ" => Some(Algorithm::AnsW),
            "answnc" => Some(Algorithm::AnsWnc),
            "answb" => Some(Algorithm::AnsWb),
            "heu" => Some(Algorithm::AnsHeu),
            "heub" => Some(Algorithm::AnsHeuB(0)),
            "fm" => Some(Algorithm::FMAnsW),
            "whymany" => Some(Algorithm::WhyMany),
            "whyempty" => Some(Algorithm::WhyEmpty),
            other => {
                let seed = other.strip_prefix("heub:")?.parse().ok()?;
                Some(Algorithm::AnsHeuB(seed))
            }
        }
    }

    /// Applies this variant's config ablations: `AnsWnc` forces
    /// `caching = false`, `AnsWb` additionally `pruning = false`; every
    /// other variant leaves the config untouched. The `QueryService` runs
    /// this over each request's effective config so the [`Algorithm`] value
    /// alone fully determines the variant.
    pub fn apply_to(&self, mut config: crate::session::WqeConfig) -> crate::session::WqeConfig {
        match self {
            Algorithm::AnsWnc => config.caching = false,
            Algorithm::AnsWb => {
                config.caching = false;
                config.pruning = false;
            }
            _ => {}
        }
        config
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Algorithm::AnsHeuB(seed) => write!(f, "heub:{seed}"),
            other => f.write_str(other.as_str()),
        }
    }
}

/// A why-question engine over one shared context + question.
///
/// The engine is `'static`, `Send`, and `Sync`: clones of one [`EngineCtx`]
/// can drive many engines on many threads over the same graph and index.
/// Each engine also parallelizes *within* a question —
/// [`WqeConfig::parallelism`] workers evaluate the search's batched
/// frontier (see [`crate::answ`](module@crate::answ)) — without affecting answers.
pub struct WqeEngine {
    session: Session,
    question: WhyQuestion,
}

// The whole engine must stay shareable across threads; a non-Sync field
// anywhere in the session/matcher/cache stack breaks this line.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<WqeEngine>();
    assert_send_sync::<Session>();
};

impl WqeEngine {
    /// Builds the engine. The `AnsWnc`/`AnsWb` ablations act through
    /// `config.caching`/`config.pruning` — run the config through
    /// [`Algorithm::apply_to`] before construction (the `QueryService`
    /// does this automatically per request).
    ///
    /// # Panics
    ///
    /// Panics on an invalid question or config; use
    /// [`WqeEngine::try_new`] for untrusted input.
    pub fn new(ctx: EngineCtx, question: WhyQuestion, config: WqeConfig) -> Self {
        WqeEngine::try_new(ctx, question, config).expect("valid why-question and config")
    }

    /// Fallible constructor: validates the question and tunables first.
    /// Session construction (representation build, oracle warm-up) is also
    /// panic-contained: a panic there becomes [`WqeError::WorkerPanicked`],
    /// so a fault injected at build time is a typed, retryable error.
    pub fn try_new(
        ctx: EngineCtx,
        question: WhyQuestion,
        config: WqeConfig,
    ) -> Result<Self, crate::error::WqeError> {
        let session = crate::error::contain(|| Session::try_new(ctx, &question, config))?;
        Ok(WqeEngine { session, question })
    }

    /// The underlying session (representation, `V_uo`, `cl*`, …).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// The epoch this engine answers against (from its context; see
    /// [`crate::live::GraphStore`]).
    pub fn epoch(&self) -> crate::live::EpochId {
        self.session.epoch()
    }

    /// Installs a streaming progress sink on the underlying session: it
    /// receives an [`crate::session::AnswerUpdate`] each time the anytime
    /// search improves its best-so-far answer (see
    /// [`Session::with_progress`]). Only `AnsW` and its ablations emit
    /// updates; every other algorithm emits none, and callers stream the
    /// final report regardless.
    pub fn with_progress(mut self, sink: crate::session::ProgressSink) -> Self {
        self.session = self.session.with_progress(sink);
        self
    }

    /// The why-question.
    pub fn question(&self) -> &WhyQuestion {
        &self.question
    }

    /// Evaluates the *original* query.
    pub fn evaluate_original(&self) -> EvalResult {
        self.session.evaluate(&self.question.query)
    }

    /// Runs `algorithm` on the engine's question and unwraps the result.
    ///
    /// Tunables come from the session's [`WqeConfig`] (beam width
    /// included). Note: `AnsWnc`/`AnsWb` take effect via the session's
    /// `caching`/`pruning` flags, so construct the engine with
    /// [`Algorithm::apply_to`]'s output (the `QueryService` does this for
    /// every request).
    ///
    /// # Panics
    ///
    /// Re-raises a contained panic; use [`WqeEngine::try_run`] when a
    /// failed query must not take the caller down.
    pub fn run(&self, algorithm: Algorithm) -> AnswerReport {
        self.try_run(algorithm).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs `algorithm` through [`Session::run`]: a panic anywhere in the
    /// search is contained and surfaced as [`WqeError::WorkerPanicked`] —
    /// this query fails, the process (and every sibling engine sharing the
    /// same [`EngineCtx`]) keeps running.
    pub fn try_run(&self, algorithm: Algorithm) -> Result<AnswerReport, WqeError> {
        self.session.run(algorithm, &self.question)
    }

    /// Builds the differential-table explanation for a result (§5.4).
    pub fn explain(&self, result: &RewriteResult) -> Option<DifferentialTable> {
        DifferentialTable::build(&self.session, &self.question.query, &result.ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::paper_question;
    use std::sync::Arc;
    use wqe_graph::product::product_graph;

    fn ctx_for(g: &wqe_graph::Graph) -> EngineCtx {
        EngineCtx::with_default_oracle(Arc::new(g.clone()))
    }

    #[test]
    fn engine_end_to_end() {
        let pg = product_graph();
        let g = &pg.graph;
        let engine = WqeEngine::new(
            ctx_for(g),
            paper_question(g),
            WqeConfig {
                budget: 4.0,
                ..Default::default()
            },
        );
        let report = engine.run(Algorithm::AnsW);
        let best = report.best.as_ref().expect("answer");
        assert!((best.closeness - 0.5).abs() < 1e-9);
        let table = engine.explain(best).expect("explainable");
        assert_eq!(table.entries.len(), best.ops.len());
    }

    #[test]
    fn why_variants_through_engine() {
        let pg = product_graph();
        let g = &pg.graph;
        let engine = WqeEngine::new(
            ctx_for(g),
            paper_question(g),
            WqeConfig {
                budget: 3.0,
                ..Default::default()
            },
        );
        // Why-Many removes the irrelevant matches P1, P2 (refinement-only).
        let wm = engine.run(Algorithm::WhyMany).best.unwrap();
        assert!(wm
            .ops
            .iter()
            .all(|o| o.class() == wqe_query::OpClass::Refine));
        // Why-Empty: the original query has a relevant match (P5), so the
        // removal-only repair trivially exists.
        let we = engine.run(Algorithm::WhyEmpty);
        assert!(we.best.is_some());
    }

    #[test]
    fn all_algorithms_dispatch() {
        let pg = product_graph();
        let g = &pg.graph;
        let engine = WqeEngine::new(
            ctx_for(g),
            paper_question(g),
            WqeConfig {
                budget: 4.0,
                ..Default::default()
            },
        );
        for alg in [
            Algorithm::AnsW,
            Algorithm::AnsHeu,
            Algorithm::AnsHeuB(7),
            Algorithm::FMAnsW,
            Algorithm::WhyMany,
            Algorithm::WhyEmpty,
        ] {
            let report = engine.run(alg);
            assert!(report.best.is_some(), "{alg:?} produced no result");
            let fallible = engine.try_run(alg).expect("try_run");
            assert_eq!(fallible.best.is_some(), report.best.is_some());
        }
    }

    #[test]
    fn algorithm_round_trips_and_ablations() {
        for alg in [
            Algorithm::AnsW,
            Algorithm::AnsWnc,
            Algorithm::AnsWb,
            Algorithm::AnsHeu,
            Algorithm::AnsHeuB(42),
            Algorithm::FMAnsW,
            Algorithm::WhyMany,
            Algorithm::WhyEmpty,
        ] {
            assert_eq!(Algorithm::parse(&alg.to_string()), Some(alg), "{alg:?}");
        }
        assert_eq!(Algorithm::parse("nope"), None);
        let cfg = Algorithm::AnsWnc.apply_to(WqeConfig::default());
        assert!(!cfg.caching && cfg.pruning);
        let cfg = Algorithm::AnsWb.apply_to(WqeConfig::default());
        assert!(!cfg.caching && !cfg.pruning);
    }
}
