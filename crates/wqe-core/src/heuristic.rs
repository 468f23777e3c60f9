//! `AnsHeu` (§5.5): Q-Chase with breadth-first *beam* search — a faster,
//! tunable anytime variant of `AnsW` that never backtracks. `Beam` is its
//! frontier policy for the round loop in [`crate::chase`], which it shares
//! with `AnsW`: the same stop ladder, answer record and progress stream,
//! with one tracked answer instead of `top_k`.
//!
//! At each level the frontier holds at most `k` query rewrites; each rewrite
//! proposes at most `k` picky operators *per operator class* (≤ 8k total);
//! the children are merged in gather order and the global top-`k` by cl⁺
//! survive. `AnsHeuB` replaces picky scores with pseudo-random ones (the
//! Exp-3 ablation isolating the value of picky generation).

use crate::chase::{Chase, Frontier, Rewrite};
use crate::opsgen::{next_ops, ScoredOp};
use crate::session::{EvalResult, Session};
use wqe_query::AtomicOp;

/// A tiny deterministic xorshift generator — enough to randomize operator
/// order without pulling a dependency into the core crate.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed.max(1))
    }
    fn next_f64(&mut self) -> f64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        (x >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The class bucket an operator falls into (Table 1's eight classes).
fn class_bucket(op: &AtomicOp) -> usize {
    match op {
        AtomicOp::RmL { .. } => 0,
        AtomicOp::RmE { .. } => 1,
        AtomicOp::RxL { .. } => 2,
        AtomicOp::RxE { .. } => 3,
        AtomicOp::AddL { .. } => 4,
        AtomicOp::AddE { .. } | AtomicOp::AddNodeEdge { .. } => 5,
        AtomicOp::RfL { .. } => 6,
        AtomicOp::RfE { .. } => 7,
    }
}

/// Keeps at most `k` operators per class, preserving order.
fn cap_per_class(ops: Vec<ScoredOp>, k: usize) -> Vec<ScoredOp> {
    let mut counts = [0usize; 8];
    ops.into_iter()
        .filter(|s| {
            let b = class_bucket(&s.op);
            counts[b] += 1;
            counts[b] <= k
        })
        .collect()
}

/// `AnsHeu`'s frontier: the kept children of the last level, cut to the
/// beam width `k` when the next level is gathered.
pub(crate) struct Beam {
    next: Vec<(Rewrite, EvalResult)>,
    k: usize,
    rng: Option<XorShift>,
}

impl Beam {
    /// A beam of [`WqeConfig::beam_width`](crate::session::WqeConfig::beam_width)
    /// over picky operators, or over pseudo-random ones seeded by `seed`
    /// (`AnsHeuB`).
    pub(crate) fn new(session: &Session, seed: Option<u64>) -> Self {
        Beam {
            next: Vec::new(),
            k: session.config.beam_width.max(1),
            rng: seed.map(XorShift::new),
        }
    }
}

impl Frontier for Beam {
    /// The beam tracks one answer.
    fn top_k(&self) -> usize {
        1
    }

    /// One level: the global top-`k` kept children, ranked by the
    /// optimistic bound cl⁺ first, closeness second, cost third. Ranking by
    /// raw closeness alone (the paper's phrasing) dead-ends under the normal
    /// form: a cheap refinement that shrinks the answer to the few current
    /// RM nodes scores above every relax-phase child, yet can never relax
    /// again. cl⁺ is exactly the closeness such a state can still reach by
    /// refining (Lemma 5.5(2)), so it is the sound beam objective. Each
    /// state proposes at most `k` operators per class, generated against
    /// the threshold frozen at the level start, so the level is a pure
    /// function of the frontier.
    fn gather(&mut self, chase: &mut Chase<'_>, room: usize, threshold: f64) -> Vec<Rewrite> {
        let session = chase.session();
        let mut level = std::mem::take(&mut self.next);
        level.sort_by(|(a, ea), (b, eb)| {
            eb.upper_bound
                .total_cmp(&ea.upper_bound)
                .then(eb.closeness.total_cmp(&ea.closeness))
                .then(a.cost.total_cmp(&b.cost))
        });
        level.truncate(self.k);
        let mut batch = Vec::new();
        for (state, eval) in &level {
            let mut ops = next_ops(session, &state.query, eval, state.phase, threshold);
            if let Some(rng) = self.rng.as_mut() {
                // AnsHeuB: shuffle by random scores.
                let mut scored: Vec<(f64, ScoredOp)> =
                    ops.into_iter().map(|o| (rng.next_f64(), o)).collect();
                scored.sort_by(|a, b| b.0.total_cmp(&a.0));
                ops = scored.into_iter().map(|(_, o)| o).collect();
            }
            for sop in cap_per_class(ops, self.k) {
                if let Some(child) = chase.child(state, &sop.op) {
                    batch.push(child);
                    if batch.len() == room {
                        return batch;
                    }
                }
            }
        }
        batch
    }

    /// Gather order.
    fn order(&self, _: &[Rewrite], evals: &[Option<EvalResult>]) -> Vec<usize> {
        (0..evals.len()).filter(|&i| evals[i].is_some()).collect()
    }

    /// Every child joins the next level. Every gathered signature stays in
    /// the visited set for the rest of the search, so its size is the
    /// retained-state count the governor caps.
    fn keep(
        &mut self,
        chase: &Chase<'_>,
        rewrite: Rewrite,
        eval: EvalResult,
        _: f64,
    ) -> Option<usize> {
        self.next.push((rewrite, eval));
        Some(chase.visited())
    }
}

#[cfg(test)]
mod tests {
    use crate::answ::AnswerReport;
    use crate::engine::Algorithm;
    use crate::paper::paper_question;
    use crate::session::{Session, WqeConfig};
    use wqe_graph::product::product_graph;

    fn run(beam: usize, algorithm: Algorithm) -> AnswerReport {
        let pg = product_graph();
        let g = &pg.graph;
        let ctx = crate::ctx::EngineCtx::with_default_oracle(std::sync::Arc::new(g.clone()));
        let wq = paper_question(g);
        let session = Session::new(
            ctx.clone(),
            &wq,
            WqeConfig {
                budget: 4.0,
                beam_width: beam,
                ..WqeConfig::default()
            },
        );
        session.run(algorithm, &wq).unwrap()
    }

    #[test]
    fn beam_finds_good_rewrite() {
        let report = run(3, Algorithm::AnsHeu);
        let best = report.best.expect("found");
        assert!(best.satisfies, "beam should find a satisfying rewrite");
        assert!(best.closeness >= 0.5 - 1e-9, "cl = {}", best.closeness);
    }

    #[test]
    fn wider_beam_no_worse() {
        let narrow = run(1, Algorithm::AnsHeu);
        let wide = run(5, Algorithm::AnsHeu);
        let cl = |r: &AnswerReport| r.best.as_ref().map(|b| b.closeness).unwrap_or(-1.0);
        assert!(cl(&wide) >= cl(&narrow) - 1e-9);
    }

    #[test]
    fn random_selection_is_deterministic_per_seed() {
        let a = run(2, Algorithm::AnsHeuB(42));
        let b = run(2, Algorithm::AnsHeuB(42));
        let cl = |r: &AnswerReport| r.best.as_ref().map(|x| x.closeness);
        assert_eq!(cl(&a), cl(&b));
    }

    #[test]
    fn narrower_beam_explores_less() {
        let narrow = run(1, Algorithm::AnsHeu);
        let wide = run(5, Algorithm::AnsHeu);
        assert!(narrow.expansions <= wide.expansions);
        // A beam of width k simulates at most 8k chase steps per level and
        // at most B levels (every operator costs >= 1), plus the root.
        let k = 1;
        let b = 4;
        assert!(narrow.expansions <= 1 + 8 * k * (b + 1) * (b + 1));
    }

    #[test]
    fn respects_budget() {
        let report = run(3, Algorithm::AnsHeu);
        if let Some(b) = report.best {
            assert!(b.cost <= 4.0 + 1e-9);
        }
    }
}
