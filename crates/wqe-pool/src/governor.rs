//! The query governor: a shared handle that lets a search be bounded by a
//! wall-clock deadline, cancelled from another thread, and capped in the
//! number of match steps it simulates or frontier states it retains.
//!
//! The governor lives in `wqe-pool` — the bottom of the crate graph — so
//! that every layer above (the distance oracles in `wqe-index`, the star
//! matcher in `wqe-query`, the search algorithms in `wqe-core`) can consult
//! one handle without a dependency cycle. `wqe_core::governor` re-exports
//! the types and adds the `WqeConfig` glue.
//!
//! ## Cooperative checking
//!
//! Nothing is preempted. Each expansion point polls the governor at a
//! natural boundary (batch gather, level gather, candidate fan-out, chase
//! step, between pool items) and stops expanding when a limit trips,
//! returning the best answer found so far tagged with a [`Termination`]
//! reason — the *anytime* contract of the paper's §5.1 made operational.
//!
//! ## Determinism
//!
//! Step and frontier counters are only charged from *serial* merge code in
//! the search loops (never from racing worker threads), so cap-induced
//! terminations are bit-for-bit reproducible at any `parallelism`. Only the
//! inherently wall-clock signals — cancellation and the deadline — are
//! polled inside workers and the oracle, where they can truncate work
//! mid-flight; by then the run is ending and its report is already tagged
//! partial.
//!
//! ## Thread-local propagation
//!
//! Layers below `wqe-core` (matcher, BFS oracle) are shared between
//! sessions through an `EngineCtx`, so they cannot hold a per-session
//! governor field. Instead the running search [`enter`]s its governor into
//! a thread-local stack; [`current`] retrieves it. `WorkerPool` propagates
//! the caller's current governor into its worker threads, so the scope
//! survives the fan-out.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a search stopped. `Complete` is the only non-partial reason; every
/// other variant means the report holds best-so-far answers.
///
/// Marked `#[non_exhaustive]`: downstream matches keep a catch-all arm
/// (or go through [`Termination::as_str`] / [`Termination::is_partial`])
/// so new stop reasons never break them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum Termination {
    /// The search ran to its natural end (frontier exhausted or the
    /// theoretical optimum reached).
    #[default]
    Complete,
    /// The wall-clock deadline fired.
    Deadline,
    /// [`Governor::cancel`] was called (typically from another thread).
    Cancelled,
    /// The frontier/star-table memory budget was exceeded.
    FrontierCap,
    /// The match-step budget was exceeded.
    StepCap,
}

impl Termination {
    /// A stable lower-case name (used in metrics and JSON reports).
    pub fn as_str(&self) -> &'static str {
        match self {
            Termination::Complete => "complete",
            Termination::Deadline => "deadline",
            Termination::Cancelled => "cancelled",
            Termination::FrontierCap => "frontier_cap",
            Termination::StepCap => "step_cap",
        }
    }

    /// True for every reason except [`Termination::Complete`]: the report's
    /// answers are best-so-far, not exhaustive.
    pub fn is_partial(&self) -> bool {
        !matches!(self, Termination::Complete)
    }
}

impl std::fmt::Display for Termination {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A shared, thread-safe query-governor handle.
///
/// One governor belongs to one running query (a `Session` in `wqe-core`);
/// clones of the `Arc` can be held by other threads to [`cancel`](Governor::cancel)
/// it. All limits use `0` / `None` to mean *unlimited*.
#[derive(Debug)]
pub struct Governor {
    deadline: Option<Instant>,
    cancelled: AtomicBool,
    step_cap: u64,
    steps: AtomicU64,
    frontier_cap: usize,
    frontier_peak: AtomicUsize,
    oracle_steps: AtomicU64,
}

impl Governor {
    /// Creates a governor. The deadline (when `Some`) is armed immediately,
    /// relative to now; `step_cap` / `frontier_cap` of `0` mean unlimited.
    pub fn new(deadline: Option<Duration>, step_cap: u64, frontier_cap: usize) -> Self {
        Governor {
            deadline: deadline.map(|d| Instant::now() + d),
            cancelled: AtomicBool::new(false),
            step_cap,
            steps: AtomicU64::new(0),
            frontier_cap,
            frontier_peak: AtomicUsize::new(0),
            oracle_steps: AtomicU64::new(0),
        }
    }

    /// A governor with no limits. Checks still run (cancellation works),
    /// but nothing trips on its own. This is the default for every session.
    pub fn unlimited() -> Self {
        Governor::new(None, 0, 0)
    }

    /// Requests cooperative cancellation. Safe to call from any thread, any
    /// number of times; the running search observes it at its next check.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether [`Governor::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// The cheap wall-clock check: cancellation first, then the deadline.
    /// This is the only check worker threads and the distance oracle poll —
    /// both signals are inherently non-deterministic, so observing them
    /// mid-batch never perturbs a deterministic (cap-only) run.
    pub fn halt(&self) -> Option<Termination> {
        if self.is_cancelled() {
            return Some(Termination::Cancelled);
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Some(Termination::Deadline);
            }
        }
        None
    }

    /// The full check polled at serial loop heads: wall-clock signals plus
    /// the step cap (already-charged steps may have exceeded it).
    pub fn check(&self) -> Option<Termination> {
        let halt = self.halt();
        if halt.is_some() {
            return halt;
        }
        if self.step_cap > 0 && self.steps.load(Ordering::Relaxed) > self.step_cap {
            return Some(Termination::StepCap);
        }
        None
    }

    /// Charges `n` match steps against the step budget, returning
    /// `Some(StepCap)` once the counter exceeds the cap. Call this from
    /// *serial* merge code only — the counter must be parallelism-invariant
    /// for cap trips to be deterministic.
    pub fn charge_steps(&self, n: u64) -> Option<Termination> {
        let total = self.steps.fetch_add(n, Ordering::Relaxed) + n;
        if self.step_cap > 0 && total > self.step_cap {
            return Some(Termination::StepCap);
        }
        None
    }

    /// Records the current frontier size (retained search states), returning
    /// `Some(FrontierCap)` once it exceeds the cap. Also tracks the peak for
    /// telemetry. Serial-merge-only, like [`Governor::charge_steps`].
    pub fn note_frontier(&self, len: usize) -> Option<Termination> {
        self.frontier_peak.fetch_max(len, Ordering::Relaxed);
        if self.frontier_cap > 0 && len > self.frontier_cap {
            return Some(Termination::FrontierCap);
        }
        None
    }

    /// True once the step budget has no room left (`steps >= cap`). The BFS
    /// oracle uses this to refuse starting more traversal work; unlike
    /// [`Governor::charge_steps`] it never mutates, so it is safe anywhere.
    pub fn step_budget_exhausted(&self) -> bool {
        self.step_cap > 0 && self.steps.load(Ordering::Relaxed) >= self.step_cap
    }

    /// Adds to the oracle-work counter (BFS node pops). Observability only:
    /// oracle work is charged from racing threads and never trips a cap.
    pub fn charge_oracle_steps(&self, n: u64) {
        self.oracle_steps.fetch_add(n, Ordering::Relaxed);
    }

    /// Match steps charged so far.
    pub fn steps(&self) -> u64 {
        self.steps.load(Ordering::Relaxed)
    }

    /// Largest frontier observed so far.
    pub fn frontier_peak(&self) -> usize {
        self.frontier_peak.load(Ordering::Relaxed)
    }

    /// Oracle work (BFS node pops) observed so far.
    pub fn oracle_steps(&self) -> u64 {
        self.oracle_steps.load(Ordering::Relaxed)
    }
}

thread_local! {
    static CURRENT: RefCell<Vec<Arc<Governor>>> = const { RefCell::new(Vec::new()) };
}

/// A scope guard returned by [`enter`]; dropping it pops the governor off
/// the thread-local stack (panic-safe: unwinding drops it too).
#[must_use = "the governor is active only while the scope guard lives"]
pub struct GovernorScope {
    _private: (),
}

impl Drop for GovernorScope {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

/// Pushes `gov` as the calling thread's current governor until the returned
/// guard is dropped. Scopes nest; the innermost wins.
pub fn enter(gov: Arc<Governor>) -> GovernorScope {
    CURRENT.with(|c| c.borrow_mut().push(gov));
    GovernorScope { _private: () }
}

/// The calling thread's innermost active governor, if any. Shared layers
/// (the matcher, the BFS oracle) use this to find the governor of whichever
/// session is driving them on this thread.
pub fn current() -> Option<Arc<Governor>> {
    CURRENT.with(|c| c.borrow().last().cloned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let g = Governor::unlimited();
        assert_eq!(g.halt(), None);
        assert_eq!(g.check(), None);
        assert_eq!(g.charge_steps(1_000_000), None);
        assert_eq!(g.note_frontier(1_000_000), None);
        assert!(!g.step_budget_exhausted());
        assert_eq!(g.steps(), 1_000_000);
        assert_eq!(g.frontier_peak(), 1_000_000);
    }

    #[test]
    fn cancel_is_observed() {
        let g = Arc::new(Governor::unlimited());
        assert_eq!(g.halt(), None);
        let h = Arc::clone(&g);
        std::thread::spawn(move || h.cancel()).join().unwrap();
        assert_eq!(g.halt(), Some(Termination::Cancelled));
        assert_eq!(g.check(), Some(Termination::Cancelled));
    }

    #[test]
    fn deadline_fires() {
        let g = Governor::new(Some(Duration::from_millis(1)), 0, 0);
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(g.halt(), Some(Termination::Deadline));
    }

    #[test]
    fn step_cap_trips_on_excess() {
        let g = Governor::new(None, 10, 0);
        assert_eq!(g.charge_steps(10), None, "exactly the cap is allowed");
        assert!(g.step_budget_exhausted());
        assert_eq!(g.check(), None, "not yet over");
        assert_eq!(g.charge_steps(1), Some(Termination::StepCap));
        assert_eq!(g.check(), Some(Termination::StepCap));
    }

    #[test]
    fn frontier_cap_trips_on_excess() {
        let g = Governor::new(None, 0, 4);
        assert_eq!(g.note_frontier(4), None);
        assert_eq!(g.note_frontier(5), Some(Termination::FrontierCap));
        assert_eq!(g.frontier_peak(), 5);
        // A later smaller frontier does not trip, and the peak is sticky.
        assert_eq!(g.note_frontier(2), None);
        assert_eq!(g.frontier_peak(), 5);
    }

    #[test]
    fn tls_scopes_nest_and_pop() {
        assert!(current().is_none());
        let outer = Arc::new(Governor::unlimited());
        let inner = Arc::new(Governor::new(None, 7, 0));
        let s1 = enter(Arc::clone(&outer));
        assert!(Arc::ptr_eq(&current().unwrap(), &outer));
        {
            let _s2 = enter(Arc::clone(&inner));
            assert!(Arc::ptr_eq(&current().unwrap(), &inner));
        }
        assert!(Arc::ptr_eq(&current().unwrap(), &outer));
        drop(s1);
        assert!(current().is_none());
    }

    #[test]
    fn tls_scope_pops_on_panic() {
        let gov = Arc::new(Governor::unlimited());
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _s = enter(Arc::clone(&gov));
            panic!("boom");
        }));
        assert!(res.is_err());
        assert!(current().is_none(), "unwinding must pop the scope");
    }

    #[test]
    fn termination_display_names() {
        for (t, s) in [
            (Termination::Complete, "complete"),
            (Termination::Deadline, "deadline"),
            (Termination::Cancelled, "cancelled"),
            (Termination::FrontierCap, "frontier_cap"),
            (Termination::StepCap, "step_cap"),
        ] {
            assert_eq!(t.to_string(), s);
            assert_eq!(t.is_partial(), t != Termination::Complete);
        }
        assert_eq!(Termination::default(), Termination::Complete);
    }
}
