//! Recovery for distance oracles: [`ResilientOracle`] consults the scoped
//! [`wqe_pool::fault::FaultPlan`] (the `oracle` site) and runs the
//! degradation ladder — bounded retry with backoff, then a sticky
//! per-oracle circuit breaker that pins an exact fallback oracle.

use crate::oracle::DistanceOracle;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;
use wqe_graph::NodeId;
use wqe_pool::fault::{self, CircuitBreaker, FaultSite};
use wqe_pool::obs;

/// The degradation ladder for distance oracles: primary → bounded retry
/// (with backoff) → exact fallback, with a sticky circuit breaker that
/// pins the fallback once faults repeat.
///
/// The wrapper consults the calling thread's
/// [`FaultPlan`](wqe_pool::fault::FaultPlan) at the
/// [`FaultSite::Oracle`] site: a fired fault makes the primary call
/// "fail", and a *real* panic inside the primary is caught and treated the
/// same way. Failed calls are retried up to
/// `max_retries` times with linear backoff, counting
/// [`Counter::Retry`](obs::Counter::Retry); when retries exhaust, the call
/// is served by the fallback and the breaker records a failure. Enough
/// consecutive failures trip the breaker open — sticky — pinning every
/// later call to the fallback (counted once as
/// [`Counter::DegradedServe`](obs::Counter::DegradedServe) at the trip).
///
/// **Never-wrong invariant:** the constructor requires a fallback that
/// answers *identically* to the primary at every bound the caller will
/// use (e.g. an unbounded [`BoundedBfsOracle`](crate::BoundedBfsOracle)
/// behind a PLL index — both exact). Degradation then changes latency,
/// never answers.
///
/// With no plan in scope and the breaker closed, a call is one relaxed
/// load, one thread-local borrow and the primary call under a
/// `catch_unwind` that costs nothing unless it unwinds — bit-identical
/// answers, measured against the <3% overhead gate by `bench_faults`.
pub struct ResilientOracle {
    primary: Arc<dyn DistanceOracle>,
    fallback: Arc<dyn DistanceOracle>,
    breaker: CircuitBreaker,
    max_retries: u32,
    backoff: Duration,
}

impl ResilientOracle {
    /// Wraps `primary` with `fallback` as the degraded-but-exact path.
    /// Defaults: 2 retries, 20µs linear backoff, breaker trips after 3
    /// consecutive exhausted calls.
    pub fn new(primary: Arc<dyn DistanceOracle>, fallback: Arc<dyn DistanceOracle>) -> Self {
        ResilientOracle {
            primary,
            fallback,
            breaker: CircuitBreaker::new(3),
            max_retries: 2,
            backoff: Duration::from_micros(20),
        }
    }

    /// Overrides the retry bound (0 = fail straight to the fallback).
    pub fn with_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Overrides the per-attempt backoff base (linear: attempt `k` sleeps
    /// `k * backoff`).
    pub fn with_backoff(mut self, backoff: Duration) -> Self {
        self.backoff = backoff;
        self
    }

    /// Overrides the breaker's consecutive-failure threshold.
    pub fn with_breaker_threshold(mut self, threshold: u32) -> Self {
        self.breaker = CircuitBreaker::new(threshold);
        self
    }

    /// Whether the breaker has tripped (every call now served by the
    /// fallback).
    pub fn fallback_pinned(&self) -> bool {
        self.breaker.is_open()
    }

    fn call<R>(&self, op: &dyn Fn(&dyn DistanceOracle) -> R) -> R {
        if self.breaker.is_open() {
            return op(&*self.fallback);
        }
        let mut attempt: u32 = 0;
        loop {
            if fault::fire(FaultSite::Oracle).is_none() {
                if let Ok(r) = catch_unwind(AssertUnwindSafe(|| op(&*self.primary))) {
                    self.breaker.record_success();
                    return r;
                }
            }
            if attempt >= self.max_retries {
                if self.breaker.record_failure() {
                    obs::with_current(|p| p.add(obs::Counter::DegradedServe, 1));
                }
                return op(&*self.fallback);
            }
            attempt += 1;
            obs::with_current(|p| p.add(obs::Counter::Retry, 1));
            if !self.backoff.is_zero() {
                std::thread::sleep(self.backoff * attempt);
            }
        }
    }
}

impl DistanceOracle for ResilientOracle {
    fn distance_within(&self, u: NodeId, v: NodeId, bound: u32) -> Option<u32> {
        self.call(&|o| o.distance_within(u, v, bound))
    }

    fn dist_batch(&self, pairs: &[(NodeId, NodeId)], bound: u32) -> Vec<Option<u32>> {
        self.call(&|o| o.dist_batch(pairs, bound))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BoundedBfsOracle;
    use wqe_graph::GraphBuilder;
    use wqe_pool::fault::FaultPlan;

    fn line_oracle(n: usize) -> Arc<dyn DistanceOracle> {
        let mut b = GraphBuilder::new();
        let ids: Vec<_> = (0..n).map(|_| b.add_node("N", [])).collect();
        for w in ids.windows(2) {
            b.add_edge(w[0], w[1], "e");
        }
        Arc::new(BoundedBfsOracle::new(Arc::new(b.finalize()), u32::MAX))
    }

    /// A primary that always panics, like a crashed verifier thread.
    struct Panicking;

    impl DistanceOracle for Panicking {
        fn distance_within(&self, _: NodeId, _: NodeId, _: u32) -> Option<u32> {
            panic!("primary oracle crashed")
        }
    }

    fn resilient_line(n: usize) -> ResilientOracle {
        ResilientOracle::new(line_oracle(n), line_oracle(n)).with_backoff(Duration::ZERO)
    }

    #[test]
    fn resilient_passthrough_without_plan_is_bit_identical() {
        let plain = line_oracle(8);
        let r = resilient_line(8);
        for i in 0..8u32 {
            for j in 0..8u32 {
                assert_eq!(
                    r.distance_within(NodeId(i), NodeId(j), 9),
                    plain.distance_within(NodeId(i), NodeId(j), 9)
                );
            }
        }
        let pairs: Vec<(NodeId, NodeId)> = (0..8).map(|i| (NodeId(0), NodeId(i))).collect();
        assert_eq!(r.dist_batch(&pairs, 9), plain.dist_batch(&pairs, 9));
        assert!(!r.fallback_pinned());
    }

    #[test]
    fn resilient_transient_fault_retries_then_succeeds() {
        // One fault, then the schedule is spent: the first attempt fails,
        // the retry hits the primary and succeeds. Breaker stays closed.
        let plan = Arc::new(
            FaultPlan::new(7)
                .arm(FaultSite::Oracle, 1)
                .with_budget(FaultSite::Oracle, 1),
        );
        let r = resilient_line(6);
        let _fault = fault::enter(Arc::clone(&plan));
        assert_eq!(r.distance_within(NodeId(0), NodeId(4), 9), Some(4));
        assert_eq!(plan.fired(FaultSite::Oracle), 1);
        assert!(!r.fallback_pinned());
    }

    #[test]
    fn resilient_exhausted_retries_serve_exact_fallback_and_trip_breaker() {
        // Every attempt faults: each call burns its retries, serves from
        // the fallback (same answers), and after `threshold` such calls
        // the breaker pins the fallback permanently.
        let plan = Arc::new(FaultPlan::new(3).arm(FaultSite::Oracle, 1));
        let plain = line_oracle(6);
        let r = resilient_line(6).with_breaker_threshold(2);
        {
            let _fault = fault::enter(Arc::clone(&plan));
            for _ in 0..3 {
                assert_eq!(
                    r.distance_within(NodeId(0), NodeId(5), 9),
                    plain.distance_within(NodeId(0), NodeId(5), 9)
                );
            }
            assert!(r.fallback_pinned());
        }
        // Plan gone, breaker still open: calls stay on the exact fallback.
        assert!(r.fallback_pinned());
        assert_eq!(r.distance_within(NodeId(1), NodeId(3), 9), Some(2));
    }

    #[test]
    fn resilient_serves_real_primary_panics_from_the_fallback() {
        // No plan anywhere: a panicking primary is still caught and every
        // call, pointwise or batched, is answered exactly by the fallback.
        let plain = line_oracle(5);
        let r = ResilientOracle::new(Arc::new(Panicking), line_oracle(5))
            .with_backoff(Duration::ZERO)
            .with_retries(1);
        assert!(fault::current().is_none());
        assert_eq!(r.distance_within(NodeId(0), NodeId(3), 9), Some(3));
        let pairs: Vec<(NodeId, NodeId)> = (0..5).map(|i| (NodeId(0), NodeId(i))).collect();
        assert_eq!(r.dist_batch(&pairs, 9), plain.dist_batch(&pairs, 9));
        for _ in 0..3 {
            assert_eq!(r.distance_within(NodeId(1), NodeId(4), 9), Some(3));
        }
        assert!(r.fallback_pinned(), "repeated crashes trip the breaker");
    }

    #[test]
    fn resilient_counts_retries_and_degraded_serves() {
        let plan = Arc::new(FaultPlan::new(5).arm(FaultSite::Oracle, 1));
        let r = resilient_line(4).with_retries(1).with_breaker_threshold(1);
        let profiler = Arc::new(obs::Profiler::new());
        let _fault = fault::enter(plan);
        {
            let _scope = obs::enter(Arc::clone(&profiler));
            assert_eq!(r.distance_within(NodeId(0), NodeId(2), 9), Some(2));
        }
        let snap = profiler.snapshot();
        assert_eq!(snap.counter(obs::Counter::Retry), 1);
        assert_eq!(snap.counter(obs::Counter::DegradedServe), 1);
        assert!(snap.counter(obs::Counter::FaultInjected) >= 2);
    }
}
