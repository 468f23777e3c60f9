//! Stack-wide, seed-driven fault injection.
//!
//! A [`FaultPlan`] is a deterministic schedule of infrastructure faults —
//! which *call numbers* at which [`FaultSite`]s misbehave — derived from a
//! single seed by the same splitmix64 construction the data generator
//! uses. Like the [`governor`](crate::governor) and the
//! [`profiler`](crate::obs), the plan lives in `wqe-pool` (the bottom of
//! the crate graph) so every layer above — the snapshot store, the
//! distance oracles, the matcher caches, the serving queue — can consult
//! it without a dependency cycle.
//!
//! ## Scope
//!
//! A plan is active only inside a request [`Scope`](crate::scope::Scope)
//! that names it, and travels with that scope across every thread hop:
//! `WorkerPool` workers, `QueryService` workers and the HTTP server's
//! threads all run under the scope that was current where they were
//! started. Code running outside any scope — a concurrent test that armed
//! nothing, say — never sees a fault.
//!
//! ## Determinism under parallelism
//!
//! Each site keeps an atomic call counter; call `n` faults iff
//! `splitmix64(seed ^ site_salt ^ n) % period == 0` (subject to the site's
//! remaining fault budget). Which *thread* draws which call number varies
//! run to run, but the **set** of faulting call numbers is a pure function
//! of `(seed, site, period)` — so chaos tests assert outcome invariants
//! (never a silently wrong answer) rather than schedule replicas, exactly
//! like the governor's deterministic caps.
//!
//! ## Hot-path cost
//!
//! Injection sites call the free function [`fire`]. With no plan in scope
//! that is one thread-local borrow and a branch. With a plan in scope but
//! the site unarmed, it is one more branch.
//!
//! ## Never-wrong contract
//!
//! Faults injected here are *infrastructure* faults: panics, spurious
//! rejections, forced cache misses, short reads, bit flips. Every site is
//! placed so the outcome is either recovered exactly (retry, fallback
//! oracle, recompute), surfaced as a typed error, or caught by a checksum
//! — never a silently wrong answer. No site is allowed to alter answer
//! *values* in flight.

use crate::obs;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

/// Where a fault can be injected. Each site has its own call counter,
/// period, and budget inside a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// `wqe-store` `MappedFile::open`: a fired fault suppresses the mmap
    /// attempt, forcing the owned read-buffer fallback path.
    StoreMmap = 0,
    /// `wqe-store` owned-buffer reads: a fired fault corrupts the bytes
    /// just read (bit flip or short read), which the per-section checksums
    /// must then catch (typed error or section quarantine — never a
    /// silently wrong payload).
    StoreRead = 1,
    /// Distance-oracle calls of `Oracle` (`wqe-index`): a fired fault makes
    /// the call to the oracle's tier fail, exercising the retry →
    /// circuit-breaker → exact-fallback ladder.
    Oracle = 2,
    /// `WorkerPool` items: a fired fault panics inside the pool's per-item
    /// `catch_unwind`, surfacing as `PoolError::Panicked` → a typed
    /// `WqeError::WorkerPanicked`.
    PoolWorker = 3,
    /// `JobQueue::push`: a fired fault rejects the push as if the queue
    /// were full (typed admission-control rejection).
    Queue = 4,
    /// The `QueryService` answer cache: a fired fault forces a lookup
    /// miss, so the answer is recomputed (identical by determinism).
    AnswerCache = 5,
    /// The matcher's sharded star cache: a fired fault forces a lookup
    /// miss, so the star view is rematerialized (identical by
    /// determinism).
    StarCache = 6,
    /// An `wqe-serve` HTTP connection: a fired fault drops the connection
    /// mid-exchange (before the response, or mid-stream for SSE),
    /// exercising the client-disconnect path — the server must shed the
    /// connection without panicking a worker or wedging the accept loop.
    HttpConn = 7,
}

impl FaultSite {
    /// Every site, in declaration order.
    pub const ALL: [FaultSite; 8] = [
        FaultSite::StoreMmap,
        FaultSite::StoreRead,
        FaultSite::Oracle,
        FaultSite::PoolWorker,
        FaultSite::Queue,
        FaultSite::AnswerCache,
        FaultSite::StarCache,
        FaultSite::HttpConn,
    ];

    /// A stable snake_case name (used by `WQE_FAULT_SITES`).
    pub fn as_str(&self) -> &'static str {
        match self {
            FaultSite::StoreMmap => "store_mmap",
            FaultSite::StoreRead => "store_read",
            FaultSite::Oracle => "oracle",
            FaultSite::PoolWorker => "pool_worker",
            FaultSite::Queue => "queue",
            FaultSite::AnswerCache => "answer_cache",
            FaultSite::StarCache => "star_cache",
            FaultSite::HttpConn => "http_conn",
        }
    }

    /// Parses a site name as written by [`as_str`](FaultSite::as_str).
    pub fn parse(s: &str) -> Option<FaultSite> {
        FaultSite::ALL.iter().copied().find(|v| v.as_str() == s)
    }
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The splitmix64 mixing function: every fault schedule and the streaming
/// data generator's per-block RNG seeds share this one construction.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Per-site schedule state inside a [`FaultPlan`].
#[derive(Debug)]
struct SiteState {
    /// Fire roughly one call in `period` (schedule-hash modulus).
    period: u64,
    /// Remaining fault budget; negative once exhausted. `i64::MAX` means
    /// unlimited.
    remaining: AtomicI64,
    /// Calls consulted at this site.
    calls: AtomicU64,
    /// Faults actually fired at this site.
    fired: AtomicU64,
}

/// A deterministic, seed-driven schedule of faults across the stack's
/// injection sites. Immutable once built; all mutation is relaxed atomics,
/// so a plan is freely shared across worker threads.
///
/// Build one with [`FaultPlan::new`] + [`arm`](FaultPlan::arm) (or
/// [`all_sites`](FaultPlan::all_sites) / [`from_env`](FaultPlan::from_env))
/// and activate it on a thread by entering it in a
/// [`Scope`](crate::scope::Scope).
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    sites: [Option<SiteState>; FaultSite::ALL.len()],
}

impl FaultPlan {
    /// An empty plan (no site armed) over `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            sites: Default::default(),
        }
    }

    /// A plan with every site armed at the same `period`.
    pub fn all_sites(seed: u64, period: u64) -> Self {
        let mut plan = FaultPlan::new(seed);
        for site in FaultSite::ALL {
            plan = plan.arm(site, period);
        }
        plan
    }

    /// Arms `site`: roughly one call in `period` fires (period 1 = every
    /// call, subject to budget). A period of 0 is treated as 1.
    pub fn arm(mut self, site: FaultSite, period: u64) -> Self {
        self.sites[site as usize] = Some(SiteState {
            period: period.max(1),
            remaining: AtomicI64::new(i64::MAX),
            calls: AtomicU64::new(0),
            fired: AtomicU64::new(0),
        });
        self
    }

    /// Caps the number of faults `site` may fire (it must already be
    /// armed). After `limit` faults the site goes quiet.
    pub fn with_budget(self, site: FaultSite, limit: u64) -> Self {
        if let Some(s) = &self.sites[site as usize] {
            s.remaining
                .store(limit.min(i64::MAX as u64) as i64, Ordering::Relaxed);
        }
        self
    }

    /// Builds a plan from the environment: `WQE_FAULT_SEED` (required —
    /// returns `None` when absent or unparsable) selects the schedule,
    /// `WQE_FAULT_PERIOD` (default 16) the firing rate, and
    /// `WQE_FAULT_SITES` (comma-separated [`FaultSite`] names, default
    /// all) the armed sites. The CLI enters this for its whole run, which is
    /// the chaos quick-start path in the README.
    pub fn from_env() -> Option<FaultPlan> {
        let seed: u64 = std::env::var("WQE_FAULT_SEED").ok()?.trim().parse().ok()?;
        let period: u64 = std::env::var("WQE_FAULT_PERIOD")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(16);
        let mut plan = FaultPlan::new(seed);
        match std::env::var("WQE_FAULT_SITES") {
            Ok(sites) => {
                for name in sites.split(',') {
                    if let Some(site) = FaultSite::parse(name.trim()) {
                        plan = plan.arm(site, period);
                    }
                }
            }
            Err(_) => plan = FaultPlan::all_sites(seed, period),
        }
        Some(plan)
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Consults the schedule for one call at `site`. Returns `Some(word)`
    /// — a per-fire entropy word, for sites that need to parameterize the
    /// fault (bit position, truncation length) — when this call must
    /// fault, `None` otherwise.
    ///
    /// The schedule is a pure function of `(seed, site, call_number)`;
    /// the call counter is atomic, so the set of firing call numbers is
    /// deterministic regardless of which threads draw them.
    pub fn fire(&self, site: FaultSite) -> Option<u64> {
        let s = self.sites[site as usize].as_ref()?;
        let n = s.calls.fetch_add(1, Ordering::Relaxed);
        // Salt the site index in so two sites armed with the same period
        // don't fire in lockstep.
        let word = splitmix64(self.seed ^ (site as u64).wrapping_mul(0xA076_1D64_78BD_642F) ^ n);
        if !word.is_multiple_of(s.period) {
            return None;
        }
        // A decrement past zero is restored so the budget stays sane
        // under races.
        if s.remaining.load(Ordering::Relaxed) <= 0 {
            return None;
        }
        if s.remaining.fetch_sub(1, Ordering::Relaxed) <= 0 {
            s.remaining.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        s.fired.fetch_add(1, Ordering::Relaxed);
        obs::with_current(|p| p.add(obs::Counter::FaultInjected, 1));
        Some(splitmix64(word))
    }

    /// Calls consulted at `site` so far (0 for unarmed sites).
    pub fn calls(&self, site: FaultSite) -> u64 {
        self.sites[site as usize]
            .as_ref()
            .map_or(0, |s| s.calls.load(Ordering::Relaxed))
    }

    /// Faults fired at `site` so far (0 for unarmed sites).
    pub fn fired(&self, site: FaultSite) -> u64 {
        self.sites[site as usize]
            .as_ref()
            .map_or(0, |s| s.fired.load(Ordering::Relaxed))
    }

    /// Total faults fired across every site.
    pub fn total_fired(&self) -> u64 {
        FaultSite::ALL.iter().map(|&s| self.fired(s)).sum()
    }
}

/// Consults the calling thread's current plan for one call at `site`;
/// `None` (no fault) when no plan is in scope or the site is unarmed.
/// This is the function every injection site calls.
pub fn fire(site: FaultSite) -> Option<u64> {
    crate::scope::with_current(|s| s.and_then(|s| s.faults.as_ref()).and_then(|p| p.fire(site)))
}

/// A per-site circuit breaker: `threshold` *consecutive* failures trip it
/// open, and open is sticky — the degraded path stays pinned until the
/// process restarts (or [`reset`](CircuitBreaker::reset) in tests). All
/// state is relaxed atomics; safe to consult on hot paths.
#[derive(Debug)]
pub struct CircuitBreaker {
    threshold: u32,
    consecutive: AtomicU64,
    open: AtomicBool,
}

impl CircuitBreaker {
    /// A closed breaker that opens after `threshold` consecutive failures
    /// (minimum 1).
    pub fn new(threshold: u32) -> Self {
        CircuitBreaker {
            threshold: threshold.max(1),
            consecutive: AtomicU64::new(0),
            open: AtomicBool::new(false),
        }
    }

    /// Whether the breaker has tripped (degraded path pinned).
    pub fn is_open(&self) -> bool {
        self.open.load(Ordering::Relaxed)
    }

    /// Records one failure; returns `true` iff *this* call tripped the
    /// breaker open (so the caller can count the transition once).
    pub fn record_failure(&self) -> bool {
        let n = self.consecutive.fetch_add(1, Ordering::Relaxed) + 1;
        if n >= self.threshold as u64 && !self.open.swap(true, Ordering::Relaxed) {
            return true;
        }
        false
    }

    /// Records one success, resetting the consecutive-failure run. Does
    /// not close an open breaker (open is sticky).
    pub fn record_success(&self) {
        self.consecutive.store(0, Ordering::Relaxed);
    }

    /// Force-closes the breaker (tests only).
    pub fn reset(&self) {
        self.consecutive.store(0, Ordering::Relaxed);
        self.open.store(false, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn unarmed_site_never_fires() {
        let plan = FaultPlan::new(7).arm(FaultSite::Oracle, 1);
        for _ in 0..100 {
            assert!(plan.fire(FaultSite::Queue).is_none());
        }
        assert_eq!(plan.calls(FaultSite::Queue), 0);
        assert_eq!(plan.fired(FaultSite::Queue), 0);
    }

    #[test]
    fn period_one_fires_every_call() {
        let plan = FaultPlan::new(3).arm(FaultSite::PoolWorker, 1);
        for _ in 0..50 {
            assert!(plan.fire(FaultSite::PoolWorker).is_some());
        }
        assert_eq!(plan.fired(FaultSite::PoolWorker), 50);
    }

    #[test]
    fn schedule_is_a_function_of_seed_site_and_call_number() {
        // Two plans with the same seed fire on exactly the same call
        // numbers; a different seed gives a different set.
        let firing_calls = |seed: u64| -> Vec<u64> {
            let plan = FaultPlan::new(seed).arm(FaultSite::Oracle, 4);
            let mut out = Vec::new();
            for n in 0..256u64 {
                if plan.fire(FaultSite::Oracle).is_some() {
                    out.push(n);
                }
            }
            out
        };
        let a = firing_calls(42);
        let b = firing_calls(42);
        let c = firing_calls(43);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "period 4 over 256 calls must fire");
        assert_ne!(a, c, "different seeds give different schedules");
    }

    #[test]
    fn sites_are_salted_apart() {
        let plan = FaultPlan::new(11)
            .arm(FaultSite::Oracle, 8)
            .arm(FaultSite::StarCache, 8);
        let mut oracle = Vec::new();
        let mut cache = Vec::new();
        for n in 0..512u64 {
            if plan.fire(FaultSite::Oracle).is_some() {
                oracle.push(n);
            }
            if plan.fire(FaultSite::StarCache).is_some() {
                cache.push(n);
            }
        }
        assert_ne!(oracle, cache, "same period must not fire in lockstep");
    }

    #[test]
    fn budget_caps_fired_faults() {
        let plan = FaultPlan::new(5)
            .arm(FaultSite::StoreRead, 1)
            .with_budget(FaultSite::StoreRead, 3);
        let fired = (0..100)
            .filter(|_| plan.fire(FaultSite::StoreRead).is_some())
            .count();
        assert_eq!(fired, 3);
        assert_eq!(plan.fired(FaultSite::StoreRead), 3);
        assert_eq!(plan.calls(FaultSite::StoreRead), 100);
    }

    #[test]
    fn deterministic_fired_set_under_parallelism() {
        // The SET of firing call numbers is thread-count invariant: total
        // fired over N calls matches the serial count.
        let serial = {
            let plan = FaultPlan::new(99).arm(FaultSite::PoolWorker, 4);
            (0..1024)
                .filter(|_| plan.fire(FaultSite::PoolWorker).is_some())
                .count() as u64
        };
        for threads in [2, 8] {
            let plan = FaultPlan::new(99).arm(FaultSite::PoolWorker, 4);
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| {
                        for _ in 0..(1024 / threads) {
                            plan.fire(FaultSite::PoolWorker);
                        }
                    });
                }
            });
            assert_eq!(plan.fired(FaultSite::PoolWorker), serial);
        }
    }

    #[test]
    fn scopes_nest_innermost_wins() {
        let enter = |plan: &Arc<FaultPlan>| {
            crate::scope::Scope {
                faults: Some(Arc::clone(plan)),
                ..Default::default()
            }
            .enter()
        };
        let outer = Arc::new(FaultPlan::new(1).arm(FaultSite::Queue, 1));
        let inner = Arc::new(FaultPlan::new(2));
        {
            let _a = enter(&outer);
            {
                let _b = enter(&inner);
                assert!(fire(FaultSite::Queue).is_none(), "inner plan arms nothing");
            }
            assert!(fire(FaultSite::Queue).is_some(), "outer plan restored");
        }
        assert!(fire(FaultSite::Queue).is_none(), "no scope, no fault");
        assert_eq!(outer.fired(FaultSite::Queue), 1);
    }

    #[test]
    fn fired_faults_count_into_scoped_profiler() {
        let p = Arc::new(obs::Profiler::new());
        let _scope = crate::scope::Scope {
            profiler: Some(Arc::clone(&p)),
            ..Default::default()
        }
        .enter();
        let plan = FaultPlan::new(2).arm(FaultSite::AnswerCache, 1);
        for _ in 0..5 {
            plan.fire(FaultSite::AnswerCache);
        }
        assert_eq!(p.counter(obs::Counter::FaultInjected), 5);
    }

    #[test]
    fn breaker_trips_after_consecutive_failures_and_is_sticky() {
        let b = CircuitBreaker::new(3);
        assert!(!b.record_failure());
        assert!(!b.record_failure());
        b.record_success(); // resets the run
        assert!(!b.record_failure());
        assert!(!b.record_failure());
        assert!(!b.is_open());
        assert!(b.record_failure(), "third consecutive failure trips");
        assert!(b.is_open());
        assert!(!b.record_failure(), "transition reported only once");
        b.record_success();
        assert!(b.is_open(), "open is sticky");
        b.reset();
        assert!(!b.is_open());
    }

    #[test]
    fn from_env_requires_seed() {
        // Can't mutate the env safely under threads; just assert absence
        // of the variable yields None (the test runner doesn't set it).
        if std::env::var("WQE_FAULT_SEED").is_err() {
            assert!(FaultPlan::from_env().is_none());
        }
    }

    #[test]
    fn site_names_roundtrip() {
        for site in FaultSite::ALL {
            assert_eq!(FaultSite::parse(site.as_str()), Some(site));
            assert_eq!(site.to_string(), site.as_str());
        }
        assert_eq!(FaultSite::parse("nope"), None);
    }
}
