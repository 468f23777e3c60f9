//! The serving layer: [`QueryService`] — one front door for every
//! why-question variant.
//!
//! A service wraps a shared [`EngineCtx`] with:
//!
//! * a **request/response API**: [`QueryRequest`] (question, [`Algorithm`],
//!   optional per-request [`WqeConfig`] override, [`Priority`], deadline)
//!   in, [`QueryResponse`] (status plus queue/service timing) out, via
//!   [`QueryService::submit`] (async handle), [`QueryService::call`]
//!   (blocking), or [`QueryService::serve_batch`] (many at once, responses
//!   in request order);
//! * an **admission-controlled scheduler**: at most `max_inflight` worker
//!   threads drain a bounded [`JobQueue`](`wqe_pool::serve::JobQueue`) —
//!   highest [`Priority`] class first, FIFO within a class — and a full
//!   queue yields an explicit [`QueryStatus::Rejected`] instead of
//!   unbounded buffering;
//! * a **per-epoch answer cache**: completed reports are keyed by a
//!   canonical encoding of (question, algorithm, effective config) in the
//!   head epoch's [`FootprintCache`], the same decayed least-hit cache the
//!   matcher keeps its star tables in; a hit skips the engine entirely and
//!   the response says so (`cache_hit`). Each publish swaps in the cache
//!   [`FootprintCache::carry_over`] derives for the new head; requests
//!   pinned to an older epoch run uncached.
//!
//! Determinism is preserved end to end: the cache key excludes
//! `parallelism` (answers never depend on it — see DESIGN.md "Parallel
//! search"), only [`Termination::Complete`] reports are cached, and a
//! cached answer is the bit-identical report the cold run produced. See
//! DESIGN.md "Serving layer".
//!
//! Three serving-edge facilities sit in front of the queue:
//!
//! * **streaming** ([`QueryService::submit_streaming`]): the anytime
//!   search's best-so-far improvements arrive as [`StreamEvent::Update`]s
//!   while the run is still going, followed by a terminal
//!   [`StreamEvent::Done`] carrying the exact [`QueryResponse`] the
//!   blocking path would have returned;
//! * **load shedding** ([`ShedConfig`]): as queue depth grows past a soft
//!   watermark the service tightens effective deadlines (the governor then
//!   returns best-so-far instead of queue-collapsing), and past a hard
//!   watermark sheddable priority classes get a typed
//!   [`QueryStatus::Shed`] instead of a queue slot;
//! * **rate limiting** ([`RateLimitConfig`]): a per-tenant token bucket
//!   refuses over-rate submissions with [`ShedReason::RateLimited`].

use crate::answ::AnswerReport;
use crate::ctx::EngineCtx;
use crate::engine::{Algorithm, WqeEngine};
use crate::error::WqeError;
use crate::governor::Termination;
use crate::live::{EpochHandle, EpochId, EpochSubscriber, GraphStore};
use crate::obs::{Counter, CounterRegistry, Profiler};
use crate::session::{AnswerUpdate, ProgressSink, WhyQuestion, WqeConfig};
use crate::spec::SpecError;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, PoisonError, Weak};
use std::time::{Duration, Instant};
use wqe_graph::DeltaSummary;
use wqe_pool::fault::FaultSite;
use wqe_pool::scope::Scope;
use wqe_pool::serve::{JobQueue, PushError};
use wqe_query::{Cached, Footprint, FootprintCache};

pub use wqe_pool::serve::Priority;

// ---------------------------------------------------------------------------
// Requests and responses
// ---------------------------------------------------------------------------

/// One why-question submitted to a [`QueryService`].
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// The why-question to answer.
    pub question: WhyQuestion,
    /// Which algorithm variant to run.
    pub algorithm: Algorithm,
    /// Full per-request config override; `None` uses the service's
    /// [`ServiceConfig::base_config`]. Build overrides with
    /// [`WqeConfig::to_builder`] on the base so they validate early.
    pub config: Option<WqeConfig>,
    /// Scheduling class (default [`Priority::Normal`]).
    pub priority: Priority,
    /// Per-request governor deadline in milliseconds, overriding the
    /// effective config's `deadline_ms`. Must be finite and non-negative;
    /// anything else is refused at submit time with [`WqeError::Spec`]
    /// (never forwarded to the governor unvalidated).
    ///
    /// **Semantics — service time vs queue time.** The governor's clock
    /// starts when a worker picks the job up, so `deadline_ms` bounds
    /// *service* time, not end-to-end latency. Queue wait is not unbounded
    /// either: a job whose queue wait alone reaches `deadline_ms` is
    /// already dead to its caller, so the worker sheds it at dequeue with
    /// [`ShedReason::DeadlineElapsed`] instead of burning a slot running
    /// it.
    pub deadline_ms: Option<f64>,
    /// Rate-limiting identity. Requests with a tenant draw from that
    /// tenant's token bucket when [`ServiceConfig::rate_limit`] is set;
    /// `None` bypasses the limiter (trusted in-process callers). The HTTP
    /// front-end fills this from the `x-wqe-tenant` header.
    pub tenant: Option<String>,
    /// Which epoch to answer against, for services built over a live
    /// [`GraphStore`] ([`QueryService::with_store`]). `None` pins the head
    /// at admission (the common case); a specific id answers against that
    /// epoch if some handle still holds it live — without the answer
    /// cache, unless it is the head — and fails with a typed spec error
    /// otherwise. Ignored (must be `None` or the context's own epoch) for
    /// store-less services.
    pub epoch: Option<EpochId>,
}

impl QueryRequest {
    /// A request with the service's base config and normal priority.
    pub fn new(question: WhyQuestion, algorithm: Algorithm) -> Self {
        QueryRequest {
            question,
            algorithm,
            config: None,
            priority: Priority::Normal,
            deadline_ms: None,
            tenant: None,
            epoch: None,
        }
    }

    /// Replaces the effective config for this request.
    pub fn with_config(mut self, config: WqeConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Sets the scheduling class.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the per-request service-time deadline.
    pub fn with_deadline_ms(mut self, ms: f64) -> Self {
        self.deadline_ms = Some(ms);
        self
    }

    /// Sets the rate-limiting tenant identity.
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }

    /// Pins this request to a specific live epoch (see
    /// [`QueryService::with_store`]).
    pub fn with_epoch(mut self, epoch: EpochId) -> Self {
        self.epoch = Some(epoch);
        self
    }
}

/// Why the service shed a request instead of serving it.
#[derive(Debug, Clone, PartialEq)]
pub enum ShedReason {
    /// The job's deadline budget fully elapsed while it sat in the queue;
    /// running it would only return a result its caller already gave up
    /// on. Shed at dequeue, before any engine work.
    DeadlineElapsed {
        /// Milliseconds the job waited in the queue.
        queue_ms: f64,
        /// The effective deadline that elapsed.
        deadline_ms: f64,
    },
    /// Queue depth crossed [`ShedConfig::hard_watermark`] and the
    /// request's priority class is sheddable under overload.
    Overload {
        /// Queue depth observed at shed time.
        queue_len: usize,
        /// The queue's capacity.
        queue_cap: usize,
    },
    /// The tenant's token bucket was empty.
    RateLimited {
        /// The tenant that exceeded its rate.
        tenant: String,
    },
}

impl ShedReason {
    /// A stable snake_case name (the HTTP front-end's wire value).
    pub fn as_str(&self) -> &'static str {
        match self {
            ShedReason::DeadlineElapsed { .. } => "deadline_elapsed",
            ShedReason::Overload { .. } => "overload",
            ShedReason::RateLimited { .. } => "rate_limited",
        }
    }
}

/// The terminal state of one served request.
///
/// Marked `#[non_exhaustive]`: front-ends must keep a catch-all arm so the
/// service can grow outcomes without breaking them.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum QueryStatus {
    /// The engine produced a report (possibly partial — check
    /// `report.termination`).
    Done {
        /// The answer, exactly as the engine (or the cache) produced it
        /// (boxed: a report is much larger than the other variants).
        report: Box<AnswerReport>,
        /// True when the report came from the answer cache.
        cache_hit: bool,
    },
    /// The request failed validation or the worker was lost to a panic.
    Failed {
        /// What went wrong.
        error: WqeError,
    },
    /// Admission control turned the request away; nothing ran.
    Rejected {
        /// True when the bounded queue was at capacity; false when the
        /// service was already shut down.
        queue_full: bool,
        /// Queue depth observed at rejection.
        queue_len: usize,
    },
    /// The service shed the request — overload, rate limit, or a deadline
    /// that fully elapsed in the queue. Nothing ran; counted with
    /// rejections in [`ServiceStats`].
    Shed {
        /// Why it was shed.
        reason: ShedReason,
    },
}

/// What a [`QueryService`] returns for one request.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// The service-assigned request id (monotonic per service).
    pub id: u64,
    /// Outcome.
    pub status: QueryStatus,
    /// Milliseconds spent queued before a worker picked the job up.
    pub queue_ms: f64,
    /// Milliseconds of worker service time (cache probe + engine run).
    pub service_ms: f64,
}

impl QueryResponse {
    /// The answer report, if the request completed.
    pub fn report(&self) -> Option<&AnswerReport> {
        match &self.status {
            QueryStatus::Done { report, .. } => Some(report),
            _ => None,
        }
    }

    /// True when the report came from the answer cache.
    pub fn cache_hit(&self) -> bool {
        matches!(
            self.status,
            QueryStatus::Done {
                cache_hit: true,
                ..
            }
        )
    }

    /// True when admission control rejected the request.
    pub fn is_rejected(&self) -> bool {
        matches!(self.status, QueryStatus::Rejected { .. })
    }

    /// True when the service shed the request (overload, rate limit, or a
    /// queue-elapsed deadline).
    pub fn is_shed(&self) -> bool {
        matches!(self.status, QueryStatus::Shed { .. })
    }

    /// The shed reason, if the request was shed.
    pub fn shed_reason(&self) -> Option<&ShedReason> {
        match &self.status {
            QueryStatus::Shed { reason } => Some(reason),
            _ => None,
        }
    }
}

/// One event delivered through a [`StreamingQuery`] handle.
#[derive(Debug, Clone)]
pub enum StreamEvent {
    /// The anytime search improved its best-so-far answer. Updates arrive
    /// in `seq` order; `closeness` strictly increases across them.
    Update(AnswerUpdate),
    /// The terminal response — always the last event, and bit-identical to
    /// what [`QueryService::call`] would have returned for the same
    /// request. Exactly one `Done` is delivered per streaming submission
    /// unless the service is torn down first (the channel then just
    /// closes).
    Done(QueryResponse),
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Answer-cache tunables.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Cached reports per epoch; `0` disables the cache. The shard count
    /// follows from it, as the star cache's does.
    pub capacity: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { capacity: 256 }
    }
}

/// Load-shedding policy: the governor wired in as admission control.
///
/// As queue depth grows past `soft_watermark` (a fraction of queue
/// capacity), the service tightens every admitted request's effective
/// deadline — linearly from `base_deadline_ms` down to `min_deadline_ms`
/// at `hard_watermark` — so under load the anytime algorithms return
/// best-so-far answers quickly instead of letting latency collapse. Past
/// `hard_watermark`, [`Priority::Low`] requests are shed outright with a
/// typed [`QueryStatus::Shed`].
///
/// The tightened deadline is part of the effective config, so it keys the
/// answer cache like any other deadline: a report computed under pressure
/// is never served to an unpressured request. Disabled by default —
/// shedding changes answers (partial, best-so-far) by design, so it is
/// opt-in for the network front-end.
#[derive(Debug, Clone)]
pub struct ShedConfig {
    /// Master switch; `false` (the default) preserves the exact PR-5
    /// serving behavior.
    pub enabled: bool,
    /// Queue-depth fraction at which deadline tightening starts.
    pub soft_watermark: f64,
    /// Queue-depth fraction at which `Low`-priority requests are shed
    /// outright (and tightening bottoms out at `min_deadline_ms`).
    pub hard_watermark: f64,
    /// The deadline imposed right at the soft watermark, milliseconds.
    pub base_deadline_ms: f64,
    /// The tightest imposed deadline, reached at the hard watermark.
    pub min_deadline_ms: f64,
}

impl Default for ShedConfig {
    fn default() -> Self {
        ShedConfig {
            enabled: false,
            soft_watermark: 0.5,
            hard_watermark: 0.9,
            base_deadline_ms: 250.0,
            min_deadline_ms: 25.0,
        }
    }
}

/// Per-tenant token-bucket rate limiting. A tenant accrues `per_sec`
/// tokens per second up to `burst`; each submission spends one. Requests
/// without a [`QueryRequest::tenant`] bypass the limiter.
#[derive(Debug, Clone)]
pub struct RateLimitConfig {
    /// Steady-state tokens per second per tenant.
    pub per_sec: f64,
    /// Bucket capacity (maximum burst).
    pub burst: f64,
}

impl Default for RateLimitConfig {
    fn default() -> Self {
        RateLimitConfig {
            per_sec: 50.0,
            burst: 10.0,
        }
    }
}

/// [`QueryService`] tunables.
#[derive(Debug, Clone, Default)]
pub struct ServiceConfig {
    /// Worker threads draining the queue — the concurrency admission
    /// limit. `0` means one per available core.
    pub max_inflight: usize,
    /// Bounded queue depth; a push beyond it is rejected. `0` is clamped
    /// to 1.
    pub queue_cap: usize,
    /// The config requests start from (overridden per request by
    /// [`QueryRequest::config`]).
    pub base_config: WqeConfig,
    /// Answer-cache tunables.
    pub cache: CacheConfig,
    /// How many times a worker re-runs a request whose engine was lost to
    /// a (possibly injected) panic before giving up with
    /// [`QueryStatus::Failed`]. `None` means the default (1 retry);
    /// `Some(0)` disables the ladder. Retries rebuild the engine from
    /// scratch — the run is deterministic, so a retried success is the
    /// bit-identical report the first attempt would have produced.
    pub max_retries: Option<usize>,
    /// Load-shedding policy (disabled by default).
    pub shed: ShedConfig,
    /// Per-tenant rate limiting; `None` (the default) disables it.
    pub rate_limit: Option<RateLimitConfig>,
}

impl ServiceConfig {
    fn effective_queue_cap(&self) -> usize {
        if self.queue_cap == 0 {
            64
        } else {
            self.queue_cap
        }
    }

    fn effective_max_retries(&self) -> usize {
        self.max_retries.unwrap_or(1)
    }
}

// ---------------------------------------------------------------------------
// Canonical cache key
// ---------------------------------------------------------------------------

/// Encodes (question, algorithm, effective config) into a canonical string:
/// two structurally identical submissions always produce the same key, no
/// matter how their `HashMap`-backed exemplar cells iterate. `parallelism`
/// is deliberately excluded — answers never depend on it — while every
/// termination-affecting knob (deadline, caps, time limit) is included so a
/// cached `Complete` report is never served to a request whose limits could
/// have produced a different (partial) answer.
fn canonical_key(question: &WhyQuestion, algorithm: Algorithm, config: &WqeConfig) -> String {
    use std::fmt::Write;
    let mut s = String::with_capacity(256);
    let _ = write!(s, "alg={algorithm};");

    let q = &question.query;
    let _ = write!(s, "q:focus={},bound={};", q.focus().0, q.max_bound());
    for u in q.node_ids() {
        match q.node(u) {
            Some(n) => {
                let _ = write!(s, "n{}=[l={:?}", u.0, n.label.map(|l| l.0));
                for lit in &n.literals {
                    let _ = write!(s, ",{}{:?}{:?}", lit.attr.0, lit.op, lit.value);
                }
                s.push_str("];");
            }
            None => {
                let _ = write!(s, "n{}=dead;", u.0);
            }
        }
    }
    for e in q.edges() {
        let _ = write!(s, "e={}-{}<={};", e.from.0, e.to.0, e.bound);
    }

    let ex = &question.exemplar;
    for (i, t) in ex.tuples.iter().enumerate() {
        let mut cells: Vec<_> = t.cells.iter().collect();
        cells.sort_by_key(|(a, _)| **a);
        let _ = write!(s, "t{i}=[");
        for (a, c) in cells {
            let _ = write!(s, "{}:{c:?},", a.0);
        }
        s.push_str("];");
    }
    for c in &ex.constraints {
        let _ = write!(s, "c={c:?};");
    }

    let _ = write!(
        s,
        "cfg:theta={},lambda={},budget={},tl={:?},exp={},beam={},topk={},rs={},cache={},prune={},dl={},mfs={},mms={}",
        config.closeness.theta,
        config.closeness.lambda,
        config.budget,
        config.time_limit_ms,
        config.max_expansions,
        config.beam_width,
        config.top_k,
        config.relevance_sample,
        config.caching,
        config.pruning,
        config.deadline_ms,
        config.max_frontier_states,
        config.max_match_steps,
    );
    s
}

/// What a cached answer depends on: labels from the question's pattern
/// nodes, attrs from pattern literals and the exemplar's cells and
/// constraints. Topology changes evict unconditionally (distances and the
/// diameter normalizer feed every algorithm); label- and attr-only deltas
/// are keyed, so a publish that touches unrelated attributes leaves the
/// entry serving hits.
fn footprint(question: &WhyQuestion) -> Footprint {
    let mut fp = Footprint::default();
    let q = &question.query;
    for u in q.node_ids() {
        let Some(n) = q.node(u) else { continue };
        match n.label {
            Some(l) => fp.labels.push(l.0),
            None => fp.wildcard = true,
        }
        for lit in &n.literals {
            fp.attrs.push(lit.attr.0);
        }
    }
    for t in &question.exemplar.tuples {
        fp.attrs.extend(t.cells.keys().map(|a| a.0));
    }
    for c in &question.exemplar.constraints {
        fp.attrs.push(c.lhs.attr.0);
        if let crate::exemplar::Rhs::Var(v) = &c.rhs {
            fp.attrs.push(v.attr.0);
        }
    }
    fp.labels.sort_unstable();
    fp.labels.dedup();
    fp.attrs.sort_unstable();
    fp.attrs.dedup();
    fp
}

// ---------------------------------------------------------------------------
// The per-epoch answer cache
// ---------------------------------------------------------------------------

impl Cached for AnswerReport {
    const FAULT: FaultSite = FaultSite::AnswerCache;
    const HIT: Counter = Counter::AnswerCacheHit;
    const MISS: Counter = Counter::AnswerCacheMiss;
    const EVICTION: Counter = Counter::AnswerCacheEviction;
}

/// Complete reports of one epoch, keyed by [`canonical_key`].
type AnswerCache = FootprintCache<AnswerReport>;

/// Hit decay of the answer cache, per shard tick (the star cache's).
const ANSWER_CACHE_DECAY: f64 = 0.95;

// ---------------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------------

/// Lets a caller cancel a request whose job may not have started yet: the
/// flag is sticky, and the governor is armed by the worker when the run
/// begins — whichever side gets there second observes the other.
#[derive(Default)]
struct CancelHandle {
    state: Mutex<CancelState>,
}

#[derive(Default)]
struct CancelState {
    cancelled: bool,
    governor: Option<Arc<wqe_pool::governor::Governor>>,
}

impl CancelHandle {
    fn cancel(&self) {
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        s.cancelled = true;
        if let Some(g) = &s.governor {
            g.cancel();
        }
    }

    fn arm(&self, governor: Arc<wqe_pool::governor::Governor>) {
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if s.cancelled {
            governor.cancel();
        }
        s.governor = Some(governor);
    }
}

/// Where a job's events go: a blocking submission gets exactly one
/// [`QueryResponse`]; a streaming one gets zero or more
/// [`StreamEvent::Update`]s and then one [`StreamEvent::Done`]. Both sends
/// ignore a hung-up receiver — a client that stopped listening must never
/// panic a worker.
#[derive(Clone)]
enum ReplyTo {
    Blocking(mpsc::Sender<QueryResponse>),
    Streaming(mpsc::Sender<StreamEvent>),
}

impl ReplyTo {
    fn send_done(&self, response: QueryResponse) {
        match self {
            ReplyTo::Blocking(tx) => {
                let _ = tx.send(response);
            }
            ReplyTo::Streaming(tx) => {
                let _ = tx.send(StreamEvent::Done(response));
            }
        }
    }

    fn update_sender(&self) -> Option<&mpsc::Sender<StreamEvent>> {
        match self {
            ReplyTo::Blocking(_) => None,
            ReplyTo::Streaming(tx) => Some(tx),
        }
    }
}

struct Job {
    id: u64,
    question: WhyQuestion,
    algorithm: Algorithm,
    config: WqeConfig,
    /// The epoch-pinned context this job runs against (the service-level
    /// context for store-less services). Pinned at admission: a publish
    /// that lands while the job is queued or running cannot change what
    /// this job sees.
    ctx: EngineCtx,
    /// Keeps the pinned epoch alive (and listed live) for the job's whole
    /// life, including queue time.
    _pin: Option<EpochHandle>,
    key: String,
    enqueued: Instant,
    reply: ReplyTo,
    cancel: Arc<CancelHandle>,
}

struct TokenBucket {
    tokens: f64,
    last: Instant,
}

/// Tenant buckets the limiter holds before its first sweep.
const BUCKET_SWEEP_MIN: usize = 64;

struct RateLimiter {
    cfg: RateLimitConfig,
    buckets: Mutex<Buckets>,
}

#[derive(Default)]
struct Buckets {
    by_tenant: HashMap<String, TokenBucket>,
    /// The map size that triggers the next sweep.
    sweep_at: usize,
}

impl RateLimiter {
    /// Refills `tenant`'s bucket by elapsed time and tries to spend one
    /// token; `false` means the submission must be shed.
    ///
    /// The tenant comes from an untrusted header, so the map must not grow
    /// with every name a client invents. A bucket that has refilled to
    /// `burst` behaves exactly like a missing one; once the map reaches
    /// `sweep_at`, every such bucket is dropped and the next sweep is set
    /// at twice what is left, which keeps the sweeps amortized O(1).
    fn admit(&self, tenant: &str) -> bool {
        let mut buckets = self.buckets.lock().unwrap_or_else(PoisonError::into_inner);
        let Buckets {
            by_tenant,
            sweep_at,
        } = &mut *buckets;
        let now = Instant::now();
        let refilled = |b: &TokenBucket| {
            let elapsed = now.duration_since(b.last).as_secs_f64();
            (b.tokens + elapsed * self.cfg.per_sec).min(self.cfg.burst)
        };
        if by_tenant.len() >= *sweep_at {
            by_tenant.retain(|_, b| refilled(b) < self.cfg.burst);
            *sweep_at = (2 * by_tenant.len()).max(BUCKET_SWEEP_MIN);
        }
        let b = by_tenant.entry(tenant.to_string()).or_insert(TokenBucket {
            tokens: self.cfg.burst,
            last: now,
        });
        b.tokens = refilled(b);
        b.last = now;
        if b.tokens >= 1.0 {
            b.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

struct Inner {
    ctx: EngineCtx,
    /// The live store behind [`QueryService::with_store`] services;
    /// `None` for fixed-graph services.
    store: Option<Arc<GraphStore>>,
    queue: JobQueue<Job>,
    /// The head epoch's answer cache, tagged with that epoch; `None` when
    /// [`CacheConfig::capacity`] is 0.
    cache: Option<Mutex<(EpochId, Arc<AnswerCache>)>>,
    cache_capacity: usize,
    profiler: Arc<Profiler>,
    max_retries: usize,
    shed: ShedConfig,
    rate: Option<RateLimiter>,
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    rejected: AtomicU64,
}

/// A handle to one in-flight request: wait for the response, or cancel the
/// run (the engine returns best-so-far with [`Termination::Cancelled`]).
pub struct PendingQuery {
    id: u64,
    rx: mpsc::Receiver<QueryResponse>,
    cancel: Arc<CancelHandle>,
}

impl PendingQuery {
    /// The service-assigned request id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Cancels the request. If the run already started, its governor trips
    /// with [`Termination::Cancelled`] and the response carries the
    /// best-so-far report; if it has not, the run ends immediately on its
    /// first governor poll.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Blocks until the response arrives.
    pub fn wait(self) -> QueryResponse {
        self.rx.recv().unwrap_or_else(|_| QueryResponse {
            id: self.id,
            status: QueryStatus::Failed {
                error: WqeError::WorkerPanicked {
                    item: 0,
                    message: "service worker disappeared".to_string(),
                },
            },
            queue_ms: 0.0,
            service_ms: 0.0,
        })
    }
}

/// A handle to one in-flight *streaming* request: iterate the events as
/// the anytime search improves, or wait for the terminal response.
///
/// Dropping the handle mid-stream is safe and cheap: the worker's sends
/// just start failing (ignored) and the run finishes on its own — use
/// [`StreamingQuery::cancel`] first to stop the engine promptly.
pub struct StreamingQuery {
    id: u64,
    rx: mpsc::Receiver<StreamEvent>,
    cancel: Arc<CancelHandle>,
}

impl StreamingQuery {
    /// The service-assigned request id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Cancels the request (same semantics as [`PendingQuery::cancel`]:
    /// the engine returns best-so-far with [`Termination::Cancelled`], and
    /// the terminal [`StreamEvent::Done`] is still delivered).
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Blocks for the next event; `None` once the stream is exhausted
    /// (after [`StreamEvent::Done`], or if the service was torn down
    /// before a terminal event could be sent).
    pub fn recv(&self) -> Option<StreamEvent> {
        self.rx.recv().ok()
    }

    /// A blocking iterator over the remaining events.
    pub fn iter(&self) -> impl Iterator<Item = StreamEvent> + '_ {
        std::iter::from_fn(move || self.recv())
    }

    /// Drains the stream and returns the terminal response, discarding
    /// intermediate updates — the streaming handle's equivalent of
    /// [`PendingQuery::wait`], with the same synthesized failure if the
    /// worker disappeared.
    pub fn wait(self) -> QueryResponse {
        let mut last = None;
        while let Some(event) = self.recv() {
            if let StreamEvent::Done(resp) = event {
                last = Some(resp);
            }
        }
        last.unwrap_or_else(|| QueryResponse {
            id: self.id,
            status: QueryStatus::Failed {
                error: WqeError::WorkerPanicked {
                    item: 0,
                    message: "service worker disappeared".to_string(),
                },
            },
            queue_ms: 0.0,
            service_ms: 0.0,
        })
    }
}

/// A point-in-time summary of a service's activity.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ServiceStats {
    /// Requests accepted into the queue (rejections excluded).
    pub submitted: u64,
    /// Requests that produced a [`QueryStatus::Done`] response.
    pub completed: u64,
    /// Requests that produced a [`QueryStatus::Failed`] response.
    pub failed: u64,
    /// Requests turned away by admission control.
    pub rejected: u64,
    /// Jobs queued right now.
    pub queue_depth: usize,
    /// Reports cached right now.
    pub cache_len: usize,
    /// The service-level counter registry (answer-cache hits / misses /
    /// evictions live in `answer_cache_*`).
    pub counters: CounterRegistry,
}

impl Inner {
    /// The scope service-layer work runs under: the service profiler.
    fn scope(&self) -> Scope {
        Scope {
            profiler: Some(Arc::clone(&self.profiler)),
            ..Scope::default()
        }
    }

    /// The head epoch's answer cache and the epoch it serves; `None` when
    /// caching is off.
    fn head_cache(&self) -> Option<(EpochId, Arc<AnswerCache>)> {
        let head = self.cache.as_ref()?;
        let head = head.lock().unwrap_or_else(PoisonError::into_inner);
        Some((head.0, Arc::clone(&head.1)))
    }
}

/// Bridges [`GraphStore`] publishes to the answer cache: swaps in the
/// cache [`FootprintCache::carry_over`] derives for the new head, which
/// drops the entries the delta touched (counted as
/// `answer_cache_evictions`). Registered weakly, so dropping the service
/// unhooks it.
struct CacheCarrier {
    inner: Weak<Inner>,
}

impl EpochSubscriber for CacheCarrier {
    fn on_publish(&self, prev: EpochId, next: EpochId, delta: &DeltaSummary) {
        let Some(inner) = self.inner.upgrade() else {
            return;
        };
        let Some(cache) = &inner.cache else {
            return;
        };
        let _scope = inner.scope().enter();
        let mut head = cache.lock().unwrap_or_else(PoisonError::into_inner);
        // A cache that missed a publish (one landing while the service was
        // built) describes no epoch the delta starts from: start empty.
        let next_cache = if head.0 == prev {
            head.1.carry_over(delta).0
        } else {
            AnswerCache::new(inner.cache_capacity, ANSWER_CACHE_DECAY)
        };
        *head = (next, Arc::new(next_cache));
    }
}

/// The serving layer over one [`EngineCtx`]. See the module docs.
pub struct QueryService {
    inner: Arc<Inner>,
    workers: Vec<std::thread::JoinHandle<()>>,
    base_config: WqeConfig,
    next_id: AtomicU64,
    /// Keeps the weakly-registered epoch subscriber alive for services
    /// built over a [`GraphStore`].
    _carrier: Option<Arc<CacheCarrier>>,
}

impl QueryService {
    /// Builds a service and spawns its `max_inflight` worker threads. The
    /// workers run under the calling thread's request [`Scope`] — its
    /// fault plan, if any.
    pub fn new(ctx: EngineCtx, config: ServiceConfig) -> Self {
        QueryService::build(ctx, None, config)
    }

    /// Builds a service over a live [`GraphStore`]: every request pins an
    /// epoch at admission (head by default, [`QueryRequest::epoch`] to
    /// answer against an older pinned epoch, uncached), answers are cached
    /// for the head epoch, and each publish carries unaffected cached
    /// answers into the new head's cache while evicting the ones the delta
    /// touched.
    pub fn with_store(store: Arc<GraphStore>, config: ServiceConfig) -> Self {
        let ctx = store.pin().ctx().clone();
        QueryService::build(ctx, Some(store), config)
    }

    fn build(ctx: EngineCtx, store: Option<Arc<GraphStore>>, config: ServiceConfig) -> Self {
        let workers_n = wqe_pool::resolve_threads(config.max_inflight);
        let cache_capacity = config.cache.capacity;
        let inner = Arc::new(Inner {
            cache: (cache_capacity > 0).then(|| {
                let cache = AnswerCache::new(cache_capacity, ANSWER_CACHE_DECAY);
                Mutex::new((ctx.epoch(), Arc::new(cache)))
            }),
            cache_capacity,
            ctx,
            store: store.clone(),
            queue: JobQueue::new(config.effective_queue_cap()),
            profiler: Arc::new(Profiler::new()),
            max_retries: config.effective_max_retries(),
            shed: config.shed.clone(),
            rate: config.rate_limit.clone().map(|cfg| RateLimiter {
                cfg,
                buckets: Mutex::default(),
            }),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        });
        // A service built inside a fault plan's scope runs every job under
        // that plan, for its whole life; one built outside never faults.
        let scope = Scope::current();
        let workers = (0..workers_n)
            .map(|i| {
                let inner = Arc::clone(&inner);
                let scope = scope.clone();
                std::thread::Builder::new()
                    .name(format!("wqe-serve-{i}"))
                    .spawn(move || {
                        let _scope = scope.enter();
                        while let Some(job) = inner.queue.pop() {
                            process(&inner, job);
                        }
                    })
                    .expect("spawn service worker")
            })
            .collect();
        let carrier = store.map(|store| {
            let carrier = Arc::new(CacheCarrier {
                inner: Arc::downgrade(&inner),
            });
            store.subscribe(Arc::downgrade(&carrier) as Weak<dyn EpochSubscriber>);
            carrier
        });
        QueryService {
            inner,
            workers,
            base_config: config.base_config,
            next_id: AtomicU64::new(0),
            _carrier: carrier,
        }
    }

    /// Submits a request, returning immediately with a [`PendingQuery`].
    /// Validation failures and admission rejections are still delivered as
    /// responses through the handle, so every submission yields exactly one
    /// [`QueryResponse`].
    pub fn submit(&self, request: QueryRequest) -> PendingQuery {
        let (tx, rx) = mpsc::channel();
        let cancel = Arc::new(CancelHandle::default());
        let id = self.admit(request, ReplyTo::Blocking(tx), Arc::clone(&cancel));
        PendingQuery { id, rx, cancel }
    }

    /// Submits a request for *streaming* service: the returned handle
    /// yields a [`StreamEvent::Update`] each time the anytime search
    /// improves its best-so-far answer, then exactly one terminal
    /// [`StreamEvent::Done`] whose response is bit-identical to what
    /// [`QueryService::call`] would have returned. Admission (validation,
    /// rate limiting, shedding, queue bounds) behaves exactly like
    /// [`QueryService::submit`]; rejected or shed submissions deliver
    /// their `Done` with no updates.
    ///
    /// Update order and content are parallelism-invariant (emitted from
    /// the search's coordinating thread only); a retried run after a
    /// contained worker panic restarts its updates from `seq` 0.
    pub fn submit_streaming(&self, request: QueryRequest) -> StreamingQuery {
        let (tx, rx) = mpsc::channel();
        let cancel = Arc::new(CancelHandle::default());
        let id = self.admit(request, ReplyTo::Streaming(tx), Arc::clone(&cancel));
        StreamingQuery { id, rx, cancel }
    }

    /// The shared admission path: validates, rate-limits, sheds, and
    /// enqueues. Every submission produces exactly one terminal event
    /// through `reply`, whichever branch it takes.
    fn admit(&self, request: QueryRequest, reply: ReplyTo, cancel: Arc<CancelHandle>) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let refuse = |status: QueryStatus| {
            reply.send_done(QueryResponse {
                id,
                status,
                queue_ms: 0.0,
                service_ms: 0.0,
            });
        };

        // Per-request deadline override: refuse non-finite or negative
        // values here, at the front door. The override is applied to the
        // effective config below *before* `validate()`, but validation's
        // range check admits +inf, which `governor_for` cannot represent —
        // so the unvalidated-input bug class is closed where the untrusted
        // value enters, with the spec-level error type front-end callers
        // already handle.
        if let Some(dl) = request.deadline_ms {
            if !dl.is_finite() || dl < 0.0 {
                self.inner.failed.fetch_add(1, Ordering::Relaxed);
                refuse(QueryStatus::Failed {
                    error: WqeError::Spec(SpecError(format!(
                        "per-request deadline_ms must be finite and >= 0, got {dl}"
                    ))),
                });
                return id;
            }
        }

        // Per-tenant token bucket, before any queue-state inspection.
        if let (Some(rate), Some(tenant)) = (&self.inner.rate, &request.tenant) {
            if !rate.admit(tenant) {
                self.inner.rejected.fetch_add(1, Ordering::Relaxed);
                self.inner.profiler.add(Counter::RateLimited, 1);
                refuse(QueryStatus::Shed {
                    reason: ShedReason::RateLimited {
                        tenant: tenant.clone(),
                    },
                });
                return id;
            }
        }

        let mut effective = self.effective_config(&request);
        if let Err(error) = effective.validate() {
            self.inner.failed.fetch_add(1, Ordering::Relaxed);
            refuse(QueryStatus::Failed { error });
            return id;
        }
        // Normalize once so the cached key and the session agree.
        effective = request.algorithm.apply_to(effective);

        if let Some(reason) = self.shed_or_tighten(request.priority, &mut effective) {
            self.inner.rejected.fetch_add(1, Ordering::Relaxed);
            self.inner.profiler.add(Counter::ShedRequest, 1);
            refuse(QueryStatus::Shed { reason });
            return id;
        }

        // Pin the epoch the job will answer against — at admission, so a
        // publish landing while the job is queued cannot change what it
        // sees.
        let (ctx, pin) = match (&self.inner.store, request.epoch) {
            (Some(store), Some(want)) => match store.pin_epoch(want) {
                Some(h) => (h.ctx().clone(), Some(h)),
                None => {
                    self.inner.failed.fetch_add(1, Ordering::Relaxed);
                    refuse(QueryStatus::Failed {
                        error: WqeError::Spec(SpecError(format!(
                            "epoch {} is not live (retired or never published)",
                            want.0
                        ))),
                    });
                    return id;
                }
            },
            (Some(store), None) => {
                let h = store.pin();
                (h.ctx().clone(), Some(h))
            }
            (None, Some(want)) if want != self.inner.ctx.epoch() => {
                self.inner.failed.fetch_add(1, Ordering::Relaxed);
                refuse(QueryStatus::Failed {
                    error: WqeError::Spec(SpecError(format!(
                        "epoch {} requested but this service has no live store \
                         (its fixed context is epoch {})",
                        want.0,
                        self.inner.ctx.epoch().0
                    ))),
                });
                return id;
            }
            (None, _) => (self.inner.ctx.clone(), None),
        };

        let key = canonical_key(&request.question, request.algorithm, &effective);
        let job = Job {
            id,
            question: request.question,
            algorithm: request.algorithm,
            config: effective,
            ctx,
            _pin: pin,
            key,
            enqueued: Instant::now(),
            reply: reply.clone(),
            cancel,
        };
        match self.inner.queue.push(request.priority, job) {
            Ok(_) => {
                self.inner.submitted.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                self.inner.rejected.fetch_add(1, Ordering::Relaxed);
                let (queue_full, queue_len) = match e {
                    PushError::Full { queue_len } => (true, queue_len),
                    PushError::Closed => (false, 0),
                };
                refuse(QueryStatus::Rejected {
                    queue_full,
                    queue_len,
                });
            }
        }
        id
    }

    /// Load shedding: the governor as admission control. Depth past the
    /// hard watermark sheds Low-priority work outright; past the soft
    /// watermark every admitted request gets a tightened effective
    /// deadline in `effective` (linearly down to `min_deadline_ms`), which
    /// — being part of the effective config — also keys the cache.
    fn shed_or_tighten(&self, priority: Priority, effective: &mut WqeConfig) -> Option<ShedReason> {
        let shed = &self.inner.shed;
        if !shed.enabled {
            return None;
        }
        let queue_len = self.inner.queue.len();
        let queue_cap = self.inner.queue.capacity();
        let ratio = queue_len as f64 / queue_cap.max(1) as f64;
        if ratio >= shed.hard_watermark && priority == Priority::Low {
            return Some(ShedReason::Overload {
                queue_len,
                queue_cap,
            });
        }
        if ratio >= shed.soft_watermark {
            let span = (shed.hard_watermark - shed.soft_watermark).max(f64::EPSILON);
            let f = ((ratio - shed.soft_watermark) / span).clamp(0.0, 1.0);
            let imposed =
                shed.base_deadline_ms + (shed.min_deadline_ms - shed.base_deadline_ms) * f;
            effective.deadline_ms = if effective.deadline_ms > 0.0 {
                effective.deadline_ms.min(imposed)
            } else {
                imposed
            };
        }
        None
    }

    /// Submits and blocks for the response.
    pub fn call(&self, request: QueryRequest) -> QueryResponse {
        self.submit(request).wait()
    }

    /// Submits a whole batch up front (so queueing and cache reuse overlap
    /// across requests), then waits; responses come back in request order.
    /// Batches larger than the queue capacity see tail rejections — size
    /// `queue_cap` accordingly or feed the batch in chunks.
    pub fn serve_batch(&self, requests: Vec<QueryRequest>) -> Vec<QueryResponse> {
        let pending: Vec<PendingQuery> = requests.into_iter().map(|r| self.submit(r)).collect();
        pending.into_iter().map(PendingQuery::wait).collect()
    }

    /// The config a request will effectively run under (before the
    /// algorithm's ablations are applied).
    fn effective_config(&self, request: &QueryRequest) -> WqeConfig {
        let mut cfg = request
            .config
            .clone()
            .unwrap_or_else(|| self.base_config.clone());
        if let Some(dl) = request.deadline_ms {
            cfg.deadline_ms = dl;
        }
        cfg
    }

    /// Holds the scheduler: admission stays open, workers idle. Tests use
    /// this to fill the queue deterministically; operators to drain.
    pub fn pause(&self) {
        self.inner.queue.pause();
    }

    /// Releases a [`QueryService::pause`].
    pub fn resume(&self) {
        self.inner.queue.resume();
    }

    /// Drops every cached report (counters are unaffected).
    pub fn clear_cache(&self) {
        if let Some((_, cache)) = self.inner.head_cache() {
            cache.clear();
        }
    }

    /// A point-in-time activity summary.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            submitted: self.inner.submitted.load(Ordering::Relaxed),
            completed: self.inner.completed.load(Ordering::Relaxed),
            failed: self.inner.failed.load(Ordering::Relaxed),
            rejected: self.inner.rejected.load(Ordering::Relaxed),
            queue_depth: self.inner.queue.len(),
            cache_len: self.inner.head_cache().map_or(0, |(_, cache)| cache.len()),
            counters: CounterRegistry::from_snapshot(&self.inner.profiler.snapshot()),
        }
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        self.inner.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// One job, start to finish, on a worker thread. Panics cannot escape: the
/// engine entry is [`WqeEngine::try_run`], which contains them per query.
///
/// This is the service rung of the degradation ladder: a run lost to a
/// panic ([`WqeError::WorkerPanicked`] — real or injected) is rebuilt and
/// re-run up to `max_retries` times (counting
/// [`Counter::Retry`]); a success after at least one retry is counted as a
/// [`Counter::DegradedServe`]. Any other error, and exhaustion, surface as
/// [`QueryStatus::Failed`]. Retries are safe because a run is
/// deterministic: a retried success is bit-identical to an undisturbed one.
fn process(inner: &Inner, job: Job) {
    let started = Instant::now();
    let queue_ms = started.duration_since(job.enqueued).as_secs_f64() * 1e3;

    // Service-layer events (cache-probe faults, retries) land in the
    // service profiler; per-query scopes nest inside and shadow it.
    let _scope = inner.scope().enter();

    // A job whose deadline budget fully elapsed while it was queued is
    // already dead to its caller: the governor's clock starts *now*, so
    // running it would burn a worker slot producing a result nobody is
    // waiting for. Shed it (counted with rejections, never as Done).
    let deadline_ms = job.config.deadline_ms;
    if deadline_ms > 0.0 && queue_ms >= deadline_ms {
        inner.rejected.fetch_add(1, Ordering::Relaxed);
        inner.profiler.add(Counter::ShedRequest, 1);
        job.reply.send_done(QueryResponse {
            id: job.id,
            status: QueryStatus::Shed {
                reason: ShedReason::DeadlineElapsed {
                    queue_ms,
                    deadline_ms,
                },
            },
            queue_ms,
            service_ms: started.elapsed().as_secs_f64() * 1e3,
        });
        return;
    }

    // Only the head epoch's answers are cached; a job pinned to an older
    // epoch (or admitted just before a publish) runs uncached.
    let cache = inner
        .head_cache()
        .and_then(|(epoch, cache)| (epoch == job.ctx.epoch()).then_some(cache));
    if let Some(report) = cache.as_ref().and_then(|c| c.get(&job.key)) {
        inner.completed.fetch_add(1, Ordering::Relaxed);
        job.reply.send_done(QueryResponse {
            id: job.id,
            status: QueryStatus::Done {
                report: Box::new(AnswerReport::clone(&report)),
                cache_hit: true,
            },
            queue_ms,
            service_ms: started.elapsed().as_secs_f64() * 1e3,
        });
        return;
    }

    // Streaming jobs get a progress sink wired into the engine: each
    // best-so-far improvement becomes a StreamEvent::Update. A send to a
    // hung-up client is silently dropped — disconnects must never panic a
    // worker or abort the run (the result still populates the cache).
    let sink: Option<ProgressSink> = job.reply.update_sender().map(|tx| {
        let tx = tx.clone();
        let profiler = Arc::clone(&inner.profiler);
        Arc::new(move |u: &AnswerUpdate| {
            profiler.add(Counter::StreamUpdate, 1);
            let _ = tx.send(StreamEvent::Update(u.clone()));
        }) as ProgressSink
    });

    let mut attempt = 0usize;
    let status = loop {
        let outcome = WqeEngine::try_new(job.ctx.clone(), job.question.clone(), job.config.clone())
            .map(|engine| match &sink {
                Some(s) => engine.with_progress(Arc::clone(s)),
                None => engine,
            })
            .and_then(|engine| {
                job.cancel.arm(Arc::clone(&engine.session().governor));
                engine.try_run(job.algorithm)
            });
        match outcome {
            Ok(report) => {
                if attempt > 0 {
                    inner.profiler.add(Counter::DegradedServe, 1);
                }
                inner.completed.fetch_add(1, Ordering::Relaxed);
                if let Some(cache) = &cache {
                    if report.termination == Termination::Complete {
                        let cached = Arc::new(report.clone());
                        cache.insert(&job.key, cached, || footprint(&job.question));
                    }
                }
                break QueryStatus::Done {
                    report: Box::new(report),
                    cache_hit: false,
                };
            }
            Err(error) => {
                let transient = matches!(error, WqeError::WorkerPanicked { .. });
                if transient && attempt < inner.max_retries {
                    attempt += 1;
                    inner.profiler.add(Counter::Retry, 1);
                    std::thread::sleep(Duration::from_micros(50 * attempt as u64));
                    continue;
                }
                inner.failed.fetch_add(1, Ordering::Relaxed);
                break QueryStatus::Failed { error };
            }
        }
    };
    job.reply.send_done(QueryResponse {
        id: job.id,
        status,
        queue_ms,
        service_ms: started.elapsed().as_secs_f64() * 1e3,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::paper_question;
    use wqe_graph::product::product_graph;

    fn service(cfg: ServiceConfig) -> (QueryService, WhyQuestion) {
        let g = Arc::new(product_graph().graph);
        let ctx = EngineCtx::with_default_oracle(Arc::clone(&g));
        let q = paper_question(&g);
        (QueryService::new(ctx, cfg), q)
    }

    fn base_cfg() -> WqeConfig {
        WqeConfig {
            budget: 4.0,
            ..Default::default()
        }
    }

    #[test]
    fn call_answers_and_caches() {
        let (svc, q) = service(ServiceConfig {
            max_inflight: 1,
            base_config: base_cfg(),
            ..Default::default()
        });
        let cold = svc.call(QueryRequest::new(q.clone(), Algorithm::AnsW));
        assert!(!cold.cache_hit());
        let cold_best = cold.report().unwrap().best.clone().unwrap();
        assert!((cold_best.closeness - 0.5).abs() < 1e-9);

        let warm = svc.call(QueryRequest::new(q, Algorithm::AnsW));
        assert!(warm.cache_hit(), "identical request must hit the cache");
        let warm_best = warm.report().unwrap().best.clone().unwrap();
        assert_eq!(warm_best.ops, cold_best.ops);
        assert_eq!(warm_best.matches, cold_best.matches);
        let stats = svc.stats();
        assert_eq!(stats.counters.answer_cache_hits, 1);
        assert_eq!(stats.counters.answer_cache_misses, 1);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.cache_len, 1);
    }

    #[test]
    fn algorithms_key_the_cache_separately() {
        let (svc, q) = service(ServiceConfig {
            max_inflight: 1,
            base_config: base_cfg(),
            ..Default::default()
        });
        let a = svc.call(QueryRequest::new(q.clone(), Algorithm::AnsW));
        let b = svc.call(QueryRequest::new(q, Algorithm::AnsHeu));
        assert!(!a.cache_hit() && !b.cache_hit());
        assert_eq!(svc.stats().counters.answer_cache_misses, 2);
    }

    #[test]
    fn canonical_key_is_stable_across_clones() {
        // The exemplar's cells live in HashMaps; the canonical encoder must
        // not depend on their iteration order.
        let g = product_graph().graph;
        let q = paper_question(&g);
        let k1 = canonical_key(&q, Algorithm::AnsW, &WqeConfig::default());
        let q2: WhyQuestion = serde_json::from_str(&serde_json::to_string(&q).unwrap()).unwrap();
        let k2 = canonical_key(&q2, Algorithm::AnsW, &WqeConfig::default());
        assert_eq!(k1, k2);
        // Seeded variants key separately.
        assert_ne!(
            canonical_key(&q, Algorithm::AnsHeuB(1), &WqeConfig::default()),
            canonical_key(&q, Algorithm::AnsHeuB(2), &WqeConfig::default())
        );
        // Parallelism is excluded; budget is not.
        let mut c = WqeConfig {
            parallelism: 7,
            ..Default::default()
        };
        assert_eq!(
            canonical_key(&q, Algorithm::AnsW, &c),
            canonical_key(&q, Algorithm::AnsW, &WqeConfig::default())
        );
        c.budget = 5.0;
        assert_ne!(
            canonical_key(&q, Algorithm::AnsW, &c),
            canonical_key(&q, Algorithm::AnsW, &WqeConfig::default())
        );
    }

    #[test]
    fn invalid_override_fails_fast() {
        let (svc, q) = service(ServiceConfig::default());
        let bad = WqeConfig {
            budget: -1.0,
            ..Default::default()
        };
        let resp = svc.call(QueryRequest::new(q, Algorithm::AnsW).with_config(bad));
        match resp.status {
            QueryStatus::Failed {
                error: WqeError::InvalidConfig { field, .. },
            } => assert_eq!(field, "budget"),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        assert_eq!(svc.stats().failed, 1);
        assert_eq!(svc.stats().submitted, 0);
    }

    #[test]
    fn queue_full_rejects_explicitly() {
        let (svc, q) = service(ServiceConfig {
            max_inflight: 1,
            queue_cap: 2,
            base_config: base_cfg(),
            ..Default::default()
        });
        svc.pause();
        let p1 = svc.submit(QueryRequest::new(q.clone(), Algorithm::AnsW));
        let p2 = svc.submit(QueryRequest::new(q.clone(), Algorithm::AnsHeu));
        let p3 = svc.submit(QueryRequest::new(q.clone(), Algorithm::FMAnsW));
        svc.resume();
        let r3 = p3.wait();
        match r3.status {
            QueryStatus::Rejected {
                queue_full: true,
                queue_len,
            } => assert_eq!(queue_len, 2),
            other => panic!("expected queue-full rejection, got {other:?}"),
        }
        assert!(p1.wait().report().is_some());
        assert!(p2.wait().report().is_some());
        assert_eq!(svc.stats().rejected, 1);
    }

    #[test]
    fn cancel_before_run_terminates_with_cancelled() {
        // Every algorithm runs under the governor, so a cancel that lands
        // before the run is honoured by all of them alike.
        for algorithm in [
            Algorithm::AnsW,
            Algorithm::AnsWnc,
            Algorithm::AnsWb,
            Algorithm::AnsHeu,
            Algorithm::AnsHeuB(7),
            Algorithm::FMAnsW,
            Algorithm::WhyMany,
            Algorithm::WhyEmpty,
        ] {
            let (svc, q) = service(ServiceConfig {
                max_inflight: 1,
                base_config: base_cfg(),
                ..Default::default()
            });
            svc.pause();
            let p = svc.submit(QueryRequest::new(q, algorithm));
            p.cancel();
            svc.resume();
            let resp = p.wait();
            let report = resp.report().expect("cancel yields best-so-far");
            assert_eq!(report.termination, Termination::Cancelled, "{algorithm:?}");
        }
    }

    #[test]
    fn nonfinite_per_request_deadline_is_refused_as_spec_error() {
        // Regression (pre-fix failure): the per-request override wrote
        // `cfg.deadline_ms = dl` directly; +inf passed `validate()`'s
        // range check and then panicked inside `governor_for`
        // (`Duration::from_secs_f64` rejects non-finite), surfacing as a
        // WorkerPanicked after burning the retry ladder. NaN/negative were
        // caught, but as InvalidConfig a spec-driven caller can't
        // distinguish from a bad config *override*. All three now refuse
        // at the front door with WqeError::Spec.
        let (svc, q) = service(ServiceConfig {
            max_inflight: 1,
            base_config: base_cfg(),
            ..Default::default()
        });
        for bad in [f64::INFINITY, f64::NAN, f64::NEG_INFINITY, -5.0] {
            let resp =
                svc.call(QueryRequest::new(q.clone(), Algorithm::AnsW).with_deadline_ms(bad));
            match resp.status {
                QueryStatus::Failed {
                    error: WqeError::Spec(e),
                } => assert!(e.0.contains("deadline_ms"), "message names the field: {e}"),
                other => panic!("deadline {bad} must refuse with Spec, got {other:?}"),
            }
        }
        let stats = svc.stats();
        assert_eq!(stats.failed, 4);
        assert_eq!(stats.submitted, 0, "nothing reached the queue");
        assert_eq!(stats.counters.retries, 0, "nothing burned the retry ladder");
    }

    #[test]
    fn queue_dead_jobs_are_shed_at_dequeue() {
        // Regression (pre-fix failure): the deadline clock started at
        // worker pickup, so a job whose whole budget elapsed in the queue
        // still ran and produced Done. It must shed instead.
        let (svc, q) = service(ServiceConfig {
            max_inflight: 1,
            base_config: base_cfg(),
            ..Default::default()
        });
        svc.pause();
        let p = svc.submit(QueryRequest::new(q, Algorithm::AnsW).with_deadline_ms(5.0));
        std::thread::sleep(Duration::from_millis(30));
        svc.resume();
        let resp = p.wait();
        match resp.status {
            QueryStatus::Shed {
                reason:
                    ShedReason::DeadlineElapsed {
                        queue_ms,
                        deadline_ms,
                    },
            } => {
                assert!(queue_ms >= deadline_ms, "{queue_ms} >= {deadline_ms}");
                assert!((deadline_ms - 5.0).abs() < 1e-9);
            }
            other => panic!("expected DeadlineElapsed shed, got {other:?}"),
        }
        let stats = svc.stats();
        assert_eq!(stats.completed, 0);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.counters.shed_requests, 1);
    }

    #[test]
    fn overload_sheds_low_priority_and_tightens_deadlines() {
        let (svc, q) = service(ServiceConfig {
            max_inflight: 1,
            queue_cap: 4,
            base_config: base_cfg(),
            shed: ShedConfig {
                enabled: true,
                soft_watermark: 0.25,
                hard_watermark: 0.75,
                base_deadline_ms: 200.0,
                min_deadline_ms: 20.0,
            },
            ..Default::default()
        });
        svc.pause();
        // Fill to the hard watermark (3/4 = 0.75).
        let held: Vec<_> = (0..3)
            .map(|_| svc.submit(QueryRequest::new(q.clone(), Algorithm::AnsW)))
            .collect();
        let low = svc
            .submit(QueryRequest::new(q.clone(), Algorithm::AnsHeu).with_priority(Priority::Low));
        let shed = low.wait();
        match shed.status {
            QueryStatus::Shed {
                reason:
                    ShedReason::Overload {
                        queue_len,
                        queue_cap,
                    },
            } => {
                assert_eq!(queue_len, 3);
                assert_eq!(queue_cap, 4);
            }
            other => panic!("expected overload shed, got {other:?}"),
        }
        // Normal priority is still admitted past the hard watermark, but
        // with a tightened (imposed) deadline in its effective config:
        // checked against the paused queue's logical state, not a clock.
        let mut effective = base_cfg();
        assert_eq!(svc.shed_or_tighten(Priority::Normal, &mut effective), None);
        assert_eq!(
            effective.deadline_ms, 20.0,
            "hard watermark imposes the minimum"
        );
        let normal = svc.submit(QueryRequest::new(q, Algorithm::WhyMany));
        // Read while paused: exactly the one Overload shed so far. Once
        // resumed, held jobs may also be shed at dequeue (their tightened
        // deadlines can elapse in the queue), so counters are not final.
        let stats = svc.stats();
        assert_eq!(stats.counters.shed_requests, 1);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.queue_depth, 4, "three held jobs plus the normal one");
        svc.resume();
        let resp = normal.wait();
        match resp.status {
            QueryStatus::Shed {
                reason: ShedReason::DeadlineElapsed { deadline_ms, .. },
            } => assert_eq!(deadline_ms, 20.0, "shed against the tightened deadline"),
            QueryStatus::Shed { reason } => panic!("normal priority overload-shed: {reason:?}"),
            _ => assert!(!resp.is_rejected(), "normal priority is never rejected"),
        }
        for p in held {
            let r = p.wait();
            assert!(r.report().is_some() || r.is_shed());
        }
    }

    #[test]
    fn plan_entered_before_new_reaches_the_service_workers() {
        use wqe_pool::fault::{FaultPlan, FaultSite};
        let plan = Arc::new(FaultPlan::new(3).arm(FaultSite::AnswerCache, 1));
        let cfg = || ServiceConfig {
            max_inflight: 1,
            base_config: base_cfg(),
            ..Default::default()
        };
        let (bare, q) = service(cfg());
        let (armed, _) = {
            let _scope = Scope {
                faults: Some(Arc::clone(&plan)),
                ..Scope::default()
            }
            .enter();
            service(cfg())
        };
        // Requests come from this thread, outside any scope: only where
        // each service was built decides whether its workers fault.
        for svc in [&bare, &armed] {
            svc.call(QueryRequest::new(q.clone(), Algorithm::AnsW));
        }
        let warm = |svc: &QueryService| {
            svc.call(QueryRequest::new(q.clone(), Algorithm::AnsW))
                .cache_hit()
        };
        assert!(warm(&bare), "unscoped service hits its cache");
        assert!(!warm(&armed), "scoped service's cache probes fault");
        assert_eq!(bare.stats().counters.faults_injected, 0);
        assert!(armed.stats().counters.faults_injected > 0);
        assert_eq!(
            plan.fired(FaultSite::AnswerCache),
            armed.stats().counters.faults_injected
        );
    }

    #[test]
    fn rate_limiter_sheds_over_burst_tenants_only() {
        let (svc, q) = service(ServiceConfig {
            max_inflight: 1,
            queue_cap: 16,
            base_config: base_cfg(),
            rate_limit: Some(RateLimitConfig {
                per_sec: 0.001, // effectively no refill within the test
                burst: 2.0,
            }),
            ..Default::default()
        });
        let mut shed = 0;
        for _ in 0..4 {
            let resp = svc.call(QueryRequest::new(q.clone(), Algorithm::AnsW).with_tenant("t1"));
            match resp.status {
                QueryStatus::Shed {
                    reason: ShedReason::RateLimited { ref tenant },
                } => {
                    assert_eq!(tenant, "t1");
                    shed += 1;
                }
                QueryStatus::Done { .. } => {}
                other => panic!("unexpected status {other:?}"),
            }
        }
        assert_eq!(shed, 2, "burst of 2, then the bucket is empty");
        // A different tenant has its own bucket; no tenant bypasses.
        assert!(svc
            .call(QueryRequest::new(q.clone(), Algorithm::AnsW).with_tenant("t2"))
            .report()
            .is_some());
        assert!(svc
            .call(QueryRequest::new(q, Algorithm::AnsW))
            .report()
            .is_some());
        assert_eq!(svc.stats().counters.rate_limited, 2);
    }

    #[test]
    fn rate_limiter_forgets_refilled_tenants() {
        // Every tenant refills within a nanosecond, so no bucket outlives
        // the next sweep however many names a client cycles through.
        let limiter = RateLimiter {
            cfg: RateLimitConfig {
                per_sec: 1e12,
                burst: 1.0,
            },
            buckets: Mutex::default(),
        };
        for i in 0..10_000 {
            assert!(limiter.admit(&format!("tenant-{i}")));
        }
        let kept = limiter.buckets.lock().unwrap().by_tenant.len();
        assert!(kept <= BUCKET_SWEEP_MIN, "{kept} tenant buckets kept");
    }

    #[test]
    fn streaming_final_event_matches_blocking_call() {
        let (svc, q) = service(ServiceConfig {
            max_inflight: 1,
            base_config: base_cfg(),
            cache: CacheConfig { capacity: 0 },
            ..Default::default()
        });
        let blocking = svc.call(QueryRequest::new(q.clone(), Algorithm::AnsW));
        let stream = svc.submit_streaming(QueryRequest::new(q, Algorithm::AnsW));
        let mut updates = Vec::new();
        let mut done = None;
        for event in stream.iter() {
            match event {
                StreamEvent::Update(u) => updates.push(u),
                StreamEvent::Done(r) => done = Some(r),
            }
        }
        let done = done.expect("exactly one terminal event");
        let (b, s) = (blocking.report().unwrap(), done.report().unwrap());
        assert_eq!(
            b.best.as_ref().map(|r| r.closeness.to_bits()),
            s.best.as_ref().map(|r| r.closeness.to_bits())
        );
        assert_eq!(b.top_k.len(), s.top_k.len());
        assert_eq!(b.termination, s.termination);
        // Updates mirror the report's trace: one per best improvement,
        // strictly increasing closeness, contiguous seq.
        assert_eq!(updates.len(), s.trace.len());
        for (i, u) in updates.iter().enumerate() {
            assert_eq!(u.seq, i as u64);
            assert!(u.satisfies);
            if i > 0 {
                assert!(u.closeness > updates[i - 1].closeness);
            }
        }
        assert!(svc.stats().counters.stream_updates >= updates.len() as u64);
    }

    #[test]
    fn dropping_a_streaming_handle_mid_run_is_harmless() {
        let (svc, q) = service(ServiceConfig {
            max_inflight: 1,
            base_config: base_cfg(),
            ..Default::default()
        });
        // Drop the handle before the run even starts; the worker's sends
        // all hit a closed channel and must be ignored.
        svc.pause();
        let stream = svc.submit_streaming(QueryRequest::new(q.clone(), Algorithm::AnsW));
        drop(stream);
        svc.resume();
        // The service keeps serving; stats stay coherent.
        let resp = svc.call(QueryRequest::new(q, Algorithm::AnsW));
        assert!(resp.report().is_some());
        let stats = svc.stats();
        assert_eq!(stats.completed, 2, "the orphaned run still completed");
        assert_eq!(stats.failed, 0);
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let (svc, q) = service(ServiceConfig {
            max_inflight: 1,
            base_config: base_cfg(),
            cache: CacheConfig { capacity: 0 },
            ..Default::default()
        });
        let a = svc.call(QueryRequest::new(q.clone(), Algorithm::AnsW));
        let b = svc.call(QueryRequest::new(q, Algorithm::AnsW));
        assert!(!a.cache_hit() && !b.cache_hit());
        assert_eq!(svc.stats().cache_len, 0);
    }

    #[test]
    fn drop_drains_and_joins() {
        let (svc, q) = service(ServiceConfig {
            max_inflight: 2,
            base_config: base_cfg(),
            ..Default::default()
        });
        let pending: Vec<_> = (0..4)
            .map(|_| svc.submit(QueryRequest::new(q.clone(), Algorithm::AnsW)))
            .collect();
        drop(svc); // close + join: queued work still completes
        for p in pending {
            assert!(p.wait().report().is_some());
        }
    }
}
