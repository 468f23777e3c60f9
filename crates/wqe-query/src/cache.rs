//! The footprint-keyed cache (§5.2 "Caching the Stars").
//!
//! Q-Chase sequences produce highly similar queries; most rewrites share
//! most of their stars with previously evaluated queries. The cache keys
//! values by a canonical string, counts hits with a time-decay factor, and
//! evicts the least-hit entry when full. Every entry records the
//! [`Footprint`] of what it was computed from, so a publish can derive the
//! next epoch's cache by dropping only the entries its delta touched.
//!
//! One type serves both caches of the system: [`StarCache`] holds the
//! matcher's star tables (keyed by spec — labels, literals, bounds,
//! directions, not pattern-node identities), and the query service holds
//! one instance of complete answer reports per head epoch. The value type
//! fixes the cache's constant identity ([`Cached`]): its fault site and its
//! hit/miss/eviction counters.
//!
//! # Concurrency
//!
//! The cache is shared by concurrent sessions (the matcher is `Sync`), so
//! the table is split into shards, each guarded by its own mutex; a key is
//! pinned to one shard by hash. Concurrent lookups of different keys mostly
//! touch different shards and proceed in parallel; the replacement policy
//! (decayed least-hit) and the capacity bound are enforced per shard, which
//! keeps eviction decisions lock-local. Small capacities collapse to one
//! shard so eviction behaves exactly like the paper's single-table policy.

use crate::matcher::star::StarRow;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use wqe_graph::DeltaSummary;
use wqe_pool::fault::{self, FaultSite};
use wqe_pool::obs::{self, Counter};

/// What a cached value depends on — the *invalidation key* matched against
/// a publish's [`DeltaSummary`] when an epoch's cache is carried forward:
/// the labels of the pattern nodes the value read, the attributes of the
/// literals (and exemplar cells) it filtered on, and whether any of those
/// pattern nodes is label-free (wildcard).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Raw label ids the value's candidate sets were drawn from.
    pub labels: Vec<u32>,
    /// True when some pattern node has no label (its candidate set is the
    /// whole node set).
    pub wildcard: bool,
    /// Raw attr ids the value filtered on.
    pub attrs: Vec<u32>,
}

impl Footprint {
    /// True when a published delta can have changed this value: any
    /// topology change (distances and reachable leaf sets shift),
    /// membership churn on a label the value reads (or any label, for
    /// wildcard values — conservative), or a value change on an attribute
    /// it filters on. Pure attribute changes on unrelated attributes never
    /// match — that is what keeps invalidation keyed instead of a wholesale
    /// flush.
    pub fn affected_by(&self, delta: &DeltaSummary) -> bool {
        if delta.topology_changed() {
            return true;
        }
        if !delta.membership_labels.is_empty()
            && (self.wildcard
                || delta
                    .membership_labels
                    .iter()
                    .any(|l| self.labels.contains(&l.0)))
        {
            return true;
        }
        delta
            .touched_attrs
            .iter()
            .any(|a| self.attrs.contains(&a.0))
    }
}

/// The constant identity of a [`FootprintCache`] instance, fixed by its
/// value type: the fault site whose firing forces a lookup to miss, and
/// the counters its hits, misses and evictions land in (through the
/// thread's current profiler).
pub trait Cached {
    /// Fault site consulted on every lookup.
    const FAULT: FaultSite;
    /// Counter bumped per hit.
    const HIT: Counter;
    /// Counter bumped per miss.
    const MISS: Counter;
    /// Counter bumped per eviction (capacity or carry-over).
    const EVICTION: Counter;
}

impl Cached for Vec<StarRow> {
    const FAULT: FaultSite = FaultSite::StarCache;
    const HIT: Counter = Counter::CacheHit;
    const MISS: Counter = Counter::CacheMiss;
    const EVICTION: Counter = Counter::CacheEviction;
}

struct Entry<V> {
    value: Arc<V>,
    footprint: Footprint,
    hits: f64,
    last_tick: u64,
}

/// A bounded, sharded cache with least-hit replacement and hit decay,
/// whose entries carry the [`Footprint`] they were computed from.
pub struct FootprintCache<V> {
    shards: Vec<Mutex<Shard<V>>>,
    shard_capacity: usize,
    decay: f64,
}

/// The matcher's star-table cache.
pub type StarCache = FootprintCache<Vec<StarRow>>;

struct Shard<V> {
    map: HashMap<String, Entry<V>>,
    /// Keys being computed by [`FootprintCache::get_or_compute`], each with
    /// the lock its computing thread holds until the value is in `map`.
    flights: HashMap<String, Arc<Mutex<()>>>,
    tick: u64,
}

impl<V> Default for Shard<V> {
    fn default() -> Self {
        Shard {
            map: HashMap::new(),
            flights: HashMap::new(),
            tick: 0,
        }
    }
}

/// Withdraws a key's flight when the thread computing it is done.
struct Landing<'a, V> {
    shard: &'a Mutex<Shard<V>>,
    key: &'a str,
}

impl<V> Drop for Landing<'_, V> {
    fn drop(&mut self) {
        relock(self.shard.lock()).flights.remove(self.key);
    }
}

/// Shards for caches of at least this capacity; smaller caches use a single
/// shard so the (tiny) table keeps the exact single-policy eviction order.
const SHARD_THRESHOLD: usize = 64;
const SHARD_COUNT: usize = 8;

fn relock<'a, T>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    // A panicking evaluation thread must not wedge every other session
    // sharing the cache; the data is a cache, so the entries a poisoned
    // shard holds are still structurally valid.
    r.unwrap_or_else(PoisonError::into_inner)
}

impl StarCache {
    /// Default sizing used by the algorithms: 4096 tables, decay 0.95.
    pub fn default_sized() -> Self {
        StarCache::new(4096, 0.95)
    }
}

impl<V: Cached> FootprintCache<V> {
    /// Creates a cache holding at most `capacity` values. `decay` in
    /// `(0, 1]` down-weights old hits per tick (1.0 disables decay).
    pub fn new(capacity: usize, decay: f64) -> Self {
        let capacity = capacity.max(1);
        let shards = if capacity >= SHARD_THRESHOLD {
            SHARD_COUNT
        } else {
            1
        };
        FootprintCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_capacity: capacity.div_ceil(shards),
            decay: decay.clamp(1e-6, 1.0),
        }
    }

    fn shard_for(&self, key: &str) -> &Mutex<Shard<V>> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Looks up `key`, counting a hit or a miss. A fired [`Cached::FAULT`]
    /// skips the hit lookup and reports a miss — safe by construction,
    /// since a cached value is a pure function of its key and epoch, so
    /// the recomputed value is equivalent to the cached one.
    pub fn get(&self, key: &str) -> Option<Arc<V>> {
        self.lookup(&mut relock(self.shard_for(key).lock()), key)
    }

    /// [`get`](Self::get) on a shard the caller has locked.
    fn lookup(&self, inner: &mut Shard<V>, key: &str) -> Option<Arc<V>> {
        let forced_miss = fault::fire(V::FAULT).is_some();
        inner.tick += 1;
        let tick = inner.tick;
        if !forced_miss {
            if let Some(e) = inner.map.get_mut(key) {
                // Decay the stored score to "now", then record the hit.
                let age = (tick - e.last_tick) as i32;
                e.hits = e.hits * self.decay.powi(age) + 1.0;
                e.last_tick = tick;
                let value = Arc::clone(&e.value);
                obs::with_current(|p| p.add(V::HIT, 1));
                return Some(value);
            }
        }
        obs::with_current(|p| p.add(V::MISS, 1));
        None
    }

    /// Inserts `value` under `key`, evicting the entry with the smallest
    /// decayed score when the shard is full. If another thread inserted
    /// the key first, its value wins and is returned (values are
    /// deterministic, so both are equivalent). The `footprint` closure runs
    /// only when a fresh entry is inserted.
    pub fn insert<P>(&self, key: &str, value: Arc<V>, footprint: P) -> Arc<V>
    where
        P: FnOnce() -> Footprint,
    {
        let mut inner = relock(self.shard_for(key).lock());
        // Advance the shard clock for the insert itself: other lookups may
        // have aged the shard since the miss, and entries inserted
        // back-to-back must not share one stale `last_tick` (that skews the
        // decayed-least-hit victim choice toward evicting fresh entries).
        inner.tick += 1;
        let tick = inner.tick;
        if inner.map.len() >= self.shard_capacity && !inner.map.contains_key(key) {
            let victim = inner
                .map
                .iter()
                .min_by(|(_, a), (_, b)| {
                    let sa = a.hits * self.decay.powi((tick - a.last_tick) as i32);
                    let sb = b.hits * self.decay.powi((tick - b.last_tick) as i32);
                    sa.total_cmp(&sb)
                })
                .map(|(k, _)| k.clone());
            if let Some(k) = victim {
                inner.map.remove(&k);
                obs::with_current(|p| p.add(V::EVICTION, 1));
            }
        }
        match inner.map.entry(key.to_string()) {
            std::collections::hash_map::Entry::Occupied(e) => Arc::clone(&e.get().value),
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(Entry {
                    value: Arc::clone(&value),
                    footprint: footprint(),
                    hits: 1.0,
                    last_tick: tick,
                });
                value
            }
        }
    }

    /// Looks up `key`, or computes with `compute` and inserts. The compute
    /// runs outside the shard lock, once per key at a time: a thread that
    /// misses while another computes the same key waits for it and takes
    /// its value, so concurrent misses never compute one key twice and the
    /// work done does not depend on thread timing.
    pub fn get_or_compute<F, P>(&self, key: &str, footprint: P, compute: F) -> Arc<V>
    where
        F: FnOnce() -> V,
        P: FnOnce() -> Footprint,
    {
        // The lookup and the flight check share one lock, so a thread
        // that misses cannot find the key's flight already landed and
        // withdrawn, and compute the value a second time.
        let shard = self.shard_for(key);
        let mut inner = relock(shard.lock());
        if let Some(value) = self.lookup(&mut inner, key) {
            return value;
        }
        let flight = Arc::new(Mutex::new(()));
        if let Some(other) = inner.flights.get(key).cloned() {
            drop(inner);
            drop(relock(other.lock()));
            // The value is there unless the computing thread panicked or
            // an eviction took it since; then compute it here.
            let landed = relock(shard.lock())
                .map
                .get(key)
                .map(|e| Arc::clone(&e.value));
            return landed.unwrap_or_else(|| self.insert(key, Arc::new(compute()), footprint));
        }
        // Locked before it is published, so a waiter cannot overtake it.
        let _turn = relock(flight.lock());
        inner.flights.insert(key.to_string(), Arc::clone(&flight));
        drop(inner);
        // Dropped before `_turn`, panic or not: the flight is withdrawn
        // before its waiters are let go.
        let _landing = Landing { shard, key };
        self.insert(key, Arc::new(compute()), footprint)
    }

    /// Derives the next epoch's cache from this one after a publish:
    /// entries whose [`Footprint`] is [`affected_by`] the delta are
    /// dropped (counted as evictions), every other entry is carried over
    /// (shared `Arc` values, no recomputation) and keeps hitting in the new
    /// epoch. `self` — the *old* epoch's cache — is left
    /// untouched, which is what keeps sessions still pinned to the old
    /// epoch bit-stable.
    ///
    /// [`affected_by`]: Footprint::affected_by
    pub fn carry_over(&self, delta: &DeltaSummary) -> (Self, u64) {
        let next = FootprintCache {
            shards: (0..self.shards.len())
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            shard_capacity: self.shard_capacity,
            decay: self.decay,
        };
        let mut evicted = 0u64;
        for (old_shard, new_shard) in self.shards.iter().zip(&next.shards) {
            let old = relock(old_shard.lock());
            let mut fresh = relock(new_shard.lock());
            for (key, e) in &old.map {
                if e.footprint.affected_by(delta) {
                    evicted += 1;
                    obs::with_current(|p| p.add(V::EVICTION, 1));
                } else {
                    fresh.map.insert(
                        key.clone(),
                        Entry {
                            value: Arc::clone(&e.value),
                            footprint: e.footprint.clone(),
                            hits: e.hits,
                            last_tick: 0,
                        },
                    );
                }
            }
        }
        (next, evicted)
    }

    /// Number of cached values.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| relock(s.lock()).map.len()).sum()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all entries.
    pub fn clear(&self) {
        for s in &self.shards {
            relock(s.lock()).map.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use wqe_graph::NodeId;
    use wqe_pool::obs::Profiler;
    use wqe_pool::scope::{Scope, ScopeGuard};

    /// A fresh profiler entered for the rest of a test: the cache's hit,
    /// miss and eviction counters land in it.
    struct Ledger(Arc<Profiler>, ScopeGuard);

    impl Ledger {
        fn enter() -> Self {
            let p = Arc::new(Profiler::new());
            let scope = Scope {
                profiler: Some(Arc::clone(&p)),
                ..Scope::default()
            };
            Ledger(p, scope.enter())
        }
        fn hits(&self) -> u64 {
            self.0.counter(Counter::CacheHit)
        }
        fn misses(&self) -> u64 {
            self.0.counter(Counter::CacheMiss)
        }
        fn evictions(&self) -> u64 {
            self.0.counter(Counter::CacheEviction)
        }
    }

    fn row(v: u32) -> StarRow {
        StarRow {
            center: NodeId(v),
            leaf_matches: vec![],
        }
    }

    #[test]
    fn hit_and_miss_counting() {
        let l = Ledger::enter();
        let c = StarCache::new(8, 1.0);
        let a = c.get_or_compute("k1", Footprint::default, || vec![row(1)]);
        let b = c.get_or_compute("k1", Footprint::default, || panic!("must hit"));
        assert_eq!(a[0].center, b[0].center);
        assert_eq!(l.hits(), 1);
        assert_eq!(l.misses(), 1);
    }

    #[test]
    fn least_hit_eviction() {
        let l = Ledger::enter();
        let c = StarCache::new(2, 1.0);
        c.get_or_compute("hot", Footprint::default, || vec![row(1)]);
        c.get_or_compute("hot", Footprint::default, || unreachable!());
        c.get_or_compute("hot", Footprint::default, || unreachable!());
        c.get_or_compute("cold", Footprint::default, || vec![row(2)]);
        // Inserting a third key evicts "cold" (1 hit) not "hot" (3 hits).
        c.get_or_compute("new", Footprint::default, || vec![row(3)]);
        assert_eq!(c.len(), 2);
        let before = l.misses();
        c.get_or_compute("hot", Footprint::default, || {
            panic!("hot should have survived")
        });
        assert_eq!(l.misses(), before);
    }

    #[test]
    fn decay_prefers_recent() {
        let l = Ledger::enter();
        let c = StarCache::new(2, 0.5);
        // "old" gets many early hits, then goes quiet.
        for _ in 0..5 {
            c.get_or_compute("old", Footprint::default, || vec![row(1)]);
        }
        // "fresh" gets recent traffic.
        for _ in 0..30 {
            c.get_or_compute("fresh", Footprint::default, || vec![row(2)]);
        }
        c.get_or_compute("new", Footprint::default, || vec![row(3)]);
        // "old"'s decayed score is tiny; it is the victim.
        let misses = l.misses();
        c.get_or_compute("fresh", Footprint::default, || {
            panic!("fresh should survive")
        });
        assert_eq!(l.misses(), misses);
    }

    #[test]
    fn a_touched_entry_outlives_an_untouched_one() {
        // The answer cache's former LRU case, at every decay: "a" and "b"
        // are inserted, "a" is touched, and a third key evicts "b".
        for decay in [1.0, 0.95, 0.5] {
            let l = Ledger::enter();
            let c = StarCache::new(2, decay);
            c.get_or_compute("a", Footprint::default, || vec![row(1)]);
            c.get_or_compute("b", Footprint::default, || vec![row(2)]);
            assert!(c.get("a").is_some());
            c.get_or_compute("c", Footprint::default, || vec![row(3)]);
            assert_eq!(l.evictions(), 1, "decay {decay}");
            assert!(c.get("a").is_some(), "decay {decay}: a was evicted");
            assert!(c.get("b").is_none(), "decay {decay}: b survived");
            assert!(c.get("c").is_some(), "decay {decay}: c was evicted");
        }
    }

    #[test]
    fn small_capacity_stays_single_sharded() {
        let c = StarCache::new(SHARD_THRESHOLD - 1, 1.0);
        assert_eq!(c.shards.len(), 1);
        let c = StarCache::new(SHARD_THRESHOLD, 1.0);
        assert_eq!(c.shards.len(), SHARD_COUNT);
        // Shard capacities still cover the configured total.
        assert!(c.shard_capacity * c.shards.len() >= SHARD_THRESHOLD);
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let l = Ledger::enter();
        let c = std::sync::Arc::new(StarCache::new(64, 1.0));
        let mut handles = Vec::new();
        for t in 0..8 {
            let c = std::sync::Arc::clone(&c);
            let scope = Scope::current();
            handles.push(std::thread::spawn(move || {
                let _scope = scope.enter();
                for i in 0..200 {
                    let key = format!("k{}", (t + i) % 16);
                    let rows = c.get_or_compute(&key, Footprint::default, || {
                        vec![row(((t + i) % 16) as u32)]
                    });
                    // Every reader must see the value keyed content.
                    assert_eq!(rows[0].center.0, ((t + i) % 16) as u32);
                }
            }));
        }
        for h in handles {
            h.join().expect("no panic under contention");
        }
        assert_eq!(l.hits() + l.misses(), 8 * 200);
        assert!(c.len() <= 16);
    }

    #[test]
    fn racing_inserts_converge_to_one_entry() {
        // Hammer a single key from many threads; the first insert must win
        // and the cache must end with exactly one entry for it.
        let l = Ledger::enter();
        let c = std::sync::Arc::new(StarCache::new(256, 1.0));
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(8));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = std::sync::Arc::clone(&c);
            let barrier = std::sync::Arc::clone(&barrier);
            let scope = Scope::current();
            handles.push(std::thread::spawn(move || {
                let _scope = scope.enter();
                barrier.wait();
                for _ in 0..100 {
                    let rows = c.get_or_compute("shared", Footprint::default, || vec![row(7)]);
                    assert_eq!(rows[0].center.0, 7);
                }
            }));
        }
        for h in handles {
            h.join().expect("no panic");
        }
        assert_eq!(c.len(), 1);
        assert_eq!(l.hits() + l.misses(), 8 * 100);
        assert_eq!(l.evictions(), 0);
    }

    #[test]
    fn insert_advances_the_shard_clock() {
        // Regression for the stale-insert-tick bug: the insert path used to
        // read `inner.tick` without advancing it, so an entry's `last_tick`
        // reflected the *previous* lookup, making fresh inserts look older
        // than they are and skewing eviction toward recently inserted keys.
        //
        // Single shard (capacity 3 < SHARD_THRESHOLD), decay 0.9. Build up:
        //   "a": inserted early, one late refresh  -> small decayed score
        //   "f": inserted early, 12 hits           -> large decayed score
        //   "b": inserted last, never hit          -> score 1.0, barely aged
        // Then insert "c", forcing one eviction. With correct insert ticks
        // the decayed scores at eviction time are a≈0.79 < b=0.81 << f, so
        // the stalest entry "a" is the victim. With the stale-tick bug "b"'s
        // insert tick equals the preceding lookup's, its score decays as if
        // it were older, and the cache wrongly evicts its newest entry "b".
        let l = Ledger::enter();
        let c = StarCache::new(3, 0.9);
        c.get_or_compute("a", Footprint::default, || vec![row(1)]);
        c.get_or_compute("f", Footprint::default, || vec![row(2)]);
        for _ in 0..12 {
            c.get_or_compute("f", Footprint::default, || unreachable!("f is cached"));
        }
        c.get_or_compute("a", Footprint::default, || unreachable!("a is cached"));
        c.get_or_compute("b", Footprint::default, || vec![row(3)]);
        c.get_or_compute("c", Footprint::default, || vec![row(4)]); // evicts exactly one entry
        assert_eq!(l.evictions(), 1);
        assert_eq!(c.len(), 3);
        // "b" must have survived ...
        let misses = l.misses();
        c.get_or_compute("b", Footprint::default, || {
            panic!("the newest entry was evicted")
        });
        assert_eq!(l.misses(), misses);
        // ... and "a" (stalest, lowest decayed score) must be the victim.
        c.get_or_compute("a", Footprint::default, || vec![row(1)]);
        assert_eq!(l.misses(), misses + 1, "a should have been evicted");
    }

    #[test]
    fn a_panicking_computation_withdraws_its_flight() {
        let c = StarCache::new(8, 1.0);
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.get_or_compute("k", Footprint::default, || panic!("injected"))
        }));
        assert!(crashed.is_err());
        assert!(relock(c.shard_for("k").lock()).flights.is_empty());
        let rows = c.get_or_compute("k", Footprint::default, || vec![row(5)]);
        assert_eq!(rows[0].center, NodeId(5));
    }

    #[test]
    fn two_threads_racing_a_cold_key_converge() {
        // Two threads race `get_or_compute` on the same cold key, with the
        // materialization window held open long enough that both usually
        // miss: both must get equivalent rows, exactly one entry survives,
        // the value is computed once, and the counters add up to the two
        // lookups.
        let l = Ledger::enter();
        let c = std::sync::Arc::new(StarCache::new(8, 1.0));
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(2));
        let computed = std::sync::Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let c = std::sync::Arc::clone(&c);
            let barrier = std::sync::Arc::clone(&barrier);
            let computed = std::sync::Arc::clone(&computed);
            let scope = Scope::current();
            handles.push(std::thread::spawn(move || {
                let _scope = scope.enter();
                barrier.wait();
                c.get_or_compute("cold", Footprint::default, || {
                    computed.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    vec![row(42)]
                })
            }));
        }
        let rows: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("no panic under the race"))
            .collect();
        for r in &rows {
            assert_eq!(r.len(), 1);
            assert_eq!(r[0].center, NodeId(42));
        }
        assert_eq!(c.len(), 1, "exactly one entry survives the race");
        assert_eq!(l.hits() + l.misses(), 2, "one lookup per thread");
        assert!(l.misses() >= 1, "someone had to materialize");
        assert_eq!(computed.load(Ordering::Relaxed), 1, "computed once");
        assert_eq!(l.evictions(), 0);
        // The survivor serves subsequent lookups as a plain hit.
        let (hits, misses) = (l.hits(), l.misses());
        c.get_or_compute("cold", Footprint::default, || panic!("must hit"));
        assert_eq!((l.hits(), l.misses()), (hits + 1, misses));
    }

    #[test]
    fn a_cold_key_is_computed_once_however_fast_it_lands() {
        // As above with an instant computation, so a racer's flight often
        // lands between another thread's miss and its flight check; each
        // of many cold keys must still be computed exactly once.
        const THREADS: usize = 4;
        const KEYS: usize = 300;
        let c = std::sync::Arc::new(StarCache::new(4096, 1.0));
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(THREADS));
        let computed = std::sync::Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let c = std::sync::Arc::clone(&c);
                let barrier = std::sync::Arc::clone(&barrier);
                let computed = std::sync::Arc::clone(&computed);
                std::thread::spawn(move || {
                    for k in 0..KEYS {
                        barrier.wait();
                        c.get_or_compute(&format!("k{k}"), Footprint::default, || {
                            computed.fetch_add(1, Ordering::Relaxed);
                            vec![row(k as u32)]
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("no panic under the race");
        }
        assert_eq!(c.len(), KEYS);
        assert_eq!(
            computed.load(Ordering::Relaxed),
            KEYS,
            "one compute per key"
        );
    }

    #[test]
    fn clear_empties_the_cache() {
        let l = Ledger::enter();
        let c = StarCache::new(4, 1.0);
        c.get_or_compute("a", Footprint::default, std::vec::Vec::new);
        c.clear();
        assert!(c.is_empty());
        c.get_or_compute("a", Footprint::default, std::vec::Vec::new);
        assert_eq!(l.misses(), 2);
    }

    #[test]
    fn carry_over_evicts_by_footprint() {
        use wqe_graph::{AttrId, LabelId};
        let l = Ledger::enter();
        let c = StarCache::new(8, 1.0);
        let on_label_3 = || Footprint {
            labels: vec![3],
            ..Footprint::default()
        };
        let on_attr_7 = || Footprint {
            labels: vec![5],
            attrs: vec![7],
            ..Footprint::default()
        };
        c.get_or_compute("l3", on_label_3, || vec![row(1)]);
        c.get_or_compute("a7", on_attr_7, || vec![row(2)]);

        // Attr-only delta on an unrelated attribute: nothing evicted.
        let delta = DeltaSummary {
            touched_attrs: vec![AttrId(9)],
            attr_labels: vec![LabelId(5)],
            ..DeltaSummary::default()
        };
        let (next, evicted) = c.carry_over(&delta);
        assert_eq!(evicted, 0);
        assert_eq!(next.len(), 2);

        // Delta touching attr 7: only the attr-keyed entry is dropped; the
        // label-only entry survives and still hits without recompute.
        let delta = DeltaSummary {
            touched_attrs: vec![AttrId(7)],
            attr_labels: vec![LabelId(5)],
            ..DeltaSummary::default()
        };
        let (next, evicted) = c.carry_over(&delta);
        assert_eq!(evicted, 1);
        assert_eq!(next.len(), 1);
        let r = next.get_or_compute("l3", on_label_3, || panic!("must survive carry-over"));
        assert_eq!(r[0].center, NodeId(1));
        assert_eq!(l.evictions(), 1, "the carry-over eviction is counted");
        // The old cache is untouched — pinned sessions keep hitting it.
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn carry_over_topology_and_membership() {
        use wqe_graph::{LabelId, NodeId};
        let l = Ledger::enter();
        let c = StarCache::new(8, 1.0);
        let wildcard = || Footprint {
            wildcard: true,
            ..Footprint::default()
        };
        let on_label_2 = || Footprint {
            labels: vec![2],
            ..Footprint::default()
        };
        c.get_or_compute("wild", wildcard, || vec![row(1)]);
        c.get_or_compute("l2", on_label_2, || vec![row(2)]);

        // Membership churn on label 9 evicts wildcard tables but not a
        // table keyed to label 2.
        let delta = DeltaSummary {
            membership_labels: vec![LabelId(9)],
            ..DeltaSummary::default()
        };
        let (next, evicted) = c.carry_over(&delta);
        assert_eq!(evicted, 1);
        assert_eq!(next.len(), 1);

        // Any topology change flushes everything.
        let delta = DeltaSummary {
            inserted_edges: vec![(NodeId(0), NodeId(1))],
            ..DeltaSummary::default()
        };
        let (next, evicted) = c.carry_over(&delta);
        assert_eq!(evicted, 2);
        assert!(next.is_empty());
        assert_eq!(l.evictions(), 3, "every carry-over eviction is counted");
    }
}
