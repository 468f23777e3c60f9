//! # wqe-pool
//!
//! A small scoped worker-pool for deterministic fork-join parallelism.
//!
//! Every parallel hot path in the WQE stack — batched `AnsW` frontier
//! expansion, beam evaluation, matcher candidate verification, windowed PLL
//! index construction — has the same shape: a slice of independent work
//! items, a function per item, and a *merge step that must observe results
//! in item order* so that the degree of parallelism never changes answers.
//! [`WorkerPool::map`] captures exactly that contract: results come back in
//! input order regardless of how items were scheduled across threads.
//!
//! The pool sits below `wqe-index` and `wqe-query` in the crate graph (it
//! depends on nothing), and is re-exported as `wqe_core::pool` for
//! algorithm-level callers. The request [`scope`] — the query
//! [`governor`], the [`obs`] profiler and the [`fault`] plan — lives here
//! for the same reason: every layer above needs to see it.
//!
//! Threads are scoped (`std::thread::scope`), so borrowing the enclosing
//! stack — a `&Session`, a `&Graph`, a partially built index — is free: no
//! `'static` bounds, no `Arc` plumbing, no long-lived pool threads to shut
//! down.
//!
//! ## Panic containment
//!
//! Every `map` variant catches per-item panics instead of letting them
//! unwind through the pool: [`WorkerPool::map_governed`] surfaces the
//! first (lowest-item-index) panic as a typed [`PoolError::Panicked`],
//! while [`WorkerPool::map`] re-raises it as its own panic *after* all
//! workers have drained — so a panicking item can never leave the pool (or
//! the thread-local scope stack) in a broken state, and the same pool
//! value is reusable for the next call.

#![warn(missing_docs)]

pub mod fault;
pub mod governor;
pub mod obs;
pub mod scope;
pub mod serve;

use governor::Termination;
use scope::Scope;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Resolves a user-facing thread-count knob: `0` means *auto* (one worker
/// per available core, as reported by
/// [`std::thread::available_parallelism`]); any other value is taken
/// literally. Always returns at least 1.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Why a pool run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// A worker's item function panicked. `item` is the lowest panicking
    /// item index (deterministic under races); `message` is the panic
    /// payload when it was a string, or a placeholder otherwise.
    Panicked {
        /// Index of the item whose function panicked.
        item: usize,
        /// The stringified panic payload.
        message: String,
    },
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::Panicked { item, message } => {
                write!(f, "worker panicked on item {item}: {message}")
            }
        }
    }
}

impl std::error::Error for PoolError {}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A fixed-width scoped worker pool.
///
/// The pool itself is trivially cheap (one `usize`); workers are spawned
/// per [`map`](WorkerPool::map) call and joined before it returns, so a
/// `WorkerPool` can be created once per search and reused for every batch.
///
/// Scheduling is dynamic (an atomic work-stealing cursor), which keeps
/// skewed item costs balanced; determinism comes from re-ordering results
/// by item index before returning, never from the schedule.
#[derive(Debug, Clone, Copy)]
pub struct WorkerPool {
    threads: usize,
}

impl WorkerPool {
    /// Creates a pool with the given width. `0` means auto
    /// (see [`resolve_threads`]).
    pub fn new(threads: usize) -> Self {
        WorkerPool {
            threads: resolve_threads(threads),
        }
    }

    /// The number of worker threads `map` will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item, in parallel, returning results in item
    /// order. `f` receives `(item_index, &item)`.
    ///
    /// With one thread (or zero/one items) this degenerates to a plain
    /// serial loop with no spawning, so callers can use it unconditionally.
    ///
    /// Panics in `f` are *contained* per item (the payload is captured, the
    /// remaining workers stop pulling items and drain), then re-raised here
    /// as a `worker panicked on item {i}: {message}` panic once all workers
    /// have stopped — so `map` keeps its historical propagate-panic
    /// behavior, but the pool and the thread-local scope stack are left
    /// clean and reusable. Use [`WorkerPool::map_governed`] to receive the
    /// panic as a typed [`PoolError`] instead.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.map_init(items, || (), |_, i, item| f(i, item))
    }

    /// [`map`](WorkerPool::map) with per-worker scratch state: `init` runs
    /// once on each worker thread and the resulting state is threaded
    /// through every item that worker processes. Use it to reuse expensive
    /// buffers (BFS queues, distance arrays) across items without sharing
    /// them across threads.
    pub fn map_init<T, R, S, I, F>(&self, items: &[T], init: I, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        S: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &T) -> R + Sync,
    {
        match self.run_core(items, init, f, false) {
            Ok((slots, _)) => slots
                .into_iter()
                .map(|r| r.expect("ungoverned runs complete every item"))
                .collect(),
            Err(PoolError::Panicked { item, message }) => {
                panic!("worker panicked on item {item}: {message}")
            }
        }
    }

    /// Governed, fallible map: polls the current scope's governor
    /// (`halt()`: cancellation / deadline — never the deterministic caps)
    /// between items and stops pulling new work once it trips, draining
    /// items already in flight. Returns one `Option<R>` per item
    /// (`None` = skipped) plus the observed termination, if any. A panic in
    /// `f` is captured and returned as [`PoolError::Panicked`] (lowest item
    /// index wins) after all in-flight work has drained, instead of
    /// unwinding. With no governor in scope nothing halts.
    pub fn map_governed<T, R, F>(
        &self,
        items: &[T],
        f: F,
    ) -> Result<(Vec<Option<R>>, Option<Termination>), PoolError>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.run_core(items, || (), |_, i, item| f(i, item), true)
    }

    /// The shared engine behind every map variant.
    ///
    /// * catches per-item panics (`AssertUnwindSafe`: items are independent
    ///   and shared state below is poison-recovering), recording the lowest
    ///   panicking item index and aborting further pulls;
    /// * when `governed`, polls the scope governor's `halt()` before each
    ///   pull and records the first observed termination;
    /// * carries the caller's [`Scope`] into every worker thread.
    fn run_core<T, R, S, I, F>(
        &self,
        items: &[T],
        init: I,
        f: F,
        governed: bool,
    ) -> Result<(Vec<Option<R>>, Option<Termination>), PoolError>
    where
        T: Sync,
        R: Send,
        S: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &T) -> R + Sync,
    {
        // Worker threads start with no scope; each enters the caller's, so
        // governed layers keep working across the fan-out, spans recorded
        // inside workers land in the owning session's profile, and injected
        // faults reach exactly the work the plan was entered for.
        let scope = Scope::current();
        let gov = scope.governor.as_deref().filter(|_| governed);
        let n = items.len();
        let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        let workers = self.threads.min(n);

        if workers <= 1 {
            // Serial path on the caller's thread, already in its scope.
            let mut state = init();
            let mut halted = None;
            for (i, item) in items.iter().enumerate() {
                if let Some(g) = gov {
                    if let Some(t) = g.halt() {
                        halted = Some(t);
                        break;
                    }
                }
                match catch_unwind(AssertUnwindSafe(|| {
                    fault_pool_item(i);
                    f(&mut state, i, item)
                })) {
                    Ok(r) => slots[i] = Some(r),
                    Err(p) => {
                        return Err(PoolError::Panicked {
                            item: i,
                            message: panic_message(&*p),
                        })
                    }
                }
            }
            note_pool_run(&slots);
            return Ok((slots, halted));
        }

        let cursor = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        let first_panic: Mutex<Option<(usize, String)>> = Mutex::new(None);
        let halted_slot: Mutex<Option<Termination>> = Mutex::new(None);

        let tagged: Vec<(usize, R)> = std::thread::scope(|threads| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let cursor = &cursor;
                    let abort = &abort;
                    let first_panic = &first_panic;
                    let halted_slot = &halted_slot;
                    let init = &init;
                    let f = &f;
                    let scope = scope.clone();
                    threads.spawn(move || {
                        let _scope = scope.enter();
                        let mut state = init();
                        let mut out: Vec<(usize, R)> = Vec::new();
                        loop {
                            if abort.load(Ordering::Relaxed) {
                                break;
                            }
                            if let Some(g) = gov {
                                if let Some(t) = g.halt() {
                                    let mut h =
                                        halted_slot.lock().unwrap_or_else(PoisonError::into_inner);
                                    h.get_or_insert(t);
                                    break;
                                }
                            }
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            match catch_unwind(AssertUnwindSafe(|| {
                                fault_pool_item(i);
                                f(&mut state, i, &items[i])
                            })) {
                                Ok(r) => out.push((i, r)),
                                Err(p) => {
                                    let msg = panic_message(&*p);
                                    let mut slot =
                                        first_panic.lock().unwrap_or_else(PoisonError::into_inner);
                                    match slot.as_ref() {
                                        Some(&(j, _)) if j <= i => {}
                                        _ => *slot = Some((i, msg)),
                                    }
                                    abort.store(true, Ordering::Relaxed);
                                    break;
                                }
                            }
                        }
                        out
                    })
                })
                .collect();
            let mut all = Vec::with_capacity(n);
            for h in handles {
                match h.join() {
                    Ok(part) => all.extend(part),
                    // Unreachable for item panics (caught above); covers a
                    // hypothetical panic in `init` itself.
                    Err(p) => {
                        let msg = panic_message(&*p);
                        let mut slot = first_panic.lock().unwrap_or_else(PoisonError::into_inner);
                        slot.get_or_insert((0, msg));
                    }
                }
            }
            all
        });

        if let Some((item, message)) = first_panic
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
        {
            return Err(PoolError::Panicked { item, message });
        }
        for (i, r) in tagged {
            slots[i] = Some(r);
        }
        let halted = halted_slot
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        note_pool_run(&slots);
        Ok((slots, halted))
    }
}

/// The pool-worker fault-injection site: panics inside the per-item
/// `catch_unwind` when the scoped [`fault::FaultPlan`] says so, so an
/// injected worker fault surfaces exactly like a real one — as a typed
/// [`PoolError::Panicked`]. One thread-local borrow when no plan is in
/// scope.
fn fault_pool_item(i: usize) {
    if fault::fire(fault::FaultSite::PoolWorker).is_some() {
        panic!("injected pool-worker fault at item {i}");
    }
}

/// Counts one completed pool run (and its completed items) into the
/// calling thread's current profiler. Called from the caller's thread on
/// both the serial and the parallel path, after the run has drained, so
/// the totals are parallelism-invariant whenever the item outcomes are.
fn note_pool_run<R>(slots: &[Option<R>]) {
    obs::with_current(|p| {
        p.add(obs::Counter::PoolRun, 1);
        let done = slots.iter().filter(|s| s.is_some()).count();
        p.add(obs::Counter::PoolTask, done as u64);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use governor::Governor;
    use std::sync::Arc;

    #[test]
    fn resolve_zero_is_auto() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn map_preserves_item_order() {
        let pool = WorkerPool::new(4);
        let items: Vec<usize> = (0..100).collect();
        let out = pool.map(&items, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..57).collect();
        let f = |_: usize, &x: &u64| x.wrapping_mul(x).wrapping_add(7);
        let serial = WorkerPool::new(1).map(&items, f);
        for threads in [2, 4, 8] {
            assert_eq!(WorkerPool::new(threads).map(&items, f), serial);
        }
    }

    #[test]
    fn borrows_enclosing_stack() {
        let data = vec![1, 2, 3, 4];
        let pool = WorkerPool::new(2);
        let out = pool.map(&data, |_, &x| data.iter().sum::<i32>() + x);
        assert_eq!(out, vec![11, 12, 13, 14]);
    }

    #[test]
    fn map_init_reuses_worker_state() {
        let pool = WorkerPool::new(3);
        let items: Vec<usize> = (0..40).collect();
        // Each worker's scratch counts how many items it processed; results
        // must still come back in item order.
        let out = pool.map_init(
            &items,
            || 0usize,
            |seen, i, &x| {
                *seen += 1;
                assert!(*seen <= items.len());
                (i, x + 1)
            },
        );
        for (i, (idx, val)) in out.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(*val, i + 1);
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let pool = WorkerPool::new(8);
        let empty: Vec<u8> = Vec::new();
        assert!(pool.map(&empty, |_, &x| x).is_empty());
        assert_eq!(pool.map(&[42u8], |_, &x| x), vec![42]);
    }

    #[test]
    fn worker_panic_propagates() {
        let pool = WorkerPool::new(2);
        let items: Vec<usize> = (0..16).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.map(&items, |_, &x| {
                if x == 7 {
                    panic!("boom");
                }
                x
            })
        }));
        assert!(result.is_err());
    }

    #[test]
    fn panic_becomes_a_typed_error() {
        for threads in [1, 2, 8] {
            let pool = WorkerPool::new(threads);
            let items: Vec<usize> = (0..32).collect();
            let err = pool
                .map_governed(&items, |_, &x| {
                    if x >= 9 {
                        panic!("injected failure at {x}");
                    }
                    x
                })
                .unwrap_err();
            let PoolError::Panicked { item, message } = err;
            // Lowest panicking index wins deterministically on the serial
            // path; under races it is still a panicking item.
            assert!(item >= 9, "item {item}");
            if threads == 1 {
                assert_eq!(item, 9);
            }
            assert!(message.contains("injected failure"), "{message}");
        }
    }

    #[test]
    fn pool_is_reusable_after_panic() {
        // A panic must leave the pool fully usable for the next call (and
        // the panic message must carry the item).
        let pool = WorkerPool::new(4);
        let items: Vec<usize> = (0..64).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.map(&items, |_, &x| {
                if x == 3 {
                    panic!("first call dies");
                }
                x
            })
        }));
        let payload = result.unwrap_err();
        let msg = payload.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("worker panicked on item"), "{msg}");
        assert!(msg.contains("first call dies"), "{msg}");
        // Same pool value, next call: full, ordered results.
        let out = pool.map(&items, |_, &x| x + 1);
        assert_eq!(out, (1..=64).collect::<Vec<_>>());
        // And the scope stack is clean.
        assert!(governor::current().is_none());
    }

    fn governed(gov: &Arc<Governor>) -> scope::ScopeGuard {
        Scope {
            governor: Some(Arc::clone(gov)),
            ..Scope::default()
        }
        .enter()
    }

    #[test]
    fn map_governed_stops_on_cancel() {
        for threads in [1, 4] {
            let pool = WorkerPool::new(threads);
            let gov = Arc::new(Governor::unlimited());
            let _scope = governed(&gov);
            let items: Vec<usize> = (0..1000).collect();
            let g = Arc::clone(&gov);
            let (slots, halted) = pool
                .map_governed(&items, move |i, &x| {
                    // Later items wait for the cancel, so however the
                    // workers are scheduled only in-flight items finish.
                    if i == 0 {
                        g.cancel();
                    } else {
                        while g.halt().is_none() {
                            std::thread::yield_now();
                        }
                    }
                    x
                })
                .unwrap();
            assert_eq!(halted, Some(Termination::Cancelled));
            let done = slots.iter().filter(|s| s.is_some()).count();
            assert!(done <= threads, "only in-flight items finish, got {done}");
            // Completed slots carry the right values.
            for (i, s) in slots.iter().enumerate() {
                if let Some(v) = s {
                    assert_eq!(*v, i);
                }
            }
        }
    }

    #[test]
    fn map_governed_untripped_is_complete() {
        let pool = WorkerPool::new(4);
        let _scope = governed(&Arc::new(Governor::unlimited()));
        let items: Vec<usize> = (0..100).collect();
        let (slots, halted) = pool.map_governed(&items, |_, &x| x * 2).unwrap();
        assert_eq!(halted, None);
        assert!(slots.iter().all(|s| s.is_some()));
    }

    #[test]
    fn pool_carries_the_whole_scope_to_workers() {
        let gov = Arc::new(Governor::new(None, 123, 0));
        // An empty plan: carried to every worker, fires nowhere.
        let plan = Arc::new(fault::FaultPlan::new(9));
        let p = Arc::new(obs::Profiler::new());
        let scope = Scope {
            governor: Some(Arc::clone(&gov)),
            profiler: Some(Arc::clone(&p)),
            faults: Some(Arc::clone(&plan)),
        }
        .enter();
        let items: Vec<usize> = (0..64).collect();
        for threads in [1, 4] {
            let out = WorkerPool::new(threads).map(&items, |_, _| {
                let seen = Scope::current();
                Arc::ptr_eq(seen.governor.as_ref().unwrap(), &gov)
                    && Arc::ptr_eq(seen.profiler.as_ref().unwrap(), &p)
                    && Arc::ptr_eq(seen.faults.as_ref().unwrap(), &plan)
            });
            assert!(out.into_iter().all(|seen| seen), "threads={threads}");
        }
        drop(scope);
        assert!(
            governor::current().is_none(),
            "scope popped after the calls"
        );
        let s = p.snapshot();
        assert_eq!(s.counter(obs::Counter::PoolRun), 2);
        assert_eq!(s.counter(obs::Counter::PoolTask), 128);
    }

    #[test]
    fn scoped_plan_never_fires_on_a_concurrent_thread() {
        // Thread A runs pools under a plan that faults every pool item;
        // thread B runs pools at the same time with no scope and must
        // never see one of A's faults.
        let barrier = std::sync::Barrier::new(2);
        let items: Vec<usize> = (0..256).collect();
        std::thread::scope(|s| {
            let a = s.spawn(|| {
                let plan = Arc::new(fault::FaultPlan::new(1).arm(fault::FaultSite::PoolWorker, 1));
                let _scope = Scope {
                    faults: Some(Arc::clone(&plan)),
                    ..Scope::default()
                }
                .enter();
                barrier.wait();
                for threads in [1, 2] {
                    let pool = WorkerPool::new(threads);
                    assert!(pool.map_governed(&items, |_, &x| x).is_err());
                }
                plan.fired(fault::FaultSite::PoolWorker)
            });
            let b = s.spawn(|| {
                barrier.wait();
                for _ in 0..20 {
                    for threads in [1, 2] {
                        let out = WorkerPool::new(threads).map_governed(&items, |_, &x| x);
                        let (slots, _) = out.expect("unscoped thread faulted");
                        assert!(slots.into_iter().flatten().eq(items.iter().copied()));
                    }
                }
            });
            assert!(a.join().unwrap() >= 2, "A's plan fired on A");
            b.join().unwrap();
        });
    }

    #[test]
    fn pool_error_display() {
        let e = PoolError::Panicked {
            item: 7,
            message: "boom".into(),
        };
        let s = e.to_string();
        assert!(s.contains('7') && s.contains("boom"), "{s}");
    }
}
