//! The request scope: the governor, profiler and fault plan that a piece
//! of work runs under, carried on one thread-local stack.
//!
//! Layers below `wqe-core` (the distance oracle, the matcher and its star
//! cache, the serving queue) are shared between requests, so they cannot
//! hold a per-request field. Instead the code that owns a request enters
//! a [`Scope`] on its thread, and the hot-path readers find it there:
//! [`governor::current`](crate::governor::current),
//! [`obs::span`](crate::obs::span) / [`obs::with_current`](crate::obs::with_current)
//! and [`fault::fire`](crate::fault::fire).
//!
//! Entering a scope sets the fields it names and inherits the others from
//! the scope it nests in, so `Session::run` can enter its governor and
//! profiler inside a thread that a fault plan was entered on. Scopes nest;
//! the innermost wins, and dropping the guard (or unwinding through it)
//! restores the outer one.
//!
//! A spawned thread starts with no scope. Every thread hop carries it with
//! one [`Scope::current`] on the spawning side and one [`Scope::enter`] on
//! the spawned side: `WorkerPool`'s workers, the `QueryService` workers, and
//! the HTTP accept and connection threads. Code that runs outside every
//! scope — a concurrent test that armed nothing, say — sees no governor,
//! records into no profiler and never faults.

use crate::fault::FaultPlan;
use crate::governor::Governor;
use crate::obs::Profiler;
use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::Arc;

/// What a request runs under. `None` fields inherit from the enclosing
/// scope when entered.
#[derive(Debug, Clone, Default)]
pub struct Scope {
    /// The query governor polled by the search, the matcher's fan-out, the
    /// BFS oracle and `WorkerPool::map_governed`.
    pub governor: Option<Arc<Governor>>,
    /// The profiler that stage spans and counters record into.
    pub profiler: Option<Arc<Profiler>>,
    /// The fault plan consulted by every injection site.
    pub faults: Option<Arc<FaultPlan>>,
}

thread_local! {
    static STACK: RefCell<Vec<Scope>> = const { RefCell::new(Vec::new()) };
}

/// Returned by [`Scope::enter`]; dropping it pops the scope off the
/// thread-local stack (panic-safe: unwinding drops it too). Not `Send`:
/// it must be dropped on the thread that entered it.
#[must_use = "the scope is active only while the guard lives"]
pub struct ScopeGuard {
    _not_send: PhantomData<*const ()>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

impl Scope {
    /// The calling thread's innermost scope, every field resolved; empty
    /// outside any scope. Capture it before a thread hop and
    /// [`enter`](Scope::enter) it on the other side.
    pub fn current() -> Scope {
        with_current(|s| s.cloned().unwrap_or_default())
    }

    /// Makes this scope the calling thread's current one until the guard
    /// is dropped. Fields left `None` inherit from the enclosing scope.
    pub fn enter(self) -> ScopeGuard {
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let scope = match stack.last() {
                Some(outer) => Scope {
                    governor: self.governor.or_else(|| outer.governor.clone()),
                    profiler: self.profiler.or_else(|| outer.profiler.clone()),
                    faults: self.faults.or_else(|| outer.faults.clone()),
                },
                None => self,
            };
            stack.push(scope);
        });
        ScopeGuard {
            _not_send: PhantomData,
        }
    }
}

/// Runs `f` against the innermost scope without cloning it: one
/// thread-local borrow, for the hot-path readers.
pub(crate) fn with_current<R>(f: impl FnOnce(Option<&Scope>) -> R) -> R {
    STACK.with(|s| f(s.borrow().last()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fault, governor, obs};

    #[test]
    fn empty_outside_any_scope() {
        let s = Scope::current();
        assert!(s.governor.is_none() && s.profiler.is_none() && s.faults.is_none());
        assert!(governor::current().is_none());
        assert!(obs::span(obs::Stage::Match).is_none());
        assert!(fault::fire(fault::FaultSite::Queue).is_none());
    }

    #[test]
    fn entering_inherits_unnamed_fields_and_pops() {
        let plan = Arc::new(fault::FaultPlan::new(1).arm(fault::FaultSite::Queue, 1));
        let outer_gov = Arc::new(Governor::unlimited());
        let inner_gov = Arc::new(Governor::new(None, 7, 0));
        let p = Arc::new(Profiler::new());
        let _outer = Scope {
            governor: Some(Arc::clone(&outer_gov)),
            faults: Some(Arc::clone(&plan)),
            ..Scope::default()
        }
        .enter();
        {
            let _inner = Scope {
                governor: Some(Arc::clone(&inner_gov)),
                profiler: Some(Arc::clone(&p)),
                faults: None,
            }
            .enter();
            let s = Scope::current();
            assert!(Arc::ptr_eq(s.governor.as_ref().unwrap(), &inner_gov));
            assert!(Arc::ptr_eq(s.faults.as_ref().unwrap(), &plan), "inherited");
            assert!(fault::fire(fault::FaultSite::Queue).is_some());
            assert_eq!(p.counter(obs::Counter::FaultInjected), 1);
        }
        let s = Scope::current();
        assert!(Arc::ptr_eq(s.governor.as_ref().unwrap(), &outer_gov));
        assert!(s.profiler.is_none(), "inner profiler popped");
        assert!(Arc::ptr_eq(s.faults.as_ref().unwrap(), &plan));
    }

    #[test]
    fn unwinding_pops_the_scope() {
        let gov = Arc::new(Governor::unlimited());
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _s = Scope {
                governor: Some(Arc::clone(&gov)),
                ..Scope::default()
            }
            .enter();
            panic!("boom");
        }));
        assert!(res.is_err());
        assert!(
            governor::current().is_none(),
            "unwinding must pop the scope"
        );
    }

    #[test]
    fn a_captured_scope_crosses_a_thread_hop() {
        let p = Arc::new(Profiler::new());
        let _s = Scope {
            profiler: Some(Arc::clone(&p)),
            ..Scope::default()
        }
        .enter();
        let scope = Scope::current();
        std::thread::spawn(move || {
            let _s = scope.enter();
            obs::with_current(|p| p.add(obs::Counter::PoolTask, 1));
        })
        .join()
        .unwrap();
        std::thread::spawn(|| obs::with_current(|p| p.add(obs::Counter::PoolTask, 1)))
            .join()
            .unwrap();
        assert_eq!(p.counter(obs::Counter::PoolTask), 1, "only the carried hop");
    }
}
