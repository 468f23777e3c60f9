//! Serving primitives: a bounded, priority-classed FIFO job queue.
//!
//! The queue is the admission-control heart of the `QueryService` in
//! `wqe-core`: it lives here, at the bottom of the crate graph, because it
//! is generic plumbing (no knowledge of questions or answers) and because
//! the scheduler that drains it shares this crate's philosophy — plain
//! `std` threads, no async runtime, deterministic observable behavior.
//!
//! ## Semantics
//!
//! * **Bounded.** [`JobQueue::push`] never blocks: when the queue already
//!   holds `capacity` jobs it returns [`PushError::Full`] immediately, so
//!   a traffic burst produces explicit rejections instead of unbounded
//!   memory growth.
//! * **Fair within priority.** Jobs carry a [`Priority`] class; the queue
//!   pops the highest class first and FIFO (by admission sequence number)
//!   within a class, so no request is starved by later arrivals of its own
//!   class.
//! * **Pausable.** [`JobQueue::pause`] keeps admission open but makes
//!   [`JobQueue::pop`] block; [`JobQueue::resume`] wakes the consumers.
//!   Operators use this to drain or hold traffic; tests use it to pin
//!   queue-full behavior deterministically.
//! * **Shutdown-aware.** After [`JobQueue::close`], `push` rejects with
//!   [`PushError::Closed`] and `pop` returns `None` once the queue is
//!   empty, so consumer threads exit cleanly after draining.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};

/// A request's scheduling class. Lower discriminant pops first; within a
/// class, admission order (FIFO) wins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Priority {
    /// Latency-sensitive interactive traffic.
    High = 0,
    /// The default class.
    #[default]
    Normal = 1,
    /// Batch / background traffic; runs when nothing else is queued.
    Low = 2,
}

impl Priority {
    /// Every class, pop order first.
    pub const ALL: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Low];

    /// A stable lower-case name (used in specs and JSON).
    pub fn as_str(&self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }

    /// Parses the name produced by [`Priority::as_str`].
    pub fn parse(s: &str) -> Option<Priority> {
        match s {
            "high" => Some(Priority::High),
            "normal" => Some(Priority::Normal),
            "low" => Some(Priority::Low),
            _ => None,
        }
    }
}

impl std::fmt::Display for Priority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Why a job was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue already holds `capacity` jobs. Carries the observed depth
    /// so the rejection can be reported precisely.
    Full {
        /// Queue depth at the moment of rejection (== capacity).
        queue_len: usize,
    },
    /// [`JobQueue::close`] was called; no new work is accepted.
    Closed,
}

impl std::fmt::Display for PushError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PushError::Full { queue_len } => {
                write!(f, "queue full ({queue_len} jobs queued)")
            }
            PushError::Closed => f.write_str("queue closed"),
        }
    }
}

impl std::error::Error for PushError {}

struct QueueState<T> {
    /// One FIFO lane per priority class, indexed by discriminant.
    lanes: [VecDeque<(u64, T)>; 3],
    len: usize,
    seq: u64,
    paused: bool,
    closed: bool,
}

/// A bounded multi-producer multi-consumer job queue with priority classes
/// and FIFO order within each class. See the module docs for semantics.
pub struct JobQueue<T> {
    state: Mutex<QueueState<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> JobQueue<T> {
    /// Creates a queue admitting at most `capacity` jobs at a time
    /// (`capacity` is clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        JobQueue {
            state: Mutex::new(QueueState {
                lanes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                len: 0,
                seq: 0,
                paused: false,
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The admission cap this queue was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Jobs currently queued (not yet popped).
    pub fn len(&self) -> usize {
        self.lock().len
    }

    /// Whether no jobs are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admits a job, or rejects it when the queue is full or closed.
    /// Returns the job's admission sequence number (global, monotonic).
    ///
    /// This is also the queue's fault-injection site: a scoped
    /// [`FaultPlan`](crate::fault::FaultPlan) with the `queue` site armed
    /// makes the push spuriously reject as [`PushError::Full`] (reporting
    /// the observed depth) — the same typed admission-control outcome a
    /// genuinely saturated queue produces.
    pub fn push(&self, priority: Priority, job: T) -> Result<u64, PushError> {
        let mut s = self.lock();
        if s.closed {
            return Err(PushError::Closed);
        }
        if s.len >= self.capacity || crate::fault::fire(crate::fault::FaultSite::Queue).is_some() {
            return Err(PushError::Full { queue_len: s.len });
        }
        let seq = s.seq;
        s.seq += 1;
        s.lanes[priority as usize].push_back((seq, job));
        s.len += 1;
        drop(s);
        self.ready.notify_one();
        Ok(seq)
    }

    /// Blocks until a job is available (and the queue is not paused), then
    /// returns it. Returns `None` once the queue is closed *and* drained —
    /// the consumer-thread exit signal.
    pub fn pop(&self) -> Option<T> {
        let mut s = self.lock();
        loop {
            if !s.paused {
                for lane in 0..s.lanes.len() {
                    if let Some((_, job)) = s.lanes[lane].pop_front() {
                        s.len -= 1;
                        return Some(job);
                    }
                }
                if s.closed {
                    return None;
                }
            } else if s.closed && s.len == 0 {
                // A paused queue still lets consumers exit on shutdown.
                return None;
            }
            s = self.ready.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Holds the queue: admission stays open but [`JobQueue::pop`] blocks
    /// until [`JobQueue::resume`].
    pub fn pause(&self) {
        self.lock().paused = true;
    }

    /// Releases a [`JobQueue::pause`], waking all blocked consumers.
    pub fn resume(&self) {
        self.lock().paused = false;
        self.ready.notify_all();
    }

    /// Closes the queue: subsequent pushes reject with
    /// [`PushError::Closed`]; pops drain what is already queued, then
    /// return `None`. Also clears any pause so consumers can exit.
    pub fn close(&self) {
        let mut s = self.lock();
        s.closed = true;
        s.paused = false;
        drop(s);
        self.ready.notify_all();
    }

    /// Whether [`JobQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn priority_names_roundtrip() {
        for p in Priority::ALL {
            assert_eq!(Priority::parse(p.as_str()), Some(p));
            assert_eq!(p.to_string(), p.as_str());
        }
        assert_eq!(Priority::parse("urgent"), None);
        assert_eq!(Priority::default(), Priority::Normal);
    }

    #[test]
    fn fifo_within_priority_and_class_order() {
        let q = JobQueue::new(16);
        q.push(Priority::Low, "l0").unwrap();
        q.push(Priority::Normal, "n0").unwrap();
        q.push(Priority::High, "h0").unwrap();
        q.push(Priority::Normal, "n1").unwrap();
        q.push(Priority::High, "h1").unwrap();
        let order: Vec<&str> = (0..5).map(|_| q.pop().unwrap()).collect();
        assert_eq!(order, ["h0", "h1", "n0", "n1", "l0"]);
    }

    #[test]
    fn full_queue_rejects_with_depth() {
        let q = JobQueue::new(2);
        q.push(Priority::Normal, 1).unwrap();
        q.push(Priority::Normal, 2).unwrap();
        assert_eq!(
            q.push(Priority::High, 3),
            Err(PushError::Full { queue_len: 2 })
        );
        // Popping frees a slot.
        assert_eq!(q.pop(), Some(1));
        q.push(Priority::High, 3).unwrap();
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn closed_queue_drains_then_ends() {
        let q = JobQueue::new(4);
        q.push(Priority::Normal, 1).unwrap();
        q.close();
        assert_eq!(q.push(Priority::Normal, 2), Err(PushError::Closed));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
        assert!(q.is_closed());
    }

    #[test]
    fn pause_holds_consumers_until_resume() {
        let q = Arc::new(JobQueue::new(4));
        q.pause();
        q.push(Priority::Normal, 7).unwrap();
        let qc = Arc::clone(&q);
        let h = std::thread::spawn(move || qc.pop());
        // The consumer must be blocked; give it time to park, then release.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!h.is_finished(), "pop returned while paused");
        q.resume();
        assert_eq!(h.join().unwrap(), Some(7));
    }

    #[test]
    fn close_wakes_paused_consumers() {
        let q = Arc::new(JobQueue::<u32>::new(4));
        q.pause();
        let qc = Arc::clone(&q);
        let h = std::thread::spawn(move || qc.pop());
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.close();
        assert_eq!(h.join().unwrap(), None);
    }

    #[test]
    fn concurrent_producers_and_consumers_deliver_everything() {
        let q = Arc::new(JobQueue::new(1024));
        let produced: usize = 4 * 100;
        std::thread::scope(|s| {
            for t in 0..4 {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    for i in 0..100 {
                        q.push(Priority::Normal, t * 100 + i).unwrap();
                    }
                });
            }
        });
        q.close();
        let mut got = Vec::new();
        while let Some(v) = q.pop() {
            got.push(v);
        }
        got.sort_unstable();
        assert_eq!(got, (0..produced).collect::<Vec<_>>());
    }

    #[test]
    fn push_error_display() {
        assert!(PushError::Full { queue_len: 3 }.to_string().contains('3'));
        assert!(PushError::Closed.to_string().contains("closed"));
    }
}
