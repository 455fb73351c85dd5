//! A bounded MPMC queue — the admission-controlled submission path of the serving
//! front-end.
//!
//! The bound is the point: an unbounded queue turns overload into unbounded memory
//! growth and unbounded tail latency, while a bounded queue surfaces overload at the
//! *submission* edge, where the caller can choose between blocking (backpressure),
//! rejecting (load shedding), or waiting a bounded time. Built on `Mutex` + `Condvar`
//! only — the workspace takes no external concurrency dependencies.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Why an admission attempt did not enqueue its item. The item is handed back so the
/// caller can account for it (e.g. mark the queries rejected).
#[derive(Debug)]
pub enum AdmitError<T> {
    /// The queue was at capacity (and stayed there for the allowed wait, if any).
    Full(T),
    /// The queue was closed; no further items are accepted.
    Closed(T),
}

// Lock poisoning is recovered rather than propagated: the queue's invariants are a
// `VecDeque` plus a flag, both valid at every wait point, so a panicking peer cannot
// leave the state half-updated. `into_inner` keeps the other workers alive.
struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer / multi-consumer FIFO queue.
///
/// Producers admit items via [`push`](Bounded::push) (block until space),
/// [`try_push`](Bounded::try_push) (fail fast when full) or
/// [`push_timeout`](Bounded::push_timeout) (bounded wait); consumers drain via
/// [`pop`](Bounded::pop), which blocks until an item arrives or the queue is closed
/// *and* empty. [`close`](Bounded::close) wakes everyone.
pub struct Bounded<T> {
    capacity: usize,
    state: Mutex<State<T>>,
    not_full: Condvar,
    not_empty: Condvar,
}

impl<T> Bounded<T> {
    /// A queue admitting at most `capacity` items at once (`capacity` ≥ 1 is
    /// clamped up from zero).
    pub fn new(capacity: usize) -> Self {
        Bounded {
            capacity: capacity.max(1),
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
        }
    }

    /// The capacity the queue admits.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .items
            .len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Blocks until there is space, then enqueues. Fails only when the queue is
    /// closed while waiting.
    pub fn push(&self, item: T) -> Result<(), AdmitError<T>> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        while state.items.len() >= self.capacity && !state.closed {
            state = self.not_full.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        if state.closed {
            return Err(AdmitError::Closed(item));
        }
        state.items.push_back(item);
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Enqueues if there is space right now; otherwise hands the item straight back.
    pub fn try_push(&self, item: T) -> Result<(), AdmitError<T>> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.closed {
            return Err(AdmitError::Closed(item));
        }
        if state.items.len() >= self.capacity {
            return Err(AdmitError::Full(item));
        }
        state.items.push_back(item);
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Waits up to `timeout` for space, then enqueues; hands the item back as
    /// [`AdmitError::Full`] when the queue stayed at capacity the whole time. A
    /// timeout too long for the clock to hold a deadline waits like [`push`](Bounded::push).
    pub fn push_timeout(&self, item: T, timeout: Duration) -> Result<(), AdmitError<T>> {
        // lint:allow(timing, the admission timeout is wall-clock by definition)
        let Some(deadline) = std::time::Instant::now().checked_add(timeout) else {
            return self.push(item);
        };
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        while state.items.len() >= self.capacity && !state.closed {
            let now = std::time::Instant::now(); // lint:allow(timing, admission-timeout bookkeeping only)
            let Some(remaining) = deadline
                .checked_duration_since(now)
                .filter(|d| !d.is_zero())
            else {
                return Err(AdmitError::Full(item));
            };
            let (guard, _timed_out) = self
                .not_full
                .wait_timeout(state, remaining)
                .unwrap_or_else(|e| e.into_inner());
            state = guard;
        }
        if state.closed {
            return Err(AdmitError::Closed(item));
        }
        state.items.push_back(item);
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocks until an item is available and dequeues it; `None` once the queue is
    /// closed and fully drained.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(item) = state.items.pop_front() {
                drop(state);
                self.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self
                .not_empty
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Closes the queue: pending and future pushes fail, consumers drain what is
    /// left and then observe end-of-stream.
    pub fn close(&self) {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).closed = true;
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn fifo_within_capacity() {
        let q = Bounded::new(4);
        for i in 0..4 {
            q.push(i).unwrap();
        }
        assert_eq!(q.len(), 4);
        assert!(!q.is_empty());
        q.close();
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn try_push_rejects_when_full_and_hands_the_item_back() {
        let q = Bounded::new(2);
        q.try_push("a").unwrap();
        q.try_push("b").unwrap();
        match q.try_push("c") {
            Err(AdmitError::Full(item)) => assert_eq!(item, "c"),
            other => panic!("expected Full, got {other:?}"),
        }
        q.pop();
        q.try_push("c").unwrap();
    }

    #[test]
    fn push_timeout_gives_up_after_the_deadline() {
        let q = Bounded::new(1);
        q.push(1).unwrap();
        let started = std::time::Instant::now();
        match q.push_timeout(2, Duration::from_millis(20)) {
            Err(AdmitError::Full(item)) => assert_eq!(item, 2),
            other => panic!("expected Full, got {other:?}"),
        }
        assert!(started.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn push_timeout_past_the_clock_range_enqueues_when_there_is_space() {
        let q = Bounded::new(1);
        q.push_timeout(1, Duration::MAX).unwrap();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn close_rejects_producers_and_releases_consumers() {
        let q = Bounded::new(1);
        q.close();
        assert!(matches!(q.push(7), Err(AdmitError::Closed(7))));
        assert!(matches!(q.try_push(7), Err(AdmitError::Closed(7))));
        assert!(matches!(
            q.push_timeout(7, Duration::from_millis(5)),
            Err(AdmitError::Closed(7))
        ));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let q = Bounded::new(0);
        assert_eq!(q.capacity(), 1);
        q.try_push(1).unwrap();
        assert!(matches!(q.try_push(2), Err(AdmitError::Full(2))));
    }

    #[test]
    fn producers_block_until_consumers_drain() {
        let q = Bounded::new(1);
        let consumed = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while let Some(_item) = q.pop() {
                    consumed.fetch_add(1, Ordering::SeqCst);
                }
            });
            for i in 0..50 {
                q.push(i).unwrap(); // blocks whenever the consumer lags
            }
            q.close();
        });
        assert_eq!(consumed.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn many_producers_many_consumers_conserve_items() {
        let q = Bounded::new(3);
        let consumed = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    while q.pop().is_some() {
                        consumed.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
            scope.spawn(|| {
                for producer in 0..4 {
                    for i in 0..25 {
                        q.push(producer * 100 + i).unwrap();
                    }
                }
                q.close();
            });
        });
        assert_eq!(consumed.load(Ordering::SeqCst), 100);
    }
}
