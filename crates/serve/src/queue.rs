//! Bounded admission-control queue with backpressure and drain semantics.
//!
//! `try_push` never blocks: past the configured depth it fails immediately
//! with [`ServeError::Overloaded`], which `MtServer::submit` surfaces
//! synchronously to the caller — load-shedding at the front door rather
//! than letting latency collect in an unbounded buffer. `pop` blocks
//! workers until a job or shutdown arrives; after `close`, remaining jobs
//! are still drained (graceful shutdown finishes admitted work) and `pop`
//! returns `None` only once the queue is empty.

use crate::error::ServeError;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

#[derive(Debug)]
struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Bounded MPMC queue: `Mutex<VecDeque>` + `Condvar`, nothing fancier.
#[derive(Debug)]
pub struct AdmissionQueue<T> {
    depth: usize,
    state: Mutex<QueueState<T>>,
    available: Condvar,
}

impl<T> AdmissionQueue<T> {
    pub fn new(depth: usize) -> AdmissionQueue<T> {
        assert!(depth > 0, "admission queue depth must be positive");
        AdmissionQueue {
            depth,
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
        }
    }

    /// Poison-recovering lock: a worker that panicked while holding the
    /// mutex must not take the whole admission path down with it — the
    /// queue state (a `VecDeque` plus a flag) is valid after any
    /// interrupted operation.
    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState<T>> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Jobs currently waiting.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Non-blocking admission: `Overloaded` at depth, `ShuttingDown` after
    /// close. Returns the queue length with `item` in it, so the submitter
    /// need not take the lock again behind its own wake-up to report it.
    pub fn try_push(&self, item: T) -> Result<usize, ServeError> {
        let mut st = self.lock();
        if st.closed {
            return Err(ServeError::ShuttingDown);
        }
        if st.items.len() >= self.depth {
            return Err(ServeError::Overloaded { depth: self.depth });
        }
        st.items.push_back(item);
        let len = st.items.len();
        drop(st);
        self.available.notify_one();
        Ok(len)
    }

    /// Blocking worker-side pop. Returns `None` only when the queue is
    /// closed *and* fully drained.
    pub fn pop(&self) -> Option<T> {
        let mut st = self.lock();
        loop {
            if let Some(item) = st.items.pop_front() {
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = self.available.wait(st).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Stop admitting; wake all blocked workers so they can drain and exit.
    pub fn close(&self) {
        self.lock().closed = true;
        self.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn rejects_past_depth() {
        let q = AdmissionQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.try_push(3), Err(ServeError::Overloaded { depth: 2 }));
        assert_eq!(q.pop(), Some(1));
        assert!(q.try_push(3).is_ok());
    }

    #[test]
    fn close_drains_remaining_then_none() {
        let q = AdmissionQueue::new(4);
        q.try_push("a").unwrap();
        q.try_push("b").unwrap();
        q.close();
        assert_eq!(q.try_push("c"), Err(ServeError::ShuttingDown));
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocked_workers_wake_on_close() {
        let q = Arc::new(AdmissionQueue::<u32>::new(1));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let q = q.clone();
                std::thread::spawn(move || q.pop())
            })
            .collect();
        // Give workers a moment to block, then close with nothing queued.
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        for h in handles {
            assert_eq!(h.join().unwrap(), None);
        }
    }

    #[test]
    fn concurrent_producers_and_consumers_lose_nothing() {
        let q = Arc::new(AdmissionQueue::<u64>::new(1024));
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = q.clone();
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = q.pop() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        let producers: Vec<_> = (0..4u64)
            .map(|p| {
                let q = q.clone();
                std::thread::spawn(move || {
                    for i in 0..100u64 {
                        while q.try_push(p * 1000 + i).is_err() {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all.len(), 400);
        all.dedup();
        assert_eq!(all.len(), 400, "no duplicates, no losses");
    }
}
