//! The libGOMP-style centralized task queue behind [`OmpPool`]'s explicit
//! tasks.
//!
//! [`CentralQueue`] is deliberately the *naive* design the paper measures
//! against: one global mutex around a `VecDeque`, FIFO order, every push
//! and pop paying a lock acquisition (counted in [`CentralQueue::ops`] —
//! the contention indicator reported next to the figures).
//!
//! [`OmpPool`]: crate::OmpPool

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A mutex-protected global FIFO with an operation counter.
pub struct CentralQueue<T> {
    q: Mutex<VecDeque<T>>,
    ops: AtomicUsize,
}

impl<T> Default for CentralQueue<T> {
    fn default() -> Self {
        CentralQueue::new()
    }
}

impl<T> CentralQueue<T> {
    /// Empty queue.
    pub fn new() -> CentralQueue<T> {
        CentralQueue {
            q: Mutex::new(VecDeque::new()),
            ops: AtomicUsize::new(0),
        }
    }

    /// Append at the tail (one lock acquisition).
    pub fn push_back(&self, item: T) {
        self.ops.fetch_add(1, Ordering::Relaxed);
        self.q.lock().push_back(item);
    }

    /// Remove from the head (one lock acquisition).
    pub fn pop_front(&self) -> Option<T> {
        self.ops.fetch_add(1, Ordering::Relaxed);
        self.q.lock().pop_front()
    }

    /// Racy emptiness snapshot (no lock when used as a hint only).
    pub fn is_empty(&self) -> bool {
        self.q.lock().is_empty()
    }

    /// Queued items right now.
    pub fn len(&self) -> usize {
        self.q.lock().len()
    }

    /// Lock acquisitions so far — the centralized-design contention metric.
    pub fn ops(&self) -> usize {
        self.ops.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_ops_counter() {
        let q: CentralQueue<u32> = CentralQueue::new();
        assert!(q.is_empty());
        q.push_back(1);
        q.push_back(2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_front(), Some(1));
        assert_eq!(q.pop_front(), Some(2));
        assert_eq!(q.pop_front(), None);
        assert_eq!(q.ops(), 5);
    }
}
