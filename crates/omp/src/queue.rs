//! The libGOMP-style centralized task queue, extracted from [`OmpPool`]'s
//! internals so the same structure can be (a) the pool's explicit-task
//! queue and (b) a queue-layer policy for the `xkaapi-core` engine.
//!
//! [`CentralQueue`] is deliberately the *naive* design the paper measures
//! against: one global mutex around a `VecDeque`, FIFO order, every push
//! and pop paying a lock acquisition (counted in [`CentralQueue::ops`] —
//! the contention indicator reported next to the figures).
//!
//! [`OmpCentralQueue`] adapts it to [`xkaapi_core::TaskQueue`]: the engine
//! then routes fork-join jobs and eagerly-published data-flow tasks through
//! this single queue, turning the X-Kaapi engine into a faithful
//! centralized-scheduler baseline without a separate worker loop.
//!
//! [`OmpPool`]: crate::OmpPool

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use xkaapi_core::{TaskQueue, WorkItem};

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

    /// Remove the last item matching `pred` (reverse scan under the lock).
    pub fn take_last_matching(&self, pred: impl Fn(&T) -> bool) -> Option<T> {
        self.ops.fetch_add(1, Ordering::Relaxed);
        let mut q = self.q.lock();
        let pos = q.iter().rposition(pred)?;
        q.remove(pos)
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

/// [`TaskQueue`] adapter: the engine's ready work flows through one
/// [`CentralQueue`] per priority band, every worker pushing to and popping
/// from the same mutex-protected FIFOs (the libGOMP weight class). Pops
/// drain the highest non-empty band first; within one band the order is
/// the historical global FIFO, so attribute-free programs behave exactly
/// as before the bands existed.
pub struct OmpCentralQueue {
    bands: [CentralQueue<WorkItem>; xkaapi_core::PRIORITY_BANDS],
}

impl Default for OmpCentralQueue {
    fn default() -> Self {
        OmpCentralQueue::new()
    }
}

impl OmpCentralQueue {
    /// Empty queue; hand it to `xkaapi_core::Builder::task_queue`.
    pub fn new() -> OmpCentralQueue {
        OmpCentralQueue {
            bands: std::array::from_fn(|_| CentralQueue::new()),
        }
    }

    /// Lock acquisitions so far (contention indicator), across all bands.
    pub fn ops(&self) -> usize {
        self.bands.iter().map(CentralQueue::ops).sum()
    }
}

impl TaskQueue for OmpCentralQueue {
    fn name(&self) -> &'static str {
        "central-omp"
    }

    fn centralized(&self) -> bool {
        true
    }

    fn push(&self, _worker: usize, item: WorkItem) -> Result<(), WorkItem> {
        self.bands[item.band()].push_back(item);
        Ok(())
    }

    fn pop(&self, _worker: usize) -> Option<WorkItem> {
        self.bands.iter().find_map(CentralQueue::pop_front)
    }

    fn steal(&self, _thief: usize, _victim: usize) -> Option<WorkItem> {
        self.bands.iter().find_map(CentralQueue::pop_front)
    }

    fn may_pop(&self, _worker: usize) -> bool {
        !self.bands.iter().all(CentralQueue::is_empty)
    }

    fn take(&self, _worker: usize, token: *mut ()) -> Option<WorkItem> {
        if token.is_null() {
            return None;
        }
        self.bands
            .iter()
            .find_map(|q| q.take_last_matching(|item| std::ptr::eq(item.token(), token)))
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

    #[test]
    fn take_last_matching_removes_in_place() {
        let q: CentralQueue<u32> = CentralQueue::new();
        for i in 0..5 {
            q.push_back(i);
        }
        assert_eq!(q.take_last_matching(|&x| x % 2 == 0), Some(4));
        assert_eq!(q.take_last_matching(|&x| x % 2 == 0), Some(2));
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop_front(), Some(0));
    }

    #[test]
    fn engine_runs_dataflow_through_central_queue() {
        use std::sync::atomic::AtomicU64;
        use std::sync::Arc;
        use xkaapi_core::{Runtime, Shared};
        let q = Arc::new(OmpCentralQueue::new());
        let rt = Runtime::builder()
            .workers(3)
            .task_queue(Arc::clone(&q) as Arc<dyn TaskQueue>)
            .build();
        assert_eq!(rt.queue_name(), "central-omp");
        // Data-flow chain: sequential semantics must survive centralization.
        let h = Shared::new(0u64);
        rt.scope(|ctx| {
            for _ in 0..100 {
                let hw = h.clone();
                ctx.spawn([h.exclusive()], move |t| *t.write(&hw) += 1);
            }
        });
        assert_eq!(*h.get(), 100);
        // Fork-join through the same shared queue.
        let hits = AtomicU64::new(0);
        rt.scope(|ctx| {
            ctx.join(
                |_| hits.fetch_add(1, Ordering::Relaxed),
                |_| hits.fetch_add(1, Ordering::Relaxed),
            );
        });
        assert_eq!(hits.load(Ordering::Relaxed), 2);
        assert!(
            q.ops() > 0,
            "work actually flowed through the central queue"
        );
    }
}
