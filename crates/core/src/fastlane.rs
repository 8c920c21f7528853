//! The fork-join fast lane: a Cilk-5 T.H.E. deque of stack-allocated jobs.
//!
//! The paper's §II-C: "X-KAAPI and Cilk show similar overheads for the
//! execution of independent tasks" — independent tasks skip the data-flow
//! machinery entirely. This module is that fast path: [`Ctx::join`]
//! pushes a job record living *on the joining stack frame* (no allocation)
//! into the worker's T.H.E. deque; the owner pops LIFO with one fence,
//! thieves steal FIFO under the lane lock, and the elected combiner serves
//! steal requests from this lane before promoting data-flow frames.
//!
//! Soundness of the stack storage: a join never returns before its job
//! reached a terminal state, and a terminal state is the executor's last
//! access — so the record outlives every access.
//!
//! [`Ctx::join`]: crate::ctx::Ctx::join

use crate::runtime::RtInner;
use crossbeam_utils::CachePadded;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Arc;

/// Type-erased reference to a stack job.
#[derive(Clone, Copy)]
pub(crate) struct FastJob {
    pub(crate) data: *mut (),
    pub(crate) exec: unsafe fn(*mut (), &Arc<RtInner>, usize),
}

// SAFETY: `data` points at a `StackJob` whose closure and result are
// `Send`; whichever worker runs it, the joiner waits for it to finish.
unsafe impl Send for FastJob {}

impl FastJob {
    /// # Safety
    /// The job record must still be alive and not yet executed.
    #[inline]
    pub(crate) unsafe fn execute(self, rt: &Arc<RtInner>, widx: usize) {
        // SAFETY: the caller's contract; `exec` is the function `data` was
        // typed for.
        unsafe { (self.exec)(self.data, rt, widx) }
    }
}

const CAP: usize = 1 << 13;

/// Fixed-capacity T.H.E. deque of [`FastJob`]s. `push` returns `None`
/// when full (the caller runs the job inline).
///
/// `head` (written by thieves), `tail` (written by the owner) and `lock`
/// (taken by thieves, and by the owner only when it races one for the
/// last job) sit on separate cache lines, so a thief's writes never
/// invalidate the line the owner's push/pop writes, nor the reverse.
pub(crate) struct FastLane {
    head: CachePadded<AtomicIsize>,
    tail: CachePadded<AtomicIsize>,
    lock: CachePadded<Mutex<()>>,
    slots: Box<[std::cell::Cell<Option<FastJob>>]>,
}

// Safety: slots are written by the owner before the tail Release store and
// read by thieves under the lock / after the fence protocol.
unsafe impl Sync for FastLane {}
// SAFETY: the lane owns its slots; a `FastJob` is `Send`.
unsafe impl Send for FastLane {}

impl FastLane {
    pub(crate) fn new() -> FastLane {
        FastLane {
            head: CachePadded::new(AtomicIsize::new(0)),
            tail: CachePadded::new(AtomicIsize::new(0)),
            lock: CachePadded::new(Mutex::new(())),
            slots: (0..CAP).map(|_| std::cell::Cell::new(None)).collect(),
        }
    }

    /// Owner: push at the tail. `None` when full, else whether the deque
    /// was empty before the push (as far as the owner's view of `head`
    /// goes: a steal it has not seen yet reads as non-empty). A `head`
    /// one past `tail` is a thief rolling back from the empty deque.
    #[inline]
    pub(crate) fn push(&self, job: FastJob) -> Option<bool> {
        let t = self.tail.load(Ordering::Relaxed);
        let h = self.head.load(Ordering::Acquire);
        if t - h >= CAP as isize {
            return None;
        }
        self.slots[(t as usize) & (CAP - 1)].set(Some(job));
        self.tail.store(t + 1, Ordering::Release);
        Some(t <= h)
    }

    /// Owner: pop at the tail (LIFO), T.H.E. protocol. `None` means the
    /// lane is empty or a thief took the last job: the full protocol waits
    /// out a thief that is rolling back, so a job the owner pushed is never
    /// left behind (`take_job` relies on this).
    pub(crate) fn pop(&self) -> Option<FastJob> {
        let t = self.tail.load(Ordering::Relaxed) - 1;
        self.tail.store(t, Ordering::Relaxed);
        std::sync::atomic::fence(Ordering::SeqCst);
        let h = self.head.load(Ordering::Relaxed);
        if h > t {
            // Possible conflict on the last job: retry under the lock.
            self.tail.store(t + 1, Ordering::Relaxed);
            let _g = self.lock.lock();
            let t = self.tail.load(Ordering::Relaxed) - 1;
            self.tail.store(t, Ordering::Relaxed);
            std::sync::atomic::fence(Ordering::SeqCst);
            let h = self.head.load(Ordering::Relaxed);
            if h > t {
                self.tail.store(t + 1, Ordering::Relaxed);
                return None;
            }
            return self.slots[(t as usize) & (CAP - 1)].get();
        }
        self.slots[(t as usize) & (CAP - 1)].get()
    }

    /// Thief: steal from the head (oldest first).
    pub(crate) fn steal(&self) -> Option<FastJob> {
        if self.is_empty_hint() {
            return None;
        }
        let _g = self.lock.lock();
        let h = self.head.load(Ordering::Relaxed);
        self.head.store(h + 1, Ordering::Relaxed);
        std::sync::atomic::fence(Ordering::SeqCst);
        let t = self.tail.load(Ordering::Relaxed);
        if h + 1 > t {
            self.head.store(h, Ordering::Relaxed);
            return None;
        }
        self.slots[(h as usize) & (CAP - 1)].get()
    }

    #[inline]
    pub(crate) fn is_empty_hint(&self) -> bool {
        self.head.load(Ordering::Relaxed) >= self.tail.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize};

    static HITS: AtomicUsize = AtomicUsize::new(0);

    fn job() -> FastJob {
        unsafe fn exec(_d: *mut (), _rt: &Arc<RtInner>, _w: usize) {
            HITS.fetch_add(1, Ordering::Relaxed);
        }
        FastJob {
            data: std::ptr::null_mut(),
            exec,
        }
    }

    #[test]
    fn lifo_fifo_discipline() {
        let lane = FastLane::new();
        assert!(lane.pop().is_none());
        assert!(lane.steal().is_none());
        assert_eq!(lane.push(job()), Some(true));
        assert_eq!(lane.push(job()), Some(false));
        assert!(lane.steal().is_some()); // oldest
        assert!(lane.pop().is_some()); // newest
        assert!(lane.pop().is_none());
        assert!(lane.is_empty_hint());
    }

    /// The owner pushes a job and pops it while a thief steals. A `None`
    /// pop means the thief took the job: with the thief paused, the lane
    /// reads empty. Every job is taken once; nothing is drained afterwards.
    /// (A pop returning `None` on a lane that reads empty failed this in
    /// 10 of 10 runs on a 2-vCPU machine.)
    #[test]
    fn owner_pops_race_a_thief_and_never_leave_a_job_behind() {
        let lane = FastLane::new();
        let taken: Vec<AtomicUsize> = (0..1_000_000).map(|_| AtomicUsize::new(0)).collect();
        let (pause, stop) = (AtomicBool::new(false), AtomicBool::new(false));
        let paused = std::sync::Barrier::new(2);
        let mut left_behind = 0;
        std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::Acquire) {
                    if pause.load(Ordering::Acquire) {
                        paused.wait(); // out of `steal`
                        paused.wait(); // the owner has looked at the lane
                    } else if let Some(j) = lane.steal() {
                        taken[j.data as usize].fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
            for i in 0..taken.len() {
                let _ = lane.push(FastJob {
                    data: i as *mut (),
                    ..job()
                });
                if let Some(j) = lane.pop() {
                    taken[j.data as usize].fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                pause.store(true, Ordering::Release);
                paused.wait();
                left_behind += usize::from(!lane.is_empty_hint());
                pause.store(false, Ordering::Release);
                paused.wait();
            }
            stop.store(true, Ordering::Release);
        });
        assert_eq!(left_behind, 0, "a `None` pop left its job in the lane");
        assert!(taken.iter().all(|t| t.load(Ordering::Relaxed) == 1));
    }
}
