//! The queue layer: where *ready* fork-join work lives.
//!
//! [`DistributedLanes`] holds one priority-banded T.H.E. deque per worker
//! (owner LIFO, thief FIFO), the X-Kaapi design. `Ctx::join` pushes its
//! stack job here and takes it back when no thief did; the idle loop pops
//! its own lane; a steal combiner takes from a victim's lane first
//! (`crate::steal`). Data-flow tasks stay in their frames and on the
//! per-worker ready lists, and loop slices travel through the steal
//! protocol, so neither ever enters a lane.
//!
//! Every lane is **priority-banded** (`DESIGN.md` §5): the Normal band is
//! the fixed-capacity T.H.E. deque, High and Low ride small side deques
//! consulted before and after it, so attribute-free programs pay one
//! relaxed load for the bands.

use crate::fastlane::{FastJob, FastLane};
use crossbeam_utils::CachePadded;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A non-default band's side deque: a mutexed FIFO/LIFO with an atomic
/// length mirror, so the hot attribute-free path pays one relaxed load —
/// never a lock — to skip an empty side band.
struct SideLane {
    len: AtomicUsize,
    q: Mutex<VecDeque<FastJob>>,
}

impl SideLane {
    fn new() -> SideLane {
        SideLane {
            len: AtomicUsize::new(0),
            q: Mutex::new(VecDeque::new()),
        }
    }

    #[inline]
    fn is_empty_hint(&self) -> bool {
        self.len.load(Ordering::Relaxed) == 0
    }

    fn push_back(&self, job: FastJob) {
        let mut q = self.q.lock();
        q.push_back(job);
        self.len.store(q.len(), Ordering::Relaxed);
    }

    /// Owner side: LIFO. `None` without locking when the hint says empty.
    fn pop_back(&self) -> Option<FastJob> {
        if self.is_empty_hint() {
            return None;
        }
        let mut q = self.q.lock();
        let job = q.pop_back();
        self.len.store(q.len(), Ordering::Relaxed);
        job
    }

    /// Thief side: FIFO. `None` without locking when the hint says empty.
    fn pop_front(&self) -> Option<FastJob> {
        if self.is_empty_hint() {
            return None;
        }
        let mut q = self.q.lock();
        let job = q.pop_front();
        self.len.store(q.len(), Ordering::Relaxed);
        job
    }

    /// Retract the job identified by `token`, youngest match first.
    fn take(&self, token: *mut ()) -> Option<FastJob> {
        if self.is_empty_hint() {
            return None;
        }
        let mut q = self.q.lock();
        let pos = q.iter().rposition(|j| std::ptr::eq(j.data, token))?;
        let job = q.remove(pos);
        self.len.store(q.len(), Ordering::Relaxed);
        job
    }
}

/// One worker's share of [`DistributedLanes`]: the default band keeps the
/// original fixed-capacity T.H.E. deque (owner LIFO with one fence, thief
/// FIFO under the lane lock — the hot path, untouched), while the
/// non-default bands are small side deques whose emptiness is checked with
/// one relaxed load. Fork-join joins default to the normal band, so the
/// side lanes stay cold unless a front-end asks for an explicit priority.
struct BandedLane {
    high: SideLane,
    normal: FastLane,
    low: SideLane,
    /// Jobs currently in the two side deques combined. The attribute-free
    /// hot path pays exactly one relaxed load of this (instead of probing
    /// each side lane's hint) per pop/steal/take. Incremented *before* the
    /// locked side push, decremented after a successful side pop: a reader
    /// seeing a stale 0 misses the in-flight job once and finds it on the
    /// next poll — the same benign race the per-lane len mirrors already
    /// accept.
    side_jobs: AtomicUsize,
}

impl BandedLane {
    fn new() -> BandedLane {
        BandedLane {
            high: SideLane::new(),
            normal: FastLane::new(),
            low: SideLane::new(),
            side_jobs: AtomicUsize::new(0),
        }
    }

    fn side(&self, band: usize) -> Option<&SideLane> {
        match band {
            0 => Some(&self.high),
            2 => Some(&self.low),
            _ => None,
        }
    }

    /// One relaxed load deciding whether the side deques need probing at
    /// all; false is the steady state of attribute-free programs.
    #[inline]
    fn has_side_jobs(&self) -> bool {
        self.side_jobs.load(Ordering::Relaxed) != 0
    }

    #[inline]
    fn side_pushed(&self) {
        self.side_jobs.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    fn side_popped(&self) {
        self.side_jobs.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The engine's ready-work store: one priority-banded T.H.E. deque per
/// worker.
///
/// In the default band the owner pushes and pops at the tail with one fence
/// (Cilk-5's work-first discipline) and thieves take from the head under
/// the lane lock — the paper's fast lane. High/low bands ride per-worker
/// side deques consulted before/after the fast lane.
pub(crate) struct DistributedLanes {
    /// Padded so that no two workers' lanes share a cache line: the
    /// owner's fast-path writes stay on lines no other owner writes.
    lanes: Box<[CachePadded<BandedLane>]>,
}

impl DistributedLanes {
    /// One lane per worker.
    pub(crate) fn new(workers: usize) -> DistributedLanes {
        DistributedLanes {
            lanes: (0..workers)
                .map(|_| CachePadded::new(BandedLane::new()))
                .collect(),
        }
    }

    /// Push a fork-join job on `worker`'s lane at `band`; the default band
    /// folds to the T.H.E. push. `None` when the default lane is full, else
    /// whether the push made the lane non-empty (a side band counts as
    /// always: it is cold).
    #[inline]
    pub(crate) fn push_job(&self, worker: usize, job: FastJob, band: usize) -> Option<bool> {
        let lane = &self.lanes[worker];
        match lane.side(band) {
            Some(side) => {
                lane.side_pushed();
                side.push_back(job);
                Some(true)
            }
            None => lane.normal.push(job),
        }
    }

    /// Retract the fork-join job `token` from `worker`'s lane if no thief
    /// took it.
    #[inline]
    pub(crate) fn take_job(&self, worker: usize, token: *mut ()) -> Option<FastJob> {
        let lane = &self.lanes[worker];
        // Side bands: token scan (joins in these bands nest too, but a
        // foreign-band job must never disturb the default lane's tail).
        // Skipped entirely — one relaxed load — when no side job exists.
        if lane.has_side_jobs() {
            for side in [&lane.high, &lane.low] {
                if let Some(job) = side.take(token) {
                    lane.side_popped();
                    return Some(job);
                }
            }
        }
        // Default band: joins nest properly, so if the job is still queued
        // it is the tail.
        match lane.normal.pop() {
            Some(job) if std::ptr::eq(job.data, token) => Some(job),
            Some(job) => {
                // Not ours (a foreign push slipped in): put it back.
                debug_assert!(false, "fast-lane LIFO discipline violated");
                let _ = lane.normal.push(job);
                None
            }
            None => None,
        }
    }

    /// Owner-side pop of `worker`'s lane: high band first (LIFO within the
    /// deque), then the default T.H.E. lane, then low.
    pub(crate) fn pop(&self, worker: usize) -> Option<FastJob> {
        let lane = &self.lanes[worker];
        // Attribute-free fast path: one relaxed load skips both side
        // deques, leaving exactly the T.H.E. pop.
        let sided = lane.has_side_jobs();
        if sided {
            if let Some(job) = lane.high.pop_back() {
                lane.side_popped();
                return Some(job);
            }
        }
        // An empty lane costs two loads. `None` here is only a hint (the park
        // re-check reads the same one); `take_job` runs the full protocol.
        if !lane.normal.is_empty_hint() {
            if let Some(job) = lane.normal.pop() {
                return Some(job);
            }
        }
        if sided {
            if let Some(job) = lane.low.pop_back() {
                lane.side_popped();
                return Some(job);
            }
        }
        None
    }

    /// Could `pop(worker)` return a job right now? A hint, read when a
    /// scope caller hands a borrowed worker back: `true` wakes that worker.
    pub(crate) fn may_pop(&self, worker: usize) -> bool {
        let lane = &self.lanes[worker];
        lane.has_side_jobs() || !lane.normal.is_empty_hint()
    }

    /// Thief-side take from `victim`'s lane: high band FIFO, then the
    /// default lane's head, low band last.
    pub(crate) fn steal(&self, victim: usize) -> Option<FastJob> {
        let lane = &self.lanes[victim];
        let sided = lane.has_side_jobs();
        if sided {
            if let Some(job) = lane.high.pop_front() {
                lane.side_popped();
                return Some(job);
            }
        }
        if let Some(job) = lane.normal.steal() {
            return Some(job);
        }
        if sided {
            if let Some(job) = lane.low.pop_front() {
                lane.side_popped();
                return Some(job);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::NORMAL_BAND;
    use crate::runtime::RtInner;
    use std::sync::Arc;

    fn dummy_job(tag: usize) -> FastJob {
        unsafe fn exec(_d: *mut (), _rt: &Arc<RtInner>, _w: usize) {}
        FastJob {
            data: tag as *mut (),
            exec,
        }
    }

    fn tag(job: FastJob) -> usize {
        job.data as usize
    }

    #[test]
    fn distributed_lanes_route_per_worker() {
        let q = DistributedLanes::new(2);
        assert!(q.pop(0).is_none());
        q.push_job(0, dummy_job(1), NORMAL_BAND as usize).unwrap();
        q.push_job(0, dummy_job(2), NORMAL_BAND as usize).unwrap();
        assert!(q.pop(1).is_none(), "lanes are per-worker");
        // Thief takes FIFO from the victim's lane.
        assert_eq!(q.steal(0).map(tag), Some(1));
        // Owner takes LIFO.
        assert_eq!(q.pop(0).map(tag), Some(2));
    }

    #[test]
    fn take_retracts_own_tail_job() {
        let q = DistributedLanes::new(1);
        q.push_job(0, dummy_job(7), NORMAL_BAND as usize).unwrap();
        assert_eq!(q.take_job(0, 7 as *mut ()).map(tag), Some(7));
        assert!(q.take_job(0, 7 as *mut ()).is_none(), "already taken");
    }

    #[test]
    fn bands_pop_high_before_default_before_low() {
        let q = DistributedLanes::new(1);
        q.push_job(0, dummy_job(30), 2).unwrap();
        q.push_job(0, dummy_job(20), NORMAL_BAND as usize).unwrap();
        q.push_job(0, dummy_job(10), 0).unwrap();
        assert!(q.may_pop(0));
        let order: Vec<usize> = std::iter::from_fn(|| q.pop(0)).map(tag).collect();
        assert_eq!(order, vec![10, 20, 30]);
        assert!(!q.may_pop(0));
    }

    #[test]
    fn take_finds_banded_jobs_without_touching_default_lane() {
        let q = DistributedLanes::new(1);
        q.push_job(0, dummy_job(8), NORMAL_BAND as usize).unwrap();
        q.push_job(0, dummy_job(2), 0).unwrap();
        assert_eq!(q.take_job(0, 2 as *mut ()).map(tag), Some(2));
        // The default-band job is still the retractable tail.
        assert_eq!(q.take_job(0, 8 as *mut ()).map(tag), Some(8));
    }
}
