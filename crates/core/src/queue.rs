//! The queue layer: where *ready* work lives, behind the [`TaskQueue`]
//! trait.
//!
//! The engine separates three concerns the seed runtime had fused together:
//!
//! * the **dependency layer** ([`Frame`](crate::frame)) decides *when* a
//!   data-flow task becomes ready;
//! * the **queue layer** (this module) decides *where* ready work is stored
//!   and how workers obtain it;
//! * the **steal layer** ([`StealPolicy`](crate::policy::StealPolicy))
//!   decides the thief-side protocol used to reach a victim's work.
//!
//! Two families of [`TaskQueue`] implementations exist:
//!
//! * **distributed** — [`DistributedLanes`], one T.H.E. deque per worker
//!   (owner LIFO, thief FIFO): the X-Kaapi design. Data-flow tasks stay in
//!   their frames and are discovered lazily by steal scans.
//! * **centralized** — one shared pool every worker pushes to and pops
//!   from; the engine then publishes data-flow tasks eagerly on spawn and
//!   completion (insertion-time scheduling, as QUARK and libGOMP do). The
//!   implementations live with the baselines they were extracted from:
//!   `xkaapi_omp::OmpCentralQueue` and `xkaapi_quark::QuarkCentralQueue`.
//!
//! Since the task-attribute redesign (`DESIGN.md` §5) every queue is
//! **priority-banded**: a [`WorkItem`] carries the band of the
//! [`Priority`](crate::Priority) it was created with, implementations keep
//! one sub-queue per band and pop the highest non-empty band first. The
//! default band preserves each queue's historical order exactly (owner
//! LIFO / thief FIFO for the distributed lanes, FIFO for the central
//! pools), so attribute-free programs schedule identically to before.
//!
//! Every front-end paradigm — data-flow spawns, fork-join joins, adaptive
//! loops — runs through whichever queue the [`Runtime`](crate::Runtime) was
//! built with, which is what lets one binary A/B centralized against
//! distributed scheduling without switching codebases.

use crate::attrs::{NORMAL_BAND, PRIORITY_BANDS};
use crate::fastlane::{FastJob, FastLane};
use crate::steal::Grab;
use crate::task::Task;
use crossbeam_utils::CachePadded;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// One unit of ready work, opaque to [`TaskQueue`] implementors.
///
/// Internally this wraps the engine's `Grab`: a fork-join stack job, a
/// claimed data-flow task, or a closure (stolen loop slice). External
/// implementations only store and return items; [`WorkItem::token`] and
/// [`WorkItem::band`] are the only inspection they need (to honor
/// [`TaskQueue::take`] and the banded pop order).
pub struct WorkItem {
    pub(crate) grab: Grab,
    /// Priority band (0 = high); see [`crate::Priority::band`].
    band: u8,
}

impl WorkItem {
    pub(crate) fn fast(job: FastJob) -> WorkItem {
        WorkItem {
            grab: Grab::Fast(job),
            band: NORMAL_BAND,
        }
    }

    pub(crate) fn fast_banded(job: FastJob, band: u8) -> WorkItem {
        WorkItem {
            grab: Grab::Fast(job),
            band,
        }
    }

    /// A claimed data-flow task; the band comes straight from the carried
    /// `Arc<Task>` — no frame lock on this path.
    pub(crate) fn task(task: Arc<Task>) -> WorkItem {
        let band = task.band();
        WorkItem {
            grab: Grab::Task(task),
            band,
        }
    }

    pub(crate) fn into_grab(self) -> Grab {
        self.grab
    }

    /// Priority band of this item: 0 = high, [`PRIORITY_BANDS`]` - 1` =
    /// low. Implementations must pop lower band indices first and keep
    /// their historical order within a band.
    #[inline]
    pub fn band(&self) -> usize {
        (self.band as usize).min(PRIORITY_BANDS - 1)
    }

    /// Identity token of a fork-join stack job (null for any other item).
    ///
    /// [`TaskQueue::take`] uses it to retract a specific job on the
    /// fork-join fast path.
    pub fn token(&self) -> *mut () {
        match &self.grab {
            Grab::Fast(j) => j.data,
            _ => std::ptr::null_mut(),
        }
    }
}

impl std::fmt::Debug for WorkItem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match &self.grab {
            Grab::Fast(_) => "fast",
            Grab::Task(_) => "task",
            Grab::Run(_) => "run",
        };
        f.debug_struct("WorkItem")
            .field("kind", &kind)
            .field("band", &self.band)
            .finish()
    }
}

/// The victim-side structure holding ready work (queue layer of the engine).
///
/// Implementations must be safe for concurrent use by every worker of one
/// runtime. `worker`/`victim`/`thief` arguments are worker indices in
/// `0..num_workers`.
///
/// # Priority contract
///
/// [`WorkItem::band`] partitions items into [`PRIORITY_BANDS`] bands.
/// `pop`/`steal` must return items from the lowest-numbered (highest
/// priority) non-empty band first; within one band the queue's natural
/// order applies. Items of the default band must behave exactly as they
/// did before bands existed.
pub trait TaskQueue: Send + Sync {
    /// Short human-readable name (ablation tables).
    fn name(&self) -> &'static str;

    /// Centralized queues share one pool: steals ignore the victim, and the
    /// engine eagerly publishes ready data-flow tasks into the queue at
    /// spawn/completion time instead of relying on lazy steal scans.
    fn centralized(&self) -> bool;

    /// Owner-side push of ready work produced on `worker`. Returns the item
    /// back when the queue refuses it (e.g. a bounded lane is full, or a
    /// distributed lane is handed a non-fork-join item); the engine then
    /// runs the item inline.
    fn push(&self, worker: usize, item: WorkItem) -> Result<(), WorkItem>;

    /// Pop work for `worker` without a steal protocol (own lane LIFO for
    /// distributed queues, shared FIFO for centralized ones), highest
    /// priority band first.
    fn pop(&self, worker: usize) -> Option<WorkItem>;

    /// Steal on behalf of `thief` from `victim`'s share of the queue,
    /// highest priority band first.
    fn steal(&self, thief: usize, victim: usize) -> Option<WorkItem>;

    /// Retract the exact item identified by `token` (see
    /// [`WorkItem::token`]) if it is still queued for `worker`. The
    /// fork-join fast path uses this to reclaim its own stack job.
    fn take(&self, worker: usize, token: *mut ()) -> Option<WorkItem>;

    /// Could `pop(worker)` return an item right now? A hint, read when a
    /// scope caller hands a borrowed worker back: `true` wakes that
    /// worker. The default `true` is always correct, at the cost of that
    /// wake.
    fn may_pop(&self, worker: usize) -> bool {
        let _ = worker;
        true
    }
}

/// A non-default band's side deque: a mutexed FIFO/LIFO with an atomic
/// length mirror, so the hot attribute-free path pays one relaxed load —
/// never a lock — to skip an empty side band.
struct SideLane {
    len: std::sync::atomic::AtomicUsize,
    q: Mutex<VecDeque<FastJob>>,
}

impl SideLane {
    fn new() -> SideLane {
        SideLane {
            len: std::sync::atomic::AtomicUsize::new(0),
            q: Mutex::new(VecDeque::new()),
        }
    }

    #[inline]
    fn is_empty_hint(&self) -> bool {
        self.len.load(std::sync::atomic::Ordering::Relaxed) == 0
    }

    fn push_back(&self, job: FastJob) {
        let mut q = self.q.lock();
        q.push_back(job);
        self.len
            .store(q.len(), std::sync::atomic::Ordering::Relaxed);
    }

    /// Owner side: LIFO. `None` without locking when the hint says empty.
    fn pop_back(&self) -> Option<FastJob> {
        if self.is_empty_hint() {
            return None;
        }
        let mut q = self.q.lock();
        let job = q.pop_back();
        self.len
            .store(q.len(), std::sync::atomic::Ordering::Relaxed);
        job
    }

    /// Thief side: FIFO. `None` without locking when the hint says empty.
    fn pop_front(&self) -> Option<FastJob> {
        if self.is_empty_hint() {
            return None;
        }
        let mut q = self.q.lock();
        let job = q.pop_front();
        self.len
            .store(q.len(), std::sync::atomic::Ordering::Relaxed);
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
        self.len
            .store(q.len(), std::sync::atomic::Ordering::Relaxed);
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

/// Default distributed queue: one priority-banded T.H.E. deque per worker.
///
/// In the default band the owner pushes and pops at the tail with one fence
/// (Cilk-5's work-first discipline) and thieves take from the head under
/// the lane lock — the paper's fast lane, bit-for-bit the pre-band
/// behaviour. High/low bands ride per-worker side deques consulted before/
/// after the fast lane.
pub struct DistributedLanes {
    /// Padded so that no two workers' lanes share a cache line: the
    /// owner's fast-path writes stay on lines no other owner writes.
    lanes: Box<[CachePadded<BandedLane>]>,
}

impl DistributedLanes {
    /// One lane per worker.
    pub fn new(workers: usize) -> DistributedLanes {
        DistributedLanes {
            lanes: (0..workers)
                .map(|_| CachePadded::new(BandedLane::new()))
                .collect(),
        }
    }

    /// [`TaskQueue::push`] of a fork-join job at `band`, without the
    /// `WorkItem` round trip: `Ctx::join` calls it directly when these are
    /// the runtime's lanes, and the default band folds to the T.H.E. push.
    /// `None` when the default lane is full, else whether the push made
    /// the lane non-empty (a side band counts as always: it is cold).
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

    /// [`TaskQueue::take`] of the fork-join job `token`, with its band.
    #[inline]
    pub(crate) fn take_job(&self, worker: usize, token: *mut ()) -> Option<(FastJob, u8)> {
        let lane = &self.lanes[worker];
        // Side bands: token scan (joins in these bands nest too, but a
        // foreign-band job must never disturb the default lane's tail).
        // Skipped entirely — one relaxed load — when no side job exists.
        if lane.has_side_jobs() {
            for (band, side) in [(0u8, &lane.high), (2u8, &lane.low)] {
                if let Some(job) = side.take(token) {
                    lane.side_popped();
                    return Some((job, band));
                }
            }
        }
        // Default band: joins nest properly, so if the job is still queued
        // it is the tail.
        match lane.normal.pop() {
            Some(job) if std::ptr::eq(job.data, token) => Some((job, NORMAL_BAND)),
            Some(job) => {
                // Not ours (a foreign push slipped in): put it back.
                debug_assert!(false, "fast-lane LIFO discipline violated");
                let _ = lane.normal.push(job);
                None
            }
            None => None,
        }
    }
}

impl TaskQueue for DistributedLanes {
    fn name(&self) -> &'static str {
        "distributed-lanes"
    }

    fn centralized(&self) -> bool {
        false
    }

    fn push(&self, worker: usize, item: WorkItem) -> Result<(), WorkItem> {
        let band = item.band();
        match item.grab {
            Grab::Fast(job) => match self.push_job(worker, job, band) {
                Some(_) => Ok(()),
                None => Err(WorkItem::fast_banded(job, band as u8)),
            },
            // Data-flow tasks stay in their frames under this policy; loop
            // slices travel through the steal protocol. Refusing them makes
            // the engine run the item inline.
            grab => Err(WorkItem {
                grab,
                band: band as u8,
            }),
        }
    }

    fn pop(&self, worker: usize) -> Option<WorkItem> {
        let lane = &self.lanes[worker];
        // Attribute-free fast path: one relaxed load skips both side
        // deques, leaving exactly the pre-band T.H.E. pop.
        let sided = lane.has_side_jobs();
        // Owner order: high band first (LIFO within the deque), then the
        // default T.H.E. lane, then low.
        if sided {
            if let Some(job) = lane.high.pop_back() {
                lane.side_popped();
                return Some(WorkItem::fast_banded(job, 0));
            }
        }
        // An empty lane costs two loads. `None` here is only a hint (the park
        // re-check reads the same one); `take_job` runs the full protocol.
        if !lane.normal.is_empty_hint() {
            if let Some(job) = lane.normal.pop() {
                return Some(WorkItem::fast(job));
            }
        }
        if sided {
            if let Some(job) = lane.low.pop_back() {
                lane.side_popped();
                return Some(WorkItem::fast_banded(job, 2));
            }
        }
        None
    }

    fn may_pop(&self, worker: usize) -> bool {
        let lane = &self.lanes[worker];
        lane.has_side_jobs() || !lane.normal.is_empty_hint()
    }

    fn steal(&self, _thief: usize, victim: usize) -> Option<WorkItem> {
        let lane = &self.lanes[victim];
        let sided = lane.has_side_jobs();
        // Thief order: high band FIFO, then the default lane's head, low
        // band last.
        if sided {
            if let Some(job) = lane.high.pop_front() {
                lane.side_popped();
                return Some(WorkItem::fast_banded(job, 0));
            }
        }
        if let Some(job) = lane.normal.steal() {
            return Some(WorkItem::fast(job));
        }
        if sided {
            if let Some(job) = lane.low.pop_front() {
                lane.side_popped();
                return Some(WorkItem::fast_banded(job, 2));
            }
        }
        None
    }

    fn take(&self, worker: usize, token: *mut ()) -> Option<WorkItem> {
        self.take_job(worker, token)
            .map(|(job, band)| WorkItem::fast_banded(job, band))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::RtInner;

    fn dummy_job(tag: usize) -> FastJob {
        unsafe fn exec(_d: *mut (), _rt: &Arc<RtInner>, _w: usize) {}
        FastJob {
            data: tag as *mut (),
            exec,
        }
    }

    #[test]
    fn distributed_lanes_route_per_worker() {
        let q = DistributedLanes::new(2);
        assert!(!q.centralized());
        assert!(q.pop(0).is_none());
        q.push(0, WorkItem::fast(dummy_job(1))).unwrap();
        q.push(0, WorkItem::fast(dummy_job(2))).unwrap();
        assert!(q.pop(1).is_none(), "lanes are per-worker");
        // Thief takes FIFO from the victim's lane.
        let stolen = q.steal(1, 0).unwrap();
        assert_eq!(stolen.token() as usize, 1);
        // Owner takes LIFO.
        let own = q.pop(0).unwrap();
        assert_eq!(own.token() as usize, 2);
    }

    #[test]
    fn take_retracts_own_tail_job() {
        let q = DistributedLanes::new(1);
        q.push(0, WorkItem::fast(dummy_job(7))).unwrap();
        assert_eq!(q.take(0, 7 as *mut ()).unwrap().token() as usize, 7);
        assert!(q.take(0, 7 as *mut ()).is_none(), "already taken");
    }

    #[test]
    fn bands_pop_high_before_default_before_low() {
        let q = DistributedLanes::new(1);
        q.push(0, WorkItem::fast_banded(dummy_job(30), 2)).unwrap();
        q.push(0, WorkItem::fast(dummy_job(20))).unwrap();
        q.push(0, WorkItem::fast_banded(dummy_job(10), 0)).unwrap();
        let order: Vec<usize> = std::iter::from_fn(|| q.pop(0))
            .map(|i| i.token() as usize)
            .collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn take_finds_banded_jobs_without_touching_default_lane() {
        let q = DistributedLanes::new(1);
        q.push(0, WorkItem::fast(dummy_job(8))).unwrap();
        q.push(0, WorkItem::fast_banded(dummy_job(2), 0)).unwrap();
        let got = q.take(0, 2 as *mut ()).unwrap();
        assert_eq!(got.token() as usize, 2);
        assert_eq!(got.band(), 0);
        // The default-band job is still the retractable tail.
        assert_eq!(q.take(0, 8 as *mut ()).unwrap().token() as usize, 8);
    }
}
