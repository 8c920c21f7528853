//! The worker layer: per-worker state and the idle loop.
//!
//! One OS thread per configured worker ("one thread per core" in the
//! paper). Each [`Worker`] owns the engine-side state thieves interact
//! with — active frames, adaptive-work registry, the steal point (request
//! stack + combiner lock) and statistics. The idle loop
//! ([`worker_main`]) is the engine's outermost layer:
//!
//! ```text
//! queue.pop → injected root jobs → steal (policy-driven) → park
//! ```
//!
//! Parking is centralized in [`ParkLot`]: a worker whose *steal fail
//! streak* (consecutive failed acquisition attempts, tracked on the
//! [`Worker`] so the steal policy sees it too) reaches
//! `Tunables::steal_rounds_before_park` blocks on the lot's condvar with a
//! [`PARK_TIMEOUT`] timeout (bounding lost wake-up races), and
//! producers call [`ParkLot::signal`] — one relaxed load when nobody
//! sleeps.

use crate::adaptive::Adaptive;
use crate::ctx::RawCtx;
use crate::frame::Frame;
use crate::runtime::RtInner;
use crate::stats::WorkerStats;
use crate::steal::{run_grab, try_steal_once, Request};
use crate::telemetry::{self, EventKind, WorkerTelemetry};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How long a parked worker sleeps before re-probing, even unsignalled:
/// the bound on what a lost wake-up race costs.
const PARK_TIMEOUT: Duration = Duration::from_micros(500);

/// One worker: its frames (stealable task stacks), adaptive-work registry,
/// steal point (request stack + combiner lock) and statistics.
pub(crate) struct Worker {
    #[allow(dead_code)] // identity, useful in debugging/traces
    pub(crate) idx: usize,
    /// Active frames on this worker, oldest first (thieves scan from the
    /// oldest, as in the paper's victim-stack traversal).
    pub(crate) frames: Mutex<Vec<Arc<Frame>>>,
    /// Adaptive (splittable) work currently running on this worker.
    pub(crate) adaptives: Mutex<Vec<Arc<dyn Adaptive>>>,
    /// Combiner election: the thief holding this lock serves the victim's
    /// pending steal requests.
    pub(crate) steal_lock: Mutex<()>,
    /// Treiber stack of posted steal requests.
    pub(crate) req_head: AtomicPtr<Request>,
    /// This worker's own request node, posted to victims when idle.
    pub(crate) req: Request,
    pub(crate) stats: WorkerStats,
    /// Telemetry bundle: this worker's SPSC event ring and banded latency
    /// histograms (`DESIGN.md` §9). Allocated here, at construction, so
    /// enabling tracing later never allocates; the owning worker thread
    /// is the ring's only producer.
    pub(crate) tele: WorkerTelemetry,
    /// Consecutive failed steal attempts (reset on any acquired work).
    /// Read by the steal policy for victim escalation and by the idle loop
    /// for the park decision. Only the owning worker thread writes it, so
    /// plain load/store suffices.
    fail_streak: AtomicU32,
    /// Recycled quiescent frames.
    frame_pool: Mutex<Vec<Arc<Frame>>>,
    rng: AtomicU64,
}

impl Worker {
    pub(crate) fn new(idx: usize) -> Worker {
        Worker {
            idx,
            frames: Mutex::new(Vec::new()),
            adaptives: Mutex::new(Vec::new()),
            steal_lock: Mutex::new(()),
            req_head: AtomicPtr::new(std::ptr::null_mut()),
            req: Request::new(idx),
            stats: WorkerStats::default(),
            tele: WorkerTelemetry::new(),
            fail_streak: AtomicU32::new(0),
            frame_pool: Mutex::new(Vec::new()),
            rng: AtomicU64::new(0x9E37_79B9_7F4A_7C15 ^ ((idx as u64 + 1) << 17)),
        }
    }

    /// Current steal fail streak (consecutive failed attempts).
    #[inline]
    pub(crate) fn fail_streak(&self) -> u32 {
        self.fail_streak.load(Ordering::Relaxed)
    }

    /// Record one more failed steal attempt (saturating).
    #[inline]
    pub(crate) fn note_steal_failure(&self) {
        let s = self.fail_streak.load(Ordering::Relaxed);
        if s < u32::MAX {
            self.fail_streak.store(s + 1, Ordering::Relaxed);
        }
    }

    /// Reset the fail streak (work was acquired somewhere).
    #[inline]
    pub(crate) fn reset_fail_streak(&self) {
        self.fail_streak.store(0, Ordering::Relaxed);
    }

    /// xorshift64* victim selector (relaxed: statistical quality only).
    pub(crate) fn next_rand(&self) -> u64 {
        let mut x = self.rng.load(Ordering::Relaxed);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng.store(x, Ordering::Relaxed);
        x
    }

    pub(crate) fn register_frame(&self, f: Arc<Frame>) {
        self.frames.lock().push(f);
    }

    pub(crate) fn deregister_frame(&self, f: &Arc<Frame>) {
        let mut frames = self.frames.lock();
        if let Some(pos) = frames.iter().rposition(|x| Arc::ptr_eq(x, f)) {
            frames.remove(pos);
        }
    }

    /// Take a recycled frame, if any.
    pub(crate) fn pop_pooled_frame(&self) -> Option<Arc<Frame>> {
        self.frame_pool.lock().pop()
    }

    /// Recycle `f` if we are its only owner and it is quiescent.
    pub(crate) fn recycle_frame(&self, f: Arc<Frame>) {
        if Arc::strong_count(&f) == 1 && f.pending() == 0 {
            f.reset();
            let mut pool = self.frame_pool.lock();
            if pool.len() < 64 {
                pool.push(f);
            }
        }
    }

    pub(crate) fn register_adaptive(&self, a: Arc<dyn Adaptive>) {
        self.adaptives.lock().push(a);
    }

    pub(crate) fn deregister_adaptive(&self, a: &Arc<dyn Adaptive>) {
        let mut ads = self.adaptives.lock();
        if let Some(pos) = ads.iter().rposition(|x| Arc::ptr_eq(x, a)) {
            ads.remove(pos);
        }
    }
}

/// The parking place idle workers block in, and producers signal.
pub(crate) struct ParkLot {
    mx: Mutex<()>,
    cv: Condvar,
    sleepers: AtomicUsize,
}

impl ParkLot {
    pub(crate) fn new() -> ParkLot {
        ParkLot {
            mx: Mutex::new(()),
            cv: Condvar::new(),
            sleepers: AtomicUsize::new(0),
        }
    }

    /// Wake parked workers because new work appeared. Cheap when nobody
    /// sleeps (one relaxed load).
    #[inline]
    pub(crate) fn signal(&self) {
        // Relaxed: a missed wake-up is repaired by the park timeout.
        if self.sleepers.load(Ordering::Relaxed) > 0 {
            let _g = self.mx.lock();
            self.cv.notify_all();
        }
    }

    /// Wake everyone unconditionally (shutdown).
    pub(crate) fn signal_all(&self) {
        let _g = self.mx.lock();
        self.cv.notify_all();
    }

    /// Park unless `should_stay_awake` already holds; bounded by
    /// [`PARK_TIMEOUT`] so a lost wake-up race costs at most one period.
    pub(crate) fn park(&self, should_stay_awake: impl Fn() -> bool) {
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let mut g = self.mx.lock();
        if !should_stay_awake() {
            self.cv.wait_for(&mut g, PARK_TIMEOUT);
        }
        drop(g);
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

// ---------------------------------------------------------------------------
// Thread-local identity: which runtime/worker is this thread?

thread_local! {
    static CURRENT: std::cell::Cell<(usize, usize)> =
        const { std::cell::Cell::new((0, usize::MAX)) };
}

pub(crate) fn set_current(rt: &Arc<RtInner>, widx: usize) {
    CURRENT.with(|c| c.set((Arc::as_ptr(rt) as usize, widx)));
}

/// If the current thread is a worker of `rt`, its index.
pub(crate) fn current_worker_of(rt: &Arc<RtInner>) -> Option<usize> {
    let (ptr, idx) = CURRENT.with(|c| c.get());
    (ptr == Arc::as_ptr(rt) as usize && idx != usize::MAX).then_some(idx)
}

// ---------------------------------------------------------------------------

/// Acquire one injected root job for worker `idx` — own node's lane first,
/// then remote lanes in ascending distance order — and run it. Any lane
/// drain (own *or* remote) resets the steal fail streak: acquired work is
/// acquired work, wherever the lane sat; the drain is classified under
/// `inject_own_lane` / `inject_remote_lane` so the locality of the
/// injection path stays observable.
pub(crate) fn try_drain_inject(rt: &Arc<RtInner>, idx: usize) -> bool {
    #[cfg(feature = "fault-injection")]
    crate::fault::on_worker_boundary(rt, idx);
    let node = rt.topo.node_of(idx);
    let Some((job, lane)) = rt.inject.pop_for(node) else {
        return false;
    };
    let my = &rt.workers[idx];
    if lane == node {
        WorkerStats::bump(&my.stats.inject_own_lane, 1);
    } else {
        WorkerStats::bump(&my.stats.inject_remote_lane, 1);
    }
    my.reset_fail_streak();
    let mut raw = RawCtx::new(rt, idx);
    if rt.telemetry.enabled() {
        // Traced job span (`DESIGN.md` §9): drain instant + B/E pair, the
        // submit→start delta (stamped at submission) into the band's
        // queueing histogram and the body wall time into the service one.
        let band = job.band.min(crate::attrs::PRIORITY_BANDS as u8 - 1);
        let t0 = telemetry::tick();
        my.tele.emit(t0, EventKind::InjectDrain, band, lane as u32);
        if job.submit_tick != 0 {
            my.tele.submit_to_start[band as usize].record(t0.saturating_sub(job.submit_tick));
        }
        my.tele.emit(t0, EventKind::JobBegin, band, lane as u32);
        (job.run)(&mut raw);
        let t1 = telemetry::tick();
        my.tele.emit(t1, EventKind::JobEnd, band, lane as u32);
        my.tele.start_to_done[band as usize].record(t1.saturating_sub(t0));
    } else {
        (job.run)(&mut raw);
    }
    true
}

/// Run one queued/injected/stolen piece of work for worker `idx`. Returns
/// `false` when no work could be acquired anywhere.
pub(crate) fn acquire_and_run(rt: &Arc<RtInner>, idx: usize) -> bool {
    // 1. Queue layer: own lane (distributed) or the shared pool (central).
    if let Some(item) = rt.queue.pop(idx) {
        run_grab(rt, idx, item.into_grab());
        return true;
    }
    // 2. Injection layer: root jobs from outside the pool, nearest lane
    //    first.
    if try_drain_inject(rt, idx) {
        return true;
    }
    // 3. Steal layer: policy-driven victim probing.
    if let Some(grab) = try_steal_once(rt, idx) {
        run_grab(rt, idx, grab);
        return true;
    }
    false
}

/// The worker idle loop: acquire work, else spin briefly, else park.
///
/// The park decision rides the worker's steal *fail streak* (maintained by
/// the steal layer, reset on any acquired work): the same signal the steal
/// policy uses to escalate from near victims to far ones, so a worker
/// first exhausts its local node, then the remote ones, then blocks.
pub(crate) fn worker_main(rt: Arc<RtInner>, idx: usize) {
    set_current(&rt, idx);
    let my = &rt.workers[idx];
    if rt.tun.pin_workers {
        // Best-effort pinning to the topology's core (the detected or
        // declared machine shape). Failure keeps the nominal mapping; the
        // counter records how many workers actually stuck.
        if crate::pin::pin_current_thread(rt.topo.core_of(idx)) {
            WorkerStats::bump(&my.stats.workers_pinned, 1);
        }
    }
    loop {
        if rt.shutdown.load(Ordering::Acquire) {
            break;
        }
        if acquire_and_run(&rt, idx) {
            my.reset_fail_streak();
            continue;
        }
        let streak = my.fail_streak();
        if streak < rt.tun.steal_rounds_before_park {
            std::hint::spin_loop();
            if streak.is_multiple_of(8) {
                std::thread::yield_now();
            }
        } else {
            // Park/unpark span events are emitted here — on the worker
            // thread, the ring's single producer — not inside ParkLot,
            // which has no worker identity.
            telemetry::emit_current(&rt, idx, EventKind::Park, 0, streak);
            let rt2 = &rt;
            rt.park_lot.park(|| {
                rt2.shutdown.load(Ordering::Acquire)
                    || rt2.inject.has_pending_hint()
                    || !rt2.queue.is_empty_hint(idx)
            });
            telemetry::emit_current(&rt, idx, EventKind::Unpark, 0, 0);
        }
    }
}
