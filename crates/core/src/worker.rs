//! The worker layer: per-worker state and the idle loop.
//!
//! One OS thread per configured worker ("one thread per core" in the
//! paper). Each [`Worker`] owns the engine-side state thieves interact
//! with — active frames, adaptive-work registry, the steal point (request
//! stack + combiner lock) and statistics. The idle loop
//! ([`worker_main`]) is the engine's outermost layer:
//!
//! ```text
//! queue.pop → inject → steal → search → park
//! ```
//!
//! A worker that finds no work has two idle states. **Searching**: it
//! keeps probing (spin hint, a `yield_now` every few rounds) until
//! [`SEARCH_BUDGET`] of wall time has passed since it last acquired work;
//! at most ⌈W/2⌉ workers (but at least two) search at once, the rest
//! park straight away.
//! **Parked**: it blocks in [`ParkLot`] with no timeout, so an idle
//! runtime makes no context switches at all.
//!
//! Blocking without a timeout is safe because of one invariant, kept by a
//! Dekker-style handshake: *stealable work that no awake worker will
//! find always wakes a parked one.* A parker announces itself
//! (`sleepers += 1`), issues a `SeqCst` fence, then makes a real
//! acquisition attempt on every source — its queue lane, the inject
//! lanes, and the fast lane, frames and adaptive loops of every victim
//! the steal policy allows — and blocks only if all of them came back
//! empty. A producer publishes its
//! work, issues a `SeqCst` fence, then reads the sleeper count. The two
//! fences are totally ordered, so either the parker's re-check sees the
//! work or the producer sees the parker and hands it a wake permit. The
//! producer sites ([`RtInner::notify_work`] and its callers):
//!
//! * `Ctx::join` — only when its push made the deque non-empty; a job
//!   pushed behind another is the owner's to reclaim anyway, so fib's
//!   join path pays no fence in the common case;
//! * `RawCtx::spawn_common` — every data-flow spawn;
//! * `complete_and_publish` — a completion that leaves its frame with
//!   unfinished tasks (it may have readied some);
//! * `foreach_run` — a loop launch, which wakes up to W−1 workers;
//! * `publish_ready` — the centralized queues, one wake per task;
//! * `Runtime::submit` and `Runtime::scope` — a root job.
//!
//! A producer wakes no one while a searcher is awake to find its work.
//! That is why a searcher that finds work while it is the last searcher
//! wakes one parked worker (the Tokio/Go rule): the next unit then still
//! has someone looking for it.

use crate::adaptive::Adaptive;
use crate::ctx::RawCtx;
use crate::frame::Frame;
use crate::runtime::{Job, RtInner};
use crate::stats::WorkerStats;
use crate::steal::{run_grab, steal_exact, try_steal_once, Grab, Request};
use crate::telemetry::{self, EventKind, WorkerTelemetry};
use crossbeam_utils::CachePadded;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{fence, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a worker keeps searching after it last acquired work before
/// it parks. Longer than a futex wake-up (a few µs), so back-to-back
/// submissions and loop launches find their workers awake; short enough
/// that an idle runtime is asleep well inside a millisecond.
const SEARCH_BUDGET: Duration = Duration::from_micros(50);

/// Searching rounds between two `yield_now` calls, so that searchers
/// timesliced on one core with a busy worker hand the core back.
const YIELD_EVERY: u32 = 8;

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
    /// Read by the steal policy for victim escalation. Only the owning
    /// worker thread writes it, so plain load/store suffices.
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

/// The parking place idle workers block in, and producers wake them from.
///
/// Holds the two idle-state counts producers read: `sleepers` (workers
/// that announced they are about to block, or are blocked) and
/// `searching`. A wake is a *permit* under the lock, not just a condvar
/// notification, so a wake granted to a worker that announced but has
/// not reached `cv.wait` yet is not lost: it finds the permit and returns.
/// A permit left over by a parker whose re-check found work costs the
/// next parker one extra search phase.
pub(crate) struct ParkLot {
    /// Wake permits granted and not yet taken.
    permits: Mutex<usize>,
    cv: Condvar,
    /// Each count on a line of its own: searchers write `searching` on
    /// every idle stretch, and every producer reads `sleepers` — sharing
    /// a line with each other or with the runtime's read-mostly fields
    /// cost a 1-worker submit loop about 10 %.
    sleepers: CachePadded<AtomicUsize>,
    searching: CachePadded<AtomicUsize>,
    /// ⌈W/2⌉ but at least two: more would only contend on the victims,
    /// and with one a two-worker pool paid a futex wake on every loop
    /// launch (the searcher that took the launching job woke the other).
    max_searching: usize,
}

impl ParkLot {
    pub(crate) fn new(workers: usize) -> ParkLot {
        ParkLot {
            permits: Mutex::new(0),
            cv: Condvar::new(),
            sleepers: CachePadded::new(AtomicUsize::new(0)),
            searching: CachePadded::new(AtomicUsize::new(0)),
            max_searching: workers.div_ceil(2).max(2).min(workers.max(1)),
        }
    }

    /// Producer side, after publishing `units` new stealable units: the
    /// fence of the handshake (see the module docs), then
    /// [`ParkLot::wake_if_needed`].
    #[inline]
    pub(crate) fn notify(&self, units: usize) {
        fence(Ordering::SeqCst);
        self.wake_if_needed(units);
    }

    /// Wake one parked worker per unit no searcher is awake to take.
    /// Without the fence of [`ParkLot::notify`] this is a best-effort
    /// hint; one load when nobody sleeps.
    #[inline]
    pub(crate) fn wake_if_needed(&self, units: usize) {
        // Acquire: a parker decrements `searching` before it announces,
        // so seeing its announcement means seeing it leave the searchers.
        if self.sleepers.load(Ordering::Acquire) == 0 {
            return;
        }
        let searching = self.searching.load(Ordering::Acquire);
        if units > searching {
            self.wake(units - searching);
        }
    }

    #[cold]
    fn wake(&self, n: usize) {
        let mut permits = self.permits.lock();
        let grant = n.min(
            self.sleepers
                .load(Ordering::Relaxed)
                .saturating_sub(*permits),
        );
        *permits += grant;
        for _ in 0..grant {
            self.cv.notify_one();
        }
    }

    /// Wake everyone unconditionally (shutdown: the waiters' `stop`
    /// condition is already set).
    pub(crate) fn wake_all(&self) {
        let _g = self.permits.lock();
        self.cv.notify_all();
    }

    /// Enter the searching state unless `max_searching` workers already
    /// search.
    fn try_search(&self) -> bool {
        let mut n = self.searching.load(Ordering::Relaxed);
        while n < self.max_searching {
            match self.searching.compare_exchange_weak(
                n,
                n + 1,
                Ordering::SeqCst,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(cur) => n = cur,
            }
        }
        false
    }

    /// A searcher acquired work. If it was the last searcher, wake one
    /// parked worker to keep looking: producers skipped their wake
    /// because this worker was searching.
    fn found_work(&self) {
        if self.searching.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.notify(1);
        }
    }

    /// A searcher gives up: it parks next.
    fn stop_searching(&self) {
        self.searching.fetch_sub(1, Ordering::SeqCst);
    }

    /// First half of parking: announce, then fence. The caller must make
    /// its re-check of every work source after this, and then call either
    /// [`ParkLot::retract`] or [`ParkLot::wait`].
    fn announce(&self) {
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
    }

    /// The re-check found work: the worker is not parking after all.
    fn retract(&self) {
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// Block until a wake permit arrives or `stop()` holds. No timeout.
    fn wait(&self, stop: impl Fn() -> bool) {
        let mut permits = self.permits.lock();
        while *permits == 0 && !stop() {
            self.cv.wait(&mut permits);
        }
        if *permits > 0 {
            *permits -= 1;
        }
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

/// Take one injected root job for worker `idx` — own node's lane first,
/// then remote lanes in ascending distance order. Any lane drain (own
/// *or* remote) resets the steal fail streak: acquired work is acquired
/// work, wherever the lane sat; the drain is classified under
/// `inject_own_lane` / `inject_remote_lane` so the locality of the
/// injection path stays observable.
fn pop_inject(rt: &Arc<RtInner>, idx: usize) -> Option<(Job, usize)> {
    #[cfg(feature = "fault-injection")]
    crate::fault::on_worker_boundary(rt, idx);
    let node = rt.topo.node_of(idx);
    let (job, lane) = rt.inject.pop_for(node)?;
    let my = &rt.workers[idx];
    if lane == node {
        WorkerStats::bump(&my.stats.inject_own_lane, 1);
    } else {
        WorkerStats::bump(&my.stats.inject_remote_lane, 1);
    }
    my.reset_fail_streak();
    Some((job, lane))
}

/// Run an injected root job taken from `lane` on worker `idx`.
fn run_job(rt: &Arc<RtInner>, idx: usize, job: Job, lane: usize) {
    let my = &rt.workers[idx];
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
}

/// Take and run one injected root job; `false` when every lane is empty.
pub(crate) fn try_drain_inject(rt: &Arc<RtInner>, idx: usize) -> bool {
    match pop_inject(rt, idx) {
        Some((job, lane)) => {
            run_job(rt, idx, job, lane);
            true
        }
        None => false,
    }
}

/// Work the idle loop acquired, not yet run: the loop leaves its idle
/// state before running it, so a long body never counts as a searcher.
enum Work {
    Grab(Grab),
    Job(Job, usize),
}

impl Work {
    fn run(self, rt: &Arc<RtInner>, idx: usize) {
        match self {
            Work::Grab(grab) => run_grab(rt, idx, grab),
            Work::Job(job, lane) => run_job(rt, idx, job, lane),
        }
    }
}

/// One searching round for worker `idx`: queue layer (own lane, or the
/// shared pool under a central queue), then root jobs from outside the
/// pool (nearest lane first), then one policy-driven steal attempt.
fn acquire(rt: &Arc<RtInner>, idx: usize) -> Option<Work> {
    if let Some(item) = rt.queue.pop(idx) {
        return Some(Work::Grab(item.into_grab()));
    }
    if let Some((job, lane)) = pop_inject(rt, idx) {
        return Some(Work::Job(job, lane));
    }
    try_steal_once(rt, idx).map(Work::Grab)
}

/// The parker's re-check: like [`acquire`], but the steal part probes
/// *every* victim the policy allows under its steal lock
/// ([`steal_exact`]) rather than the policy's one pick, so `None` means
/// no source held work this worker may take at the time of the probe.
fn acquire_exact(rt: &Arc<RtInner>, idx: usize) -> Option<Work> {
    if let Some(item) = rt.queue.pop(idx) {
        return Some(Work::Grab(item.into_grab()));
    }
    if let Some((job, lane)) = pop_inject(rt, idx) {
        return Some(Work::Job(job, lane));
    }
    let p = rt.num_workers();
    (1..p)
        .map(|k| (idx + k) % p)
        .filter(|&v| rt.steal_pol.may_steal_from(idx, v, &rt.topo))
        .find_map(|v| steal_exact(rt, idx, v).map(Work::Grab))
}

/// The worker idle loop: acquire and run work; when there is none,
/// search for [`SEARCH_BUDGET`], then park (see the module docs for the
/// handshake that makes the park safe without a timeout).
pub(crate) fn worker_main(rt: Arc<RtInner>, idx: usize) {
    set_current(&rt, idx);
    let my = &rt.workers[idx];
    let lot = &rt.park_lot;
    if rt.tun.pin_workers {
        // Best-effort pinning to the topology's core (the detected or
        // declared machine shape). Failure keeps the nominal mapping; the
        // counter records how many workers actually stuck.
        if crate::pin::pin_current_thread(rt.topo.core_of(idx)) {
            WorkerStats::bump(&my.stats.workers_pinned, 1);
        }
    }
    let mut searching = false;
    // When the current idle stretch began (`None` while busy).
    let mut idle_since: Option<Instant> = None;
    let mut rounds = 0u32;
    while !rt.shutdown.load(Ordering::Acquire) {
        if let Some(work) = acquire(&rt, idx) {
            if searching {
                searching = false;
                lot.found_work();
            }
            idle_since = None;
            my.reset_fail_streak();
            work.run(&rt, idx);
            continue;
        }
        let now = Instant::now();
        let since = *idle_since.get_or_insert(now);
        if !searching {
            searching = lot.try_search();
        }
        if searching && now.duration_since(since) < SEARCH_BUDGET {
            rounds = rounds.wrapping_add(1);
            if rounds.is_multiple_of(YIELD_EVERY) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
            continue;
        }
        if searching {
            searching = false;
            lot.stop_searching();
        }
        lot.announce();
        if let Some(work) = acquire_exact(&rt, idx) {
            lot.retract();
            idle_since = None;
            my.reset_fail_streak();
            work.run(&rt, idx);
            continue;
        }
        // Park/unpark span events are emitted here — on the worker
        // thread, the ring's single producer — not inside ParkLot,
        // which has no worker identity.
        telemetry::emit_current(&rt, idx, EventKind::Park, 0, my.fail_streak());
        lot.wait(|| rt.shutdown.load(Ordering::Acquire));
        telemetry::emit_current(&rt, idx, EventKind::Unpark, 0, 0);
        // A woken worker searches with a fresh budget.
        idle_since = None;
    }
}
