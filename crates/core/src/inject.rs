//! The injection subsystem: how root jobs enter the pool from outside
//! (DESIGN.md §4).
//!
//! Historically injection was a blocking front door: one global
//! `Mutex<VecDeque<Job>>` plus a latch the calling thread parked on until
//! its scope completed. That shape is fine for fork-join benchmarks but
//! wrong for a server reactor, which cannot afford a parked OS thread per
//! in-flight request. This module replaces it with three pieces:
//!
//! * **join handles** — [`Runtime::submit`](crate::Runtime::submit)
//!   enqueues a root job and returns a [`JoinHandle`] immediately; the
//!   caller can [`wait`](JoinHandle::wait), poll
//!   ([`try_result`](JoinHandle::try_result) / [`is_done`](JoinHandle::is_done))
//!   or register an [`on_complete`](JoinHandle::on_complete) callback so an
//!   async reactor is notified without parking a thread;
//! * **sharded inject lanes** — one lane per NUMA node of the runtime's
//!   [`Topology`], chosen by submitter hash, drained by workers nearest
//!   the lane first (the locality-aware placement the topology layer
//!   enables: a root job tends to start on the node whose lane it sat in);
//! * **admission control** — an [`InjectPolicy`] caps the number of
//!   pending (admitted but not yet started) root jobs; a flooded runtime
//!   throttles submitters ([`OnFull::Block`]) or sheds load
//!   ([`OnFull::Reject`]) instead of growing unboundedly.
//!
//! [`Runtime::scope`](crate::Runtime::scope) from outside the pool first
//! tries to take a parked worker's seat and run its root on the calling
//! thread, with no job at all. Only when no worker is parked does it fall
//! back to this machinery: submit (always admitted with blocking
//! semantics — the caller is about to block anyway, which *is* the
//! backpressure) followed by an immediate wait.

use crate::attrs::{CancelToken, NORMAL_BAND, PRIORITY_BANDS};
use crate::ctx::{help_until, RawCtx};
use crate::runtime::{Job, RtInner};
use crate::stats::WorkerStats;
use crate::telemetry::EventKind;
use crate::topology::Topology;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

// ---------------------------------------------------------------------------
// Admission policy

/// What [`Runtime::submit`](crate::Runtime::submit) does when the inject
/// lanes already hold [`InjectPolicy::max_pending`] admitted jobs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OnFull {
    /// Throttle: block the submitting thread until a worker drains a job.
    #[default]
    Block,
    /// Shed: return [`SubmitError`] immediately (the closure is dropped).
    Reject,
}

/// Admission/backpressure policy of the injection subsystem.
///
/// `max_pending` bounds the number of *admitted but not yet started* root
/// jobs across all lanes; `on_full` decides whether a submitter at the
/// bound throttles or is rejected. Configured via
/// [`Builder::inject_policy`](crate::Builder::inject_policy) /
/// [`Builder::max_pending`](crate::Builder::max_pending).
///
/// Admission is **priority-ordered** (`DESIGN.md` §5): [`Priority::High`]
/// and [`Priority::Normal`] submissions admit up to the full `max_pending`,
/// while [`Priority::Low`] submissions see only half of it (at least 1) —
/// under pressure, low-priority load is shed (or throttled) while headroom
/// remains for the higher bands, so a high-priority job is never rejected
/// while low-priority ones are still being admitted.
///
/// [`Priority::High`]: crate::Priority::High
/// [`Priority::Normal`]: crate::Priority::Normal
/// [`Priority::Low`]: crate::Priority::Low
///
/// [`Runtime::scope`](crate::Runtime::scope) always uses blocking
/// admission regardless of `on_full`: a scope caller blocks until its job
/// completes anyway, so blocking a little earlier at admission is the same
/// contract (and keeps scope infallible under every policy).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InjectPolicy {
    /// Maximum admitted-but-not-started root jobs across all lanes (≥ 1).
    pub max_pending: usize,
    /// Behaviour of [`Runtime::submit`](crate::Runtime::submit) at the cap.
    pub on_full: OnFull,
}

impl Default for InjectPolicy {
    fn default() -> Self {
        InjectPolicy {
            max_pending: 4096,
            on_full: OnFull::Block,
        }
    }
}

/// Why a submitted job did not run (`DESIGN.md` §8).
///
/// [`Rejected`](SubmitError::Rejected) is returned synchronously by
/// [`Runtime::submit`](crate::Runtime::submit)-family admission;
/// [`Cancelled`](SubmitError::Cancelled) surfaces asynchronously through
/// [`JoinHandle::join`] when the job was shed after admission (its panic
/// payload is a boxed `SubmitError`). In every case the submitted closure
/// has been dropped without running; resubmit to retry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The admission layer was at [`InjectPolicy::max_pending`] under
    /// [`OnFull::Reject`].
    Rejected,
    /// The job's [`CancelToken`] was cancelled before its body started.
    Cancelled,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Rejected => write!(
                f,
                "submission rejected: inject lanes at max_pending and on_full = Reject"
            ),
            SubmitError::Cancelled => {
                write!(f, "submission cancelled before the job body started")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

// ---------------------------------------------------------------------------
// Join state & handle

/// Completion callback registered through [`JoinHandle::on_complete`].
type CompleteFn = Box<dyn FnOnce() + Send>;

/// Run one completion callback with panic containment: a callback often
/// fires on a worker thread, and an unwinding worker would silently shrink
/// the pool (job-body panics are already caught and routed to the handle —
/// callbacks get the same never-unwind-the-worker treatment). The payload
/// is surfaced in the warning, and the return value says whether the
/// callback panicked: the caller counts it in its runtime's
/// `callback_panics`, so a contained panic stays observable.
fn run_callback(cb: CompleteFn) -> bool {
    let Err(p) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(cb)) else {
        return false;
    };
    let payload = p
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| format!("non-string panic payload ({:?})", (*p).type_id()));
    eprintln!("xkaapi: on_complete callback panicked (contained): {payload}");
    true
}

struct JoinInner<R> {
    result: Option<std::thread::Result<R>>,
    callbacks: Vec<CompleteFn>,
    /// The `Future` adapter's registered waker: a single slot, replaced on
    /// re-poll (a future has one current waker; accumulating one callback
    /// per pending poll would grow unboundedly under busy executors).
    #[cfg(feature = "future")]
    waker: Option<std::task::Waker>,
}

/// Shared completion cell between a submitted job and its [`JoinHandle`].
pub(crate) struct JoinState<R> {
    mx: Mutex<JoinInner<R>>,
    cv: Condvar,
    done: AtomicBool,
}

impl<R> JoinState<R> {
    pub(crate) fn new() -> JoinState<R> {
        JoinState {
            mx: Mutex::new(JoinInner {
                result: None,
                callbacks: Vec::new(),
                #[cfg(feature = "future")]
                waker: None,
            }),
            cv: Condvar::new(),
            done: AtomicBool::new(false),
        }
    }

    #[inline]
    pub(crate) fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// Publish the result (first writer wins), wake waiters and fire the
    /// registered callbacks, counting their contained panics on `rt`.
    /// Idempotent: the abandonment guard may race a normal completion
    /// without double-firing.
    pub(crate) fn complete(&self, rt: Option<&RtInner>, result: std::thread::Result<R>) {
        #[cfg(feature = "future")]
        let waker;
        let callbacks = {
            let mut inner = self.mx.lock();
            if inner.result.is_some() {
                return;
            }
            inner.result = Some(result);
            self.done.store(true, Ordering::Release);
            // Notify while holding the lock, as the old scope latch did:
            // waiters cannot observe `done` and race ahead mid-publication.
            self.cv.notify_all();
            #[cfg(feature = "future")]
            {
                waker = inner.waker.take();
            }
            std::mem::take(&mut inner.callbacks)
        };
        // Callbacks (and the future's waker) run outside the lock: they
        // may take arbitrary user locks (wake a reactor, send on a
        // channel).
        #[cfg(feature = "future")]
        if let Some(w) = waker {
            w.wake();
        }
        for cb in callbacks {
            if run_callback(cb) {
                if let Some(rt) = rt {
                    rt.inject.callback_panics.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Block the calling (non-worker) thread until completion.
    pub(crate) fn wait_blocking(&self) {
        let mut inner = self.mx.lock();
        while inner.result.is_none() {
            self.cv.wait(&mut inner);
        }
    }

    /// Take the result out (None while running; panics are preserved).
    pub(crate) fn take_result(&self) -> Option<std::thread::Result<R>> {
        self.mx.lock().result.take()
    }

    /// One atomic poll step for the `Future` adapter: take the result if
    /// it is there, otherwise install `waker` in the single waker slot
    /// (replacing a stale one; re-polls with the same waker are free) —
    /// all under the state lock, so a completion can never slip between
    /// the check and the registration (no lost wake-up).
    ///
    /// # Panics
    /// If the job completed but the result was already consumed (a
    /// `try_result`/`wait` raced this future).
    #[cfg(feature = "future")]
    pub(crate) fn poll_take(&self, waker: &std::task::Waker) -> Option<std::thread::Result<R>> {
        let mut inner = self.mx.lock();
        if let Some(r) = inner.result.take() {
            return Some(r);
        }
        if self.done.load(Ordering::Acquire) {
            panic!("xkaapi: JoinHandle future polled after its result was already taken");
        }
        match &mut inner.waker {
            Some(w) if w.will_wake(waker) => {}
            slot => *slot = Some(waker.clone()),
        }
        None
    }
}

/// Drop guard a submitted job carries: if the runtime shuts down with the
/// job still queued (the boxed closure is dropped unexecuted), the guard
/// completes the state with a panic payload so waiters unblock instead of
/// hanging forever. The runtime is being torn down, so callback panics
/// fired here go uncounted.
pub(crate) struct AbandonGuard<R> {
    pub(crate) state: Arc<JoinState<R>>,
}

impl<R> Drop for AbandonGuard<R> {
    fn drop(&mut self) {
        if !self.state.is_done() {
            self.state.complete(
                None,
                Err(Box::new(
                    "xkaapi: runtime shut down before the submitted job ran",
                )),
            );
        }
    }
}

/// Handle to a root job enqueued with
/// [`Runtime::submit`](crate::Runtime::submit).
///
/// The handle is detachable: dropping it does **not** cancel the job (the
/// job owns its half of the shared state and runs to completion) — call
/// [`cancel`](JoinHandle::cancel) for that. A panic inside the job is
/// captured and re-raised at [`wait`](JoinHandle::wait) /
/// [`try_result`](JoinHandle::try_result) time, mirroring
/// `std::thread::JoinHandle`; [`join`](JoinHandle::join) instead maps
/// cancellation to a [`SubmitError`].
pub struct JoinHandle<R> {
    state: Arc<JoinState<R>>,
    /// Weak so a forgotten handle cannot keep the runtime alive; used to
    /// *help* (run pool work) instead of parking when `wait` is called on
    /// a worker thread of the same runtime.
    rt: Weak<RtInner>,
    /// The token governing the job's cone ([`JoinHandle::cancel`]).
    cancel: Option<CancelToken>,
}

impl<R: Send> JoinHandle<R> {
    pub(crate) fn new(
        state: Arc<JoinState<R>>,
        rt: &Arc<RtInner>,
        cancel: Option<CancelToken>,
    ) -> JoinHandle<R> {
        JoinHandle {
            state,
            rt: Arc::downgrade(rt),
            cancel,
        }
    }

    /// Cooperatively cancel the job and its whole dependency cone.
    ///
    /// Queued work is skipped (the handle completes with
    /// [`SubmitError::Cancelled`]); a body already running keeps running —
    /// poll [`Ctx::is_cancelled`](crate::Ctx::is_cancelled) inside it to
    /// bail early — but every task it spawned that has not started yet is
    /// elided while still satisfying its dataflow obligations. Idempotent;
    /// returns `true` the first time this token is cancelled.
    pub fn cancel(&self) -> bool {
        match &self.cancel {
            Some(t) => t.cancel(),
            None => false,
        }
    }

    /// A clone of the token governing this job's cone, if any (share it
    /// with other owners, or check it from outside the pool).
    pub fn cancel_token(&self) -> Option<CancelToken> {
        self.cancel.clone()
    }

    /// Like [`wait`](JoinHandle::wait), but maps a shed job to a
    /// [`SubmitError`] instead of panicking: `Err(Cancelled)` when the job
    /// was cancelled before its body started. Genuine job-body panics
    /// still re-raise.
    pub fn join(self) -> Result<R, SubmitError> {
        self.wait_done();
        match self
            .state
            .take_result()
            .expect("JoinHandle::join: result was already taken by try_result")
        {
            Ok(v) => Ok(v),
            Err(p) => match p.downcast::<SubmitError>() {
                Ok(e) => Err(*e),
                Err(p) => resume_unwind(p),
            },
        }
    }

    /// Block (or help, on a worker thread) until the job completes.
    fn wait_done(&self) {
        if self.state.is_done() {
            return;
        }
        match self.rt.upgrade() {
            Some(rt) => match crate::worker::current_worker_of(&rt) {
                Some(widx) => {
                    let st = &self.state;
                    help_until(&rt, widx, || st.is_done());
                }
                None => self.state.wait_blocking(),
            },
            None => self.state.wait_blocking(),
        }
    }

    /// Has the job finished (completed or panicked)? Non-blocking; true
    /// means [`try_result`](JoinHandle::try_result) will return the result.
    #[inline]
    pub fn is_done(&self) -> bool {
        self.state.is_done()
    }

    /// Non-blocking poll: `Some(result)` once the job finished, `None`
    /// while it is still queued or running. Re-raises the job's panic.
    ///
    /// A successful poll takes the result out of the handle: a later
    /// `try_result` returns `None` again, and a later
    /// [`wait`](JoinHandle::wait) panics (double consumption).
    pub fn try_result(&mut self) -> Option<R> {
        match self.state.take_result() {
            None => None,
            Some(Ok(v)) => Some(v),
            Some(Err(p)) => resume_unwind(p),
        }
    }

    /// Block until the job completes and return its result, re-raising the
    /// job's panic (after it has fully unwound inside the pool).
    ///
    /// Called from a worker thread of the same runtime, the "wait" is a
    /// help loop — the worker keeps executing pool work (including, very
    /// possibly, the submitted job itself) instead of parking, so waiting
    /// inside a task cannot deadlock the pool.
    ///
    /// # Panics
    ///
    /// Re-raises the job's panic, and panics (with a message saying so) if
    /// a successful [`try_result`](JoinHandle::try_result) already took the
    /// result out of this handle.
    pub fn wait(self) -> R {
        self.wait_done();
        match self
            .state
            .take_result()
            .expect("JoinHandle::wait: result was already taken by try_result")
        {
            Ok(v) => v,
            Err(p) => resume_unwind(p),
        }
    }

    /// Register a callback fired exactly once when the job completes
    /// (panic or success), from the completing worker thread — or
    /// immediately on the calling thread when the job already finished.
    /// This is the reactor hook: wake an event loop, send on a channel,
    /// notify an async waker — without any thread parked on the handle.
    ///
    /// A panicking callback is contained (caught, one-line warning), never
    /// unwound through the completing worker: a callback panic must not
    /// shrink the pool.
    pub fn on_complete(&self, cb: impl FnOnce() + Send + 'static) {
        {
            let mut inner = self.state.mx.lock();
            if inner.result.is_none() && !self.state.is_done() {
                inner.callbacks.push(Box::new(cb));
                return;
            }
        }
        // The runtime is needed only to count a panic; it may be gone.
        if run_callback(Box::new(cb)) {
            if let Some(rt) = self.rt.upgrade() {
                rt.inject.callback_panics.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

impl<R> std::fmt::Debug for JoinHandle<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JoinHandle")
            .field("done", &self.state.is_done())
            .finish()
    }
}

/// Async adapter (the ROADMAP injection follow-up), behind the `future`
/// feature gate: a [`JoinHandle`] is a `Future` resolving to the job's
/// result, wired over the same completion path as
/// [`JoinHandle::on_complete`] — no reactor or runtime of our own, any
/// executor's waker plugs straight in. The job's panic is re-raised at
/// `poll` time, mirroring [`JoinHandle::wait`].
///
/// Each pending poll installs the current waker in a single slot under
/// the state lock (replacing a stale waker, free when it
/// [`will_wake`](std::task::Waker::will_wake) the same task), so a
/// completion can never race between the readiness check and the
/// registration, and a busy executor re-polling many times cannot grow
/// state.
#[cfg(feature = "future")]
impl<R: Send> std::future::Future for JoinHandle<R> {
    type Output = R;

    fn poll(self: std::pin::Pin<&mut Self>, cx: &mut std::task::Context<'_>) -> std::task::Poll<R> {
        // `JoinHandle` is `Unpin` (an `Arc` and a `Weak`), so projecting
        // out of the pin is trivially sound.
        let this = self.get_mut();
        match this.state.poll_take(cx.waker()) {
            Some(Ok(v)) => std::task::Poll::Ready(v),
            Some(Err(p)) => resume_unwind(p),
            None => std::task::Poll::Pending,
        }
    }
}

// ---------------------------------------------------------------------------
// Sharded inject lanes

/// Per-lane counters of one inject lane, exposed through
/// [`Runtime::inject_lane_stats`](crate::Runtime::inject_lane_stats) (one
/// lane per NUMA node; `submitted`/`drained` diverge only transiently).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InjectLaneStats {
    /// Root jobs enqueued into this lane.
    pub submitted: u64,
    /// Root jobs taken out of this lane by a worker.
    pub drained: u64,
}

struct Lane {
    /// One FIFO per priority band (0 = high): workers drain lower band
    /// indices first, FIFO within a band.
    q: Mutex<[VecDeque<Job>; PRIORITY_BANDS]>,
    submitted: AtomicU64,
    drained: AtomicU64,
}

impl Lane {
    fn new() -> Lane {
        Lane {
            q: Mutex::new(std::array::from_fn(|_| VecDeque::new())),
            submitted: AtomicU64::new(0),
            drained: AtomicU64::new(0),
        }
    }
}

/// The sharded inject queue: one priority-banded lane per NUMA node,
/// submitter-hashed (or affinity-targeted) on entry, drained by workers
/// band-major (all lanes' high band before any lane's next band, own lane
/// first within a band), bounded by an [`InjectPolicy`].
pub(crate) struct InjectLanes {
    lanes: Box<[Lane]>,
    /// node → lane visit order: own lane first, then ascending SLIT
    /// distance (ties broken by lane index, deterministically).
    drain_order: Box<[Box<[usize]>]>,
    policy: InjectPolicy,
    /// Admitted-but-not-yet-drained jobs, across all lanes. Incremented at
    /// admission (before the push), decremented at drain.
    pending: AtomicUsize,
    /// Pushed-but-not-yet-drained jobs *outside* the default band, across
    /// all lanes. While zero — the steady state of attribute-free floods —
    /// drains short-circuit to a single Normal-band walk instead of the
    /// band-major probe of every `(band, lane)` FIFO. Incremented before
    /// the locked push, decremented after a non-default pop: a drain
    /// seeing a stale 0 misses the in-flight job once and finds it on the
    /// next poll (`pending` still forces a retry), the same benign race
    /// the queue layer's side-lane hints accept.
    side_pending: AtomicUsize,
    /// Drains that walked the full band-major order (see
    /// `StatsSnapshot::inject_banded_drains`).
    banded_drains: AtomicU64,
    /// Submitters currently blocked in [`OnFull::Block`] admission.
    waiters: AtomicUsize,
    room_mx: Mutex<()>,
    room_cv: Condvar,
    /// Lifetime totals (survive lane drains; reset with the stats).
    submitted: AtomicU64,
    rejected: AtomicU64,
    /// Contained `on_complete` callback panics of this runtime's handles.
    callback_panics: AtomicU64,
}

/// Admission ticket: proof that `pending` was incremented.
#[derive(Debug)]
pub(crate) struct Admission;

thread_local! {
    /// Lazily-assigned submitter identity used to hash external threads
    /// onto lanes (spreads concurrent submitters; one thread sticks to one
    /// lane, keeping its root jobs' locality stable).
    static SUBMITTER_ID: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

static NEXT_SUBMITTER: AtomicUsize = AtomicUsize::new(0);

fn submitter_id() -> usize {
    SUBMITTER_ID.with(|c| {
        let mut id = c.get();
        if id == usize::MAX {
            id = NEXT_SUBMITTER.fetch_add(1, Ordering::Relaxed);
            c.set(id);
        }
        id
    })
}

impl InjectLanes {
    pub(crate) fn new(topo: &Topology, policy: InjectPolicy) -> InjectLanes {
        let nodes = topo.nodes().max(1);
        let lanes: Box<[Lane]> = (0..nodes).map(|_| Lane::new()).collect();
        let drain_order: Box<[Box<[usize]>]> = (0..nodes)
            .map(|me| {
                let mut order: Vec<usize> = (0..nodes).collect();
                order.sort_by_key(|&n| (topo.distances().get(me, n), n));
                debug_assert_eq!(order[0], me, "own lane must sort first (SLIT local)");
                order.into_boxed_slice()
            })
            .collect();
        InjectLanes {
            lanes,
            drain_order,
            policy,
            pending: AtomicUsize::new(0),
            side_pending: AtomicUsize::new(0),
            banded_drains: AtomicU64::new(0),
            waiters: AtomicUsize::new(0),
            room_mx: Mutex::new(()),
            room_cv: Condvar::new(),
            submitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            callback_panics: AtomicU64::new(0),
        }
    }

    /// Number of lanes (one per NUMA node).
    #[inline]
    pub(crate) fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// The lane the calling thread hashes to.
    #[inline]
    pub(crate) fn lane_of_submitter(&self) -> usize {
        submitter_id() % self.lanes.len()
    }

    /// Effective admission limit of a priority band: the full cap for the
    /// high and default bands, half of it (at least 1) for the low band —
    /// the per-priority shedding order ("reject low before high").
    fn band_limit(&self, band: u8) -> usize {
        if (band as usize) < PRIORITY_BANDS - 1 {
            self.policy.max_pending
        } else {
            (self.policy.max_pending / 2).max(1)
        }
    }

    /// Try to reserve a pending slot for a `band` submission without
    /// blocking.
    pub(crate) fn try_admit(&self, band: u8) -> Option<Admission> {
        let limit = self.band_limit(band);
        let mut cur = self.pending.load(Ordering::Relaxed);
        loop {
            if cur >= limit {
                return None;
            }
            match self.pending.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(Admission),
                Err(now) => cur = now,
            }
        }
    }

    /// Admission under the configured policy: `Err(SubmitError::Rejected)`
    /// only under [`OnFull::Reject`] at the band's cap.
    pub(crate) fn admit(&self, band: u8) -> Result<Admission, SubmitError> {
        match self.policy.on_full {
            OnFull::Reject => self.try_admit(band).ok_or_else(|| {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                SubmitError::Rejected
            }),
            OnFull::Block => Ok(self.admit_blocking(band)),
        }
    }

    /// Admission that always succeeds, blocking until a slot frees (what
    /// `Runtime::scope` uses — at the default band — regardless of the
    /// policy's `on_full`).
    pub(crate) fn admit_blocking(&self, band: u8) -> Admission {
        loop {
            if let Some(a) = self.try_admit(band) {
                return a;
            }
            self.waiters.fetch_add(1, Ordering::SeqCst);
            let mut g = self.room_mx.lock();
            // Re-check under the lock: a drain between the failed CAS and
            // the lock would otherwise be a lost wake-up.
            if self.pending.load(Ordering::Relaxed) >= self.band_limit(band) {
                self.room_cv.wait(&mut g);
            }
            drop(g);
            self.waiters.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Enqueue an admitted job into `lane` at priority band `band`.
    pub(crate) fn push(&self, _admission: Admission, lane: usize, band: u8, job: Job) {
        debug_assert!(lane < self.lanes.len());
        let band = (band as usize).min(PRIORITY_BANDS - 1);
        if band != NORMAL_BAND as usize {
            // Before the locked push: a drain that observes the job must
            // also observe the non-default counter (or retry via pending).
            self.side_pending.fetch_add(1, Ordering::Relaxed);
        }
        self.lanes[lane].q.lock()[band].push_back(job);
        self.lanes[lane].submitted.fetch_add(1, Ordering::Relaxed);
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Count an inline (worker-context) submission that bypassed the lanes.
    pub(crate) fn note_inline_submit(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Drain one job for a worker on NUMA `node`, band-major: every lane's
    /// high band (own lane first, then ascending distance) before any
    /// lane's next band — priority outranks locality across lanes, and
    /// within one band the drain order is exactly the pre-band
    /// nearest-lane-first walk. Returns the job and the lane it came from
    /// (callers classify own/remote drains).
    pub(crate) fn pop_for(&self, node: usize) -> Option<(Job, usize)> {
        if self.pending.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let node = if node < self.drain_order.len() {
            node
        } else {
            0
        };
        // Fast path: no non-default job anywhere (one relaxed load), so
        // every lane's high and low FIFOs are empty — walk only the Normal
        // band, one lock per lane instead of one per `(band, lane)` pair.
        if self.side_pending.load(Ordering::Relaxed) == 0 {
            for &lane in self.drain_order[node].iter() {
                let job = self.lanes[lane].q.lock()[NORMAL_BAND as usize].pop_front();
                if let Some(job) = job {
                    return Some((job, self.note_drained(lane)));
                }
            }
            return None;
        }
        self.banded_drains.fetch_add(1, Ordering::Relaxed);
        for band in 0..PRIORITY_BANDS {
            for &lane in self.drain_order[node].iter() {
                let job = self.lanes[lane].q.lock()[band].pop_front();
                if let Some(job) = job {
                    if band != NORMAL_BAND as usize {
                        self.side_pending.fetch_sub(1, Ordering::Relaxed);
                    }
                    return Some((job, self.note_drained(lane)));
                }
            }
        }
        None
    }

    /// Shared post-drain bookkeeping; returns `lane` for tail-call reuse.
    fn note_drained(&self, lane: usize) -> usize {
        self.lanes[lane].drained.fetch_add(1, Ordering::Relaxed);
        self.pending.fetch_sub(1, Ordering::Release);
        if self.waiters.load(Ordering::SeqCst) > 0 {
            let _g = self.room_mx.lock();
            self.room_cv.notify_all();
        }
        lane
    }

    /// Cheap "any pending root jobs?" hint (park heuristic).
    #[inline]
    pub(crate) fn has_pending_hint(&self) -> bool {
        self.pending.load(Ordering::Relaxed) > 0
    }

    /// Lifetime totals: jobs admitted into lanes or run inline.
    #[inline]
    pub(crate) fn total_submitted(&self) -> u64 {
        self.submitted.load(Ordering::Relaxed)
    }

    /// Lifetime totals: submissions shed by [`OnFull::Reject`].
    #[inline]
    pub(crate) fn total_rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Lifetime totals: drains that walked the full band-major probe order
    /// (zero for Normal-only workloads).
    #[inline]
    pub(crate) fn total_banded_drains(&self) -> u64 {
        self.banded_drains.load(Ordering::Relaxed)
    }

    /// Contained `on_complete` callback panics since the last reset.
    pub(crate) fn total_callback_panics(&self) -> u64 {
        self.callback_panics.load(Ordering::Relaxed)
    }

    /// Per-lane counter snapshot.
    pub(crate) fn lane_stats(&self) -> Vec<InjectLaneStats> {
        self.lanes
            .iter()
            .map(|l| InjectLaneStats {
                submitted: l.submitted.load(Ordering::Relaxed),
                drained: l.drained.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Reset every counter (not the pending counts — those are live state).
    pub(crate) fn reset_counters(&self) {
        self.submitted.store(0, Ordering::Relaxed);
        self.rejected.store(0, Ordering::Relaxed);
        self.banded_drains.store(0, Ordering::Relaxed);
        self.callback_panics.store(0, Ordering::Relaxed);
        for l in self.lanes.iter() {
            l.submitted.store(0, Ordering::Relaxed);
            l.drained.store(0, Ordering::Relaxed);
        }
    }
}

/// Build the boxed root-job closure for a submission: runs the scope body,
/// publishes the result into `state` (the [`AbandonGuard`] turns a
/// never-ran job into a panic payload instead of a hang).
///
/// Drain-time shedding happens here (`DESIGN.md` §8): a cancelled token
/// completes the handle with a boxed [`SubmitError`] without ever running
/// the body; otherwise the token is installed on the scope context so
/// every spawn in the job inherits it.
pub(crate) fn make_job<F, R>(state: Arc<JoinState<R>>, cancel: Option<CancelToken>, f: F) -> Job
where
    F: for<'s> FnOnce(&mut crate::ctx::Ctx<'s>) -> R + Send + 'static,
    R: Send + 'static,
{
    let guard = AbandonGuard { state };
    Job::new(Box::new(move |raw: &mut RawCtx| {
        if cancel.as_ref().is_some_and(|t| t.is_cancelled()) {
            WorkerStats::bump(&raw.rt.workers[raw.widx].stats.tasks_cancelled, 1);
            // Shed instant, arg 1 = cancelled before start.
            crate::telemetry::emit_current(&raw.rt, raw.widx, EventKind::Shed, 0, 1);
            guard
                .state
                .complete(Some(&raw.rt), Err(Box::new(SubmitError::Cancelled)));
            drop(guard);
            return;
        }
        // SAFETY: `cancel` lives in this closure, which outlives the scope
        // that reads it; the token is cleared again before the closure
        // returns.
        unsafe { raw.set_cancel(cancel.as_ref()) };
        let r = raw.run_scoped_catch(f);
        // SAFETY: `None` borrows nothing; clearing the pointer before
        // `cancel` drops leaves the context holding no dangling token.
        unsafe { raw.set_cancel(None) };
        guard.state.complete(Some(&raw.rt), r);
        drop(guard); // completed: the guard's drop sees `done` and no-ops
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::NORMAL_BAND;
    use crate::topology::DistanceMatrix;

    fn job(tag: &'static str) -> Job {
        Job::new(Box::new(move |_raw| {
            let _ = tag;
        }))
    }

    #[test]
    fn drain_order_prefers_near_lanes() {
        // 3 nodes in a line: 0 -16- 1 -16- 2, 0 -22- 2.
        let d = DistanceMatrix::from_rows(&[vec![10, 16, 22], vec![16, 10, 16], vec![22, 16, 10]]);
        let topo = Topology::with_distances(vec![0, 1, 2], d);
        let lanes = InjectLanes::new(&topo, InjectPolicy::default());
        assert_eq!(lanes.lanes(), 3);
        let a = lanes.admit(NORMAL_BAND).unwrap();
        lanes.push(a, 2, NORMAL_BAND, job("far"));
        let a = lanes.admit(NORMAL_BAND).unwrap();
        lanes.push(a, 1, NORMAL_BAND, job("mid"));
        // A worker on node 0 drains lane 1 (distance 16) before lane 2 (22).
        let (_, lane) = lanes.pop_for(0).unwrap();
        assert_eq!(lane, 1);
        let (_, lane) = lanes.pop_for(0).unwrap();
        assert_eq!(lane, 2);
        assert!(lanes.pop_for(0).is_none());
    }

    #[test]
    fn own_lane_drained_first() {
        let topo = Topology::two_level(4, 2);
        let lanes = InjectLanes::new(&topo, InjectPolicy::default());
        assert_eq!(lanes.lanes(), 2);
        let a = lanes.admit(NORMAL_BAND).unwrap();
        lanes.push(a, 0, NORMAL_BAND, job("node0"));
        let a = lanes.admit(NORMAL_BAND).unwrap();
        lanes.push(a, 1, NORMAL_BAND, job("node1"));
        assert!(lanes.has_pending_hint());
        let (_, lane) = lanes.pop_for(1).unwrap();
        assert_eq!(lane, 1, "own node's lane must be drained first");
        let (_, lane) = lanes.pop_for(1).unwrap();
        assert_eq!(lane, 0);
        assert!(!lanes.has_pending_hint());
        let s = lanes.lane_stats();
        assert_eq!((s[0].submitted, s[0].drained), (1, 1));
        assert_eq!((s[1].submitted, s[1].drained), (1, 1));
        assert_eq!(lanes.total_submitted(), 2);
    }

    #[test]
    fn high_band_drains_before_low_across_lanes() {
        // Priority outranks locality: a remote lane's high-band job beats
        // the own lane's normal/low jobs.
        let topo = Topology::two_level(4, 2);
        let lanes = InjectLanes::new(&topo, InjectPolicy::default());
        let a = lanes.admit(2).unwrap();
        lanes.push(a, 0, 2, job("own-low"));
        let a = lanes.admit(NORMAL_BAND).unwrap();
        lanes.push(a, 0, NORMAL_BAND, job("own-normal"));
        let a = lanes.admit(0).unwrap();
        lanes.push(a, 1, 0, job("remote-high"));
        let (_, lane) = lanes.pop_for(0).unwrap();
        assert_eq!(lane, 1, "remote high band must beat own lower bands");
        let (_, lane) = lanes.pop_for(0).unwrap();
        assert_eq!(lane, 0);
        let (_, lane) = lanes.pop_for(0).unwrap();
        assert_eq!(lane, 0);
        assert!(lanes.pop_for(0).is_none());
    }

    #[test]
    fn reject_at_cap() {
        let topo = Topology::flat(1);
        let lanes = InjectLanes::new(
            &topo,
            InjectPolicy {
                max_pending: 2,
                on_full: OnFull::Reject,
            },
        );
        let a1 = lanes.admit(NORMAL_BAND).unwrap();
        let a2 = lanes.admit(NORMAL_BAND).unwrap();
        assert_eq!(lanes.admit(NORMAL_BAND).unwrap_err(), SubmitError::Rejected);
        assert_eq!(lanes.total_rejected(), 1);
        lanes.push(a1, 0, NORMAL_BAND, job("a"));
        lanes.push(a2, 0, NORMAL_BAND, job("b"));
        let _ = lanes.pop_for(0).unwrap();
        assert!(
            lanes.admit(NORMAL_BAND).is_ok(),
            "drain must free an admission slot"
        );
    }

    #[test]
    fn low_band_is_shed_before_high() {
        let topo = Topology::flat(1);
        let lanes = InjectLanes::new(
            &topo,
            InjectPolicy {
                max_pending: 4,
                on_full: OnFull::Reject,
            },
        );
        // Fill to the low band's limit (max_pending / 2 = 2).
        let _a1 = lanes.admit(NORMAL_BAND).unwrap();
        let _a2 = lanes.admit(NORMAL_BAND).unwrap();
        assert_eq!(
            lanes.admit(2).unwrap_err(),
            SubmitError::Rejected,
            "low band must shed at half the cap"
        );
        // High and normal still have headroom up to the full cap.
        let _a3 = lanes.admit(0).unwrap();
        let _a4 = lanes.admit(NORMAL_BAND).unwrap();
        // At the full cap everyone is rejected — never high before low.
        assert!(lanes.admit(0).is_err());
        assert!(lanes.admit(NORMAL_BAND).is_err());
        assert!(lanes.admit(2).is_err());
    }

    #[test]
    fn abandon_guard_completes_dropped_jobs() {
        let state = Arc::new(JoinState::<u32>::new());
        let j = make_job(Arc::clone(&state), None, |_ctx| 7u32);
        assert!(!state.is_done());
        drop(j); // never executed: the guard publishes an abandonment panic
        assert!(state.is_done());
        assert!(state.take_result().unwrap().is_err());
    }

    #[test]
    fn low_band_job_drains_from_its_band() {
        let topo = Topology::flat(1);
        let lanes = InjectLanes::new(&topo, InjectPolicy::default());
        let a = lanes.admit(2).unwrap();
        lanes.push(a, 0, 2, job("low"));
        let (_, lane) = lanes.pop_for(0).unwrap();
        assert_eq!(lane, 0);
        assert_eq!(lanes.total_banded_drains(), 1, "Low is off the fast path");
        assert!(lanes.pop_for(0).is_none());
        assert!(!lanes.has_pending_hint());
    }
}
