//! Task contexts: spawning, synchronisation, fork-join and data access.
//!
//! [`RawCtx`] is the lifetime-free internal context one worker uses while
//! executing one task (or a scope root). [`Ctx<'scope>`] is the public,
//! lifetime-branded wrapper handed to user closures — the invariant
//! `'scope` parameter is the rayon-style brand that makes environment
//! borrows sound: every task spawned through a `Ctx<'scope>` completes
//! before the function that introduced `'scope` returns.
//!
//! Execution follows the paper's model: spawns are non-blocking pushes into
//! the current frame; at a sync (explicit or the implicit one when a task
//! body ends) the owner claims its children in FIFO order — a valid
//! sequential order, so no dependency is ever computed on this path. When
//! the owner meets a task a thief claimed, it suspends and works as a thief
//! itself until the task completes.

use crate::access::{Access, AccessMode, HandleId};
use crate::attrs::{Affinity, CancelToken, Priority, TaskAttrs};
use crate::dataflow::SlotBinding;
use crate::frame::Frame;
use crate::handle::{PartView, Partitioned, Reduction, Ref, RefMut, Shared};
use crate::runtime::{RtInner, Runtime};
use crate::stats::WorkerStats;
use crate::steal::{run_grab, try_steal_once};
use crate::task::{Task, TaskBody, ST_DONE, ST_OWNER};
use crossbeam_utils::Backoff;
use std::marker::PhantomData;
use std::mem::ManuallyDrop;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Internal, lifetime-free execution context of one worker running one task.
pub struct RawCtx {
    /// The runtime, *borrowed*: a copy of the creator's `Arc` handle whose
    /// reference count was never taken and is never released (see
    /// [`RawCtx::with_detached`]). A count taken per context would be
    /// atomic read-modify-writes on the one refcount line all workers
    /// share, paid on every `Ctx::join` (`DESIGN.md` §6, "What a join may
    /// touch").
    pub(crate) rt: ManuallyDrop<Arc<RtInner>>,
    pub(crate) widx: usize,
    /// Child frame, created lazily on the first spawn.
    frame: Option<Arc<Frame>>,
    /// The task being executed (its declared accesses), `None` at a root.
    cur: Option<Arc<Task>>,
    /// Cancellation token governing this execution, inherited by every
    /// child spawn so cancelling a root cancels its whole cone.
    pub(crate) cancel: Option<CancelToken>,
    /// Running on a track thread (offload/io engine, `DESIGN.md` §10)
    /// rather than a pool worker. A detached context must never borrow a
    /// worker's thief identity: its syncs spin-wait instead of stealing
    /// and its fork-joins and loops run sequentially inline — children it
    /// spawns are still stealable by real workers through the frame.
    pub(crate) detached: bool,
}

impl RawCtx {
    /// A context on worker `widx` of `rt`; detached when built on a track
    /// thread.
    pub(crate) fn new(rt: &Arc<RtInner>, widx: usize) -> RawCtx {
        RawCtx::with_detached(rt, widx, crate::telemetry::on_track_thread())
    }

    /// [`RawCtx::new`] for a caller that knows whether it runs detached.
    pub(crate) fn with_detached(rt: &Arc<RtInner>, widx: usize, detached: bool) -> RawCtx {
        // SAFETY: the bitwise copy is a second handle on `rt`'s allocation
        // that takes no reference count, and `ManuallyDrop` guarantees it
        // never releases one. It stays valid while some owning `Arc`
        // outlives this context, which holds for every creator: a
        // `RawCtx` is only ever built on the stack of a call that borrows
        // `rt` and handed down as `&mut`, never stored or sent, and the
        // thread building it holds an owning `Arc<RtInner>` for the whole
        // call — the worker thread (`worker_main`), the track thread
        // (`offload_main` / `io_main`), or the `Runtime` handle behind
        // `scope` / `submit`. Nested contexts borrow from their parent's
        // copy, which is valid for the same reason.
        let rt = ManuallyDrop::new(unsafe { std::ptr::read(rt) });
        RawCtx {
            rt,
            widx,
            frame: None,
            cur: None,
            cancel: None,
            detached,
        }
    }

    fn ensure_frame(&mut self) -> Arc<Frame> {
        if self.frame.is_none() {
            let worker = &self.rt.workers[self.widx];
            let f = worker.pop_pooled_frame().unwrap_or_else(Frame::new);
            worker.register_frame(Arc::clone(&f));
            self.frame = Some(f);
        }
        Arc::clone(self.frame.as_ref().unwrap())
    }

    /// Non-blocking task creation: push into the current frame. Returns the
    /// frame, the task's index and the task itself (for fast-path joins).
    ///
    /// Monomorphized on the attributes (`DESIGN.md` §6): the all-default
    /// spawn — `Ctx::spawn` and builders that set nothing, outside any
    /// cancellable cone — inlines straight into the common lowering, while
    /// attribute-carrying (or token-inheriting) spawns divert through a
    /// `#[cold]` shim that also counts them. The branch compiles to a few
    /// flag comparisons; neither `catch_unwind` nor cancellation checks
    /// touch this lane.
    #[inline]
    pub(crate) fn spawn_raw(
        &mut self,
        accesses: Box<[Access]>,
        attrs: TaskAttrs,
        body: TaskBody,
    ) -> (Arc<Frame>, usize, Arc<Task>) {
        if attrs.is_default() && self.cancel.is_none() {
            self.spawn_common(Arc::new(Task::new(body, accesses, TaskAttrs::default())))
        } else {
            self.spawn_attributed(accesses, attrs, body)
        }
    }

    /// The attribute-carrying slow path: kept out of the hot instruction
    /// stream so the default spawn's code stays compact. Spawns inside a
    /// cancellable cone inherit the governing token here (`DESIGN.md` §8).
    #[cold]
    fn spawn_attributed(
        &mut self,
        accesses: Box<[Access]>,
        mut attrs: TaskAttrs,
        body: TaskBody,
    ) -> (Arc<Frame>, usize, Arc<Task>) {
        if attrs.cancel.is_none() {
            attrs.cancel = self.cancel.clone();
        }
        WorkerStats::bump(&self.rt.workers[self.widx].stats.tasks_with_attrs, 1);
        self.spawn_common(Arc::new(Task::new(body, accesses, attrs)))
    }

    /// Replay lowering (`record.rs`): push a pre-analyzed task — no
    /// declared accesses, so `Frame::push` runs no dependency analysis —
    /// whose ordering is enforced by the recorded DAG's continuation
    /// spawning. Data-access checking is disabled for the task (its member
    /// bodies' accesses were validated at record time).
    pub(crate) fn spawn_replay(&mut self, attrs: TaskAttrs, body: TaskBody) {
        if !attrs.is_default() {
            WorkerStats::bump(&self.rt.workers[self.widx].stats.tasks_with_attrs, 1);
        }
        self.spawn_common(Arc::new(Task::new_unchecked(body, attrs)));
    }

    /// Shared spawn lowering (all paths land here; semantics are
    /// attribute-independent by construction).
    #[inline]
    fn spawn_common(&mut self, task: Arc<Task>) -> (Arc<Frame>, usize, Arc<Task>) {
        let frame = self.ensure_frame();
        let out = frame.push(Arc::clone(&task), &self.rt.tun.rename);
        let idx = out.idx;
        let stats = &self.rt.workers[self.widx].stats;
        WorkerStats::bump(&stats.tasks_spawned, 1);
        if !task.accesses.is_empty() {
            // Pushes that ran data-flow dependency analysis: the counter
            // recorded-replay benchmarks assert stays flat across replays.
            WorkerStats::bump(&stats.dataflow_pushes, 1);
        }
        if out.renames > 0 {
            WorkerStats::bump(&stats.renames, out.renames as u64);
        }
        if self.rt.queue.centralized() {
            // Insertion-time scheduling: ready tasks go straight to the
            // shared queue (QUARK/libGOMP model), even with one worker.
            crate::steal::publish_ready(&self.rt, self.widx, &frame);
        }
        if self.rt.num_workers() > 1 {
            self.rt.signal_work();
        }
        (frame, idx, task)
    }

    /// Owner-side synchronisation: execute children FIFO; suspend (and work
    /// as a thief) on stolen ones; return when every child completed.
    /// Rethrows the first child panic.
    pub(crate) fn sync(&mut self) {
        let Some(frame) = self.frame.as_ref().map(Arc::clone) else {
            return;
        };
        let rt: &Arc<RtInner> = &self.rt;
        let widx = self.widx;
        // Task lookups are batched: once sync starts the owner pushes no
        // more children into this frame (task bodies run on fresh frames),
        // so one lock acquisition fetches every remaining task instead of
        // paying one frame lock per FIFO step.
        let mut batch: Vec<Arc<Task>> = Vec::new();
        let mut batch_start = 0usize;
        loop {
            // Fast exit: every pushed task already completed (by the owner
            // fast path or by thieves) — jump the FIFO cursor to the end.
            if frame.pending() == 0 {
                frame.skip_cursor_to_len();
                break;
            }
            let i = frame.cursor();
            if i < frame.len() {
                if i.wrapping_sub(batch_start) >= batch.len() {
                    batch.clear();
                    batch_start = i;
                    frame.tasks_from(i, &mut batch);
                    if batch.is_empty() {
                        continue; // len mirror raced ahead of the tasks Vec
                    }
                }
                let t = Arc::clone(&batch[i - batch_start]);
                if t.try_claim(ST_OWNER) {
                    frame.advance_cursor();
                    WorkerStats::bump(&rt.workers[widx].stats.tasks_executed_own, 1);
                    execute_claimed(rt, widx, &frame, i, Arc::clone(&t));
                    // Track-routed tasks (`DESIGN.md` §10) come back from
                    // execute_claimed dispatched but not done — their body
                    // runs when the engine's completion drains. The owner
                    // FIFO walk runs later children inline *without* a
                    // readiness proof (sequential order is the proof), so
                    // it must not pass an in-flight child: wait exactly
                    // like the stolen case, helping in the meantime (the
                    // help loop drains the inject lanes the completion
                    // arrives on).
                    if !t.is_done() {
                        if self.detached {
                            wait_detached(|| t.is_done());
                        } else {
                            help_until(rt, widx, Some(&frame), || t.is_done());
                        }
                    }
                } else if t.state() == ST_DONE {
                    frame.advance_cursor();
                } else {
                    // Stolen and in flight: suspend, help elsewhere.
                    if self.detached {
                        wait_detached(|| t.is_done());
                    } else {
                        help_until(rt, widx, Some(&frame), || t.is_done());
                    }
                    frame.advance_cursor();
                }
            } else if frame.pending() == 0 {
                break;
            } else if self.detached {
                // All claimed, some still running on thieves.
                wait_detached(|| frame.pending() == 0);
            } else {
                // All claimed, some still running on thieves.
                help_until(rt, widx, Some(&frame), || frame.pending() == 0);
            }
        }
        if let Some(p) = frame.take_panic() {
            resume_unwind(p);
        }
    }

    /// Sync children and deregister the frame (end of task body / scope).
    pub(crate) fn finish(&mut self) {
        if self.frame.is_some() {
            let res = catch_unwind(AssertUnwindSafe(|| self.sync()));
            let frame = self.frame.take().unwrap();
            let worker = &self.rt.workers[self.widx];
            worker.deregister_frame(&frame);
            if res.is_ok() {
                worker.recycle_frame(frame);
            }
            if let Err(p) = res {
                resume_unwind(p);
            }
        }
    }

    /// Run a scope closure: wrap into a public `Ctx`, always sync children
    /// (even when the closure panics) and propagate the first failure.
    pub(crate) fn run_scoped<'scope, F, R>(&mut self, f: F) -> R
    where
        F: FnOnce(&mut Ctx<'scope>) -> R,
    {
        match self.run_scoped_catch(f) {
            Ok(v) => v,
            Err(p) => resume_unwind(p),
        }
    }

    pub(crate) fn run_scoped_catch<'scope, F, R>(&mut self, f: F) -> std::thread::Result<R>
    where
        F: FnOnce(&mut Ctx<'scope>) -> R,
    {
        let body = catch_unwind(AssertUnwindSafe(|| {
            let mut ctx = Ctx {
                raw: self,
                _inv: PhantomData,
            };
            f(&mut ctx)
        }));
        let fin = catch_unwind(AssertUnwindSafe(|| self.finish()));
        match (body, fin) {
            (Ok(v), Ok(())) => Ok(v),
            (Err(p), _) => Err(p),
            (_, Err(p)) => Err(p),
        }
    }
}

/// Execute a task already claimed by this worker at `frame[idx]`.
///
/// Failure model (`DESIGN.md` §8): a panicking body never unwinds past this
/// function — the worker survives, the frame records the failure *before*
/// the completion stores (so an owner that observes `pending == 0` always
/// finds the payload), and successors in the dataflow cone are
/// completed-as-failed instead of run. Cancelled tasks skip their body but
/// satisfy every dataflow obligation.
pub(crate) fn execute_claimed(
    rt: &Arc<RtInner>,
    widx: usize,
    frame: &Arc<Frame>,
    idx: usize,
    task: Arc<Task>,
) {
    let stats = &rt.workers[widx].stats;
    // Poisoned cone: a dataflow predecessor panicked. Complete-as-failed
    // without running the body so npred countdowns still drain.
    if frame.has_failed_pred(idx) {
        let _ = task.take_body();
        frame.mark_failed(idx);
        WorkerStats::bump(&stats.tasks_poisoned, 1);
        complete_and_publish(rt, widx, frame, idx, &task);
        return;
    }
    // Cancelled cone: elide the body, keep the dataflow honest.
    if task.attrs.is_cancelled() {
        let _ = task.take_body();
        WorkerStats::bump(&stats.tasks_cancelled, 1);
        crate::telemetry::emit_current(
            rt,
            widx,
            crate::telemetry::EventKind::Cancel,
            task.attrs.band(),
            idx as u32,
        );
        complete_and_publish(rt, widx, frame, idx, &task);
        return;
    }
    // Track routing (`DESIGN.md` §10): non-CPU tasks hand off to their
    // engine here instead of running inline. The engine owns the claimed
    // task from this point — its body runs later (offload: inside the
    // drained completion job; io: on a dedicated blocking thread).
    if crate::track::dispatch(rt, widx, frame, idx, &task) {
        return;
    }
    run_claimed_body(rt, widx, frame, idx, task);
}

/// Run the body of an already-claimed task and publish its completion —
/// the tail of [`execute_claimed`] after the skip/dispatch decisions. Also
/// the entry point track engines use to execute a task they deferred: the
/// offload completion job calls it on the draining CPU worker, the io
/// engine on its own thread (where `RawCtx::new` picks up detached mode
/// and `tele_for` routes the span to the track's telemetry lane).
///
/// Never unwinds: both the body and the implicit child sync are caught,
/// recorded (poison-before-complete, `DESIGN.md` §8) and swallowed — a
/// requirement of the inject drain loop, which runs jobs bare.
pub(crate) fn run_claimed_body(
    rt: &Arc<RtInner>,
    widx: usize,
    frame: &Arc<Frame>,
    idx: usize,
    task: Arc<Task>,
) {
    let stats = &rt.workers[widx].stats;
    // Re-check cancellation: the token may have been cancelled while the
    // task sat in a track engine's queue (a no-op on the inline CPU path,
    // where `execute_claimed` checked moments ago).
    if task.attrs.is_cancelled() {
        let _ = task.take_body();
        WorkerStats::bump(&stats.tasks_cancelled, 1);
        crate::telemetry::emit_current(
            rt,
            widx,
            crate::telemetry::EventKind::Cancel,
            task.attrs.band(),
            idx as u32,
        );
        complete_and_publish(rt, widx, frame, idx, &task);
        return;
    }
    let body = task.take_body();
    let mut raw = RawCtx::new(rt, widx);
    raw.cancel = task.attrs.cancel.clone();
    raw.cur = Some(Arc::clone(&task));
    // Traced task span (`DESIGN.md` §9): B/E pair around the body plus
    // the start→done delta into the band's service histogram. One relaxed
    // load when tracing is off; the inline fork-join fast lane
    // (`Ctx::join`) is deliberately not per-event instrumented. `tele_for`
    // resolves to the executing thread's own lane (SPSC ring safety when a
    // track thread runs the body).
    let tracing = rt.telemetry.enabled();
    let band = task
        .attrs
        .band()
        .min(crate::attrs::PRIORITY_BANDS as u8 - 1);
    let t0 = if tracing {
        let t0 = crate::telemetry::tick();
        crate::telemetry::tele_for(rt, widx).emit(
            t0,
            crate::telemetry::EventKind::TaskBegin,
            band,
            idx as u32,
        );
        t0
    } else {
        0
    };
    let res = catch_unwind(AssertUnwindSafe(|| {
        #[cfg(feature = "fault-injection")]
        crate::fault::on_task_execute(rt);
        body(&mut raw)
    }));
    let fin = catch_unwind(AssertUnwindSafe(|| raw.finish()));
    if tracing {
        let t1 = crate::telemetry::tick();
        let tele = crate::telemetry::tele_for(rt, widx);
        tele.emit(t1, crate::telemetry::EventKind::TaskEnd, band, idx as u32);
        tele.start_to_done[band as usize].record(t1.saturating_sub(t0));
        if res.is_err() {
            tele.emit(t1, crate::telemetry::EventKind::Panic, band, idx as u32);
        }
    }
    if res.is_err() {
        // Only a body panic counts: a finish-side error is a child's panic
        // propagating, and the child already counted itself.
        WorkerStats::bump(&stats.tasks_panicked, 1);
    }
    // Record the failure *before* `complete()` publishes ST_DONE: an owner
    // may observe `pending == 0` immediately after and must find both the
    // payload and the poison record already in place.
    match (res, fin) {
        (Err(p), _) | (_, Err(p)) => {
            frame.mark_failed(idx);
            frame.set_panic(p);
        }
        _ => {}
    }
    complete_and_publish(rt, widx, frame, idx, &task);
}

/// Spin-wait for a detached (track-thread) context: no stealing, no inject
/// drains — track threads own no thief identity (`Worker::req`) and must
/// not impersonate one. Progress comes from the CPU pool, which can steal
/// from the detached frame like from any registered frame.
fn wait_detached(done: impl Fn() -> bool) {
    let backoff = Backoff::new();
    while !done() {
        if backoff.is_completed() {
            std::thread::yield_now();
        } else {
            backoff.snooze();
        }
    }
}

/// Completion tail shared by the run/skip paths of `execute_claimed`.
pub(crate) fn complete_and_publish(
    rt: &Arc<RtInner>,
    widx: usize,
    frame: &Arc<Frame>,
    idx: usize,
    task: &Task,
) {
    task.complete();
    frame.complete_task(idx, task);
    if rt.queue.centralized() {
        // Completion may have released successors: publish them centrally.
        crate::steal::publish_ready(rt, widx, frame);
    }
}

/// Execute a task at `frame[idx]` (steal path: already claimed `ST_STOLEN`).
pub(crate) fn execute_task_at(
    rt: &Arc<RtInner>,
    widx: usize,
    frame: &Arc<Frame>,
    idx: usize,
    task: Arc<Task>,
    stolen: bool,
) {
    if stolen {
        WorkerStats::bump(&rt.workers[widx].stats.tasks_executed_stolen, 1);
    }
    execute_claimed(rt, widx, frame, idx, task);
}

/// Suspended-owner help loop: until `done()` holds, prefer ready tasks from
/// `own` (graph-mode pop), then steal from random victims, then back off.
pub(crate) fn help_until(
    rt: &Arc<RtInner>,
    widx: usize,
    own: Option<&Arc<Frame>>,
    done: impl Fn() -> bool,
) {
    let backoff = Backoff::new();
    while !done() {
        if let Some(frame) = own {
            if let Some((idx, t)) = frame.pop_ready_owner() {
                execute_task_at(rt, widx, frame, idx, t, true);
                rt.workers[widx].reset_fail_streak();
                backoff.reset();
                continue;
            }
        }
        // Centralized queue: the shared pool is where every published task
        // lives (and the only progress source at 1 worker). Distributed
        // lanes must NOT be popped here — a suspended join's help loop
        // consuming its own lane would break the LIFO discipline
        // `TaskQueue::take` relies on; thieves reach lanes via the steal
        // protocol below instead.
        if rt.queue.centralized() {
            if let Some(item) = rt.queue.pop(widx) {
                run_grab(rt, widx, item.into_grab());
                rt.workers[widx].reset_fail_streak();
                backoff.reset();
                continue;
            }
        }
        if let Some(grab) = try_steal_once(rt, widx) {
            run_grab(rt, widx, grab);
            backoff.reset();
            continue;
        }
        // Injection layer: a suspended worker can start a fresh root job
        // (nearest lane first; the drain helper resets the fail streak and
        // classifies own-/remote-lane acquisition).
        if crate::worker::try_drain_inject(rt, widx) {
            backoff.reset();
            continue;
        }
        backoff.snooze();
    }
}

/// The public task context: spawn data-flow tasks, synchronise, run
/// fork-join pairs and adaptive parallel loops, access shared data.
///
/// The invariant `'scope` lifetime brands every closure spawned through
/// this context: all of them complete before the scope that introduced
/// `'scope` returns, so they may borrow anything that outlives the scope.
pub struct Ctx<'scope> {
    raw: *mut RawCtx,
    _inv: PhantomData<fn(&'scope ()) -> &'scope ()>,
}

impl<'scope> Ctx<'scope> {
    #[inline]
    fn raw(&self) -> &RawCtx {
        // Safety: `Ctx` only exists while the `RawCtx` it was created from
        // is alive and uniquely borrowed by this chain of calls.
        unsafe { &*self.raw }
    }

    #[inline]
    fn raw_mut(&mut self) -> &mut RawCtx {
        unsafe { &mut *self.raw }
    }

    /// Internal accessor for sibling modules (`foreach`).
    #[inline]
    pub(crate) fn as_raw(&self) -> &RawCtx {
        self.raw()
    }

    /// Index of the worker executing this task.
    #[inline]
    pub fn worker_index(&self) -> usize {
        self.raw().widx
    }

    /// Number of workers in the runtime.
    #[inline]
    pub fn num_workers(&self) -> usize {
        self.raw().rt.num_workers()
    }

    /// Cooperative cancellation check: has the [`CancelToken`] governing
    /// this task's cone been cancelled? Always `false` outside a
    /// cancellable cone. Long-running bodies poll this to bail out early;
    /// tasks not yet started are skipped by the scheduler itself.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        match &self.raw().cancel {
            None => false,
            Some(t) => t.is_cancelled(),
        }
    }

    /// The token governing this task's cone, if any (clone it to hand
    /// cancellation authority elsewhere).
    pub fn cancel_token(&self) -> Option<CancelToken> {
        self.raw().cancel.clone()
    }

    /// Create a task. Non-blocking: the caller continues immediately; the
    /// runtime honours the sequential semantics through the declared
    /// `accesses` (conflicting tasks execute in program order).
    ///
    /// This is [`Ctx::task`] with default attributes — use the builder to
    /// attach a [`Priority`] or an [`Affinity`] to the spawn.
    pub fn spawn<F>(&mut self, accesses: impl IntoIterator<Item = Access>, f: F)
    where
        F: FnOnce(&mut Ctx<'scope>) + Send + 'scope,
    {
        self.spawn_with(accesses.into_iter().collect(), TaskAttrs::default(), f);
    }

    /// Start building an attribute-carrying task:
    /// `ctx.task().reads(&a).writes(&b).priority(Priority::High).spawn(f)`.
    /// The builder accumulates access declarations and a [`TaskAttrs`]
    /// descriptor, then lowers through exactly the same spawn path as
    /// [`Ctx::spawn`] (which is this builder with default attributes).
    pub fn task<'b>(&'b mut self) -> TaskBuilder<'b, 'scope> {
        TaskBuilder {
            ctx: self,
            accesses: Vec::new(),
            attrs: TaskAttrs::default(),
        }
    }

    /// Attribute-aware spawn shared by [`Ctx::spawn`] and [`TaskBuilder`].
    fn spawn_with<F>(&mut self, accesses: Box<[Access]>, attrs: TaskAttrs, f: F)
    where
        F: FnOnce(&mut Ctx<'scope>) + Send + 'scope,
    {
        let body: Box<dyn FnOnce(&mut RawCtx) + Send + 'scope> = Box::new(move |raw| {
            let mut ctx = Ctx {
                raw,
                _inv: PhantomData,
            };
            f(&mut ctx)
        });
        // Safety: 'scope outlives the moment the scope's sync completes, and
        // every spawned task completes before that sync returns.
        let body: TaskBody = unsafe { std::mem::transmute(body) };
        self.raw_mut().spawn_raw(accesses, attrs, body);
    }

    /// Spawn a pre-analyzed replay group (`record.rs`): no declared
    /// accesses, no dependency analysis — ordering is the recorded DAG's
    /// continuation spawning, and data-access checking is disabled for the
    /// group body (validated at record time).
    pub(crate) fn spawn_replay_body<F>(&mut self, attrs: TaskAttrs, f: F)
    where
        F: FnOnce(&mut Ctx<'scope>) + Send + 'scope,
    {
        let body: Box<dyn FnOnce(&mut RawCtx) + Send + 'scope> = Box::new(move |raw| {
            let mut ctx = Ctx {
                raw,
                _inv: PhantomData,
            };
            f(&mut ctx)
        });
        // Safety: same as `spawn_with` — the scope's sync outlives 'scope.
        let body: TaskBody = unsafe { std::mem::transmute(body) };
        self.raw_mut().spawn_replay(attrs, body);
    }

    /// Wait until every task spawned so far in this context completed
    /// (the `#pragma kaapi sync` of the paper). Rethrows child panics.
    pub fn sync(&mut self) {
        self.raw_mut().sync();
    }

    /// Cilk-style fork-join: `fb` becomes a stealable task, `fa` runs
    /// inline, then the pair synchronises.
    ///
    /// This is the fast lane of the runtime (paper §II-C: independent
    /// tasks execute with Cilk-like overheads): the job record lives on
    /// this stack frame — no allocation — in the worker's T.H.E. deque,
    /// and thieves receive it through the same aggregated steal protocol
    /// as data-flow tasks.
    pub fn join<RA, RB, FA, FB>(&mut self, fa: FA, fb: FB) -> (RA, RB)
    where
        FA: FnOnce(&mut Ctx<'scope>) -> RA,
        FB: FnOnce(&mut Ctx<'scope>) -> RB + Send,
        RB: Send,
    {
        self.join_with(TaskAttrs::default(), fa, fb)
    }

    /// Attribute-aware fork-join shared by [`Ctx::join`] and
    /// [`TaskBuilder::join`]: the forked branch's stack job is pushed at
    /// the attributes' priority band (thieves and the owner's idle pops
    /// drain higher bands first; the default band is the historical
    /// T.H.E. lane).
    fn join_with<RA, RB, FA, FB>(&mut self, attrs: TaskAttrs, fa: FA, fb: FB) -> (RA, RB)
    where
        FA: FnOnce(&mut Ctx<'scope>) -> RA,
        FB: FnOnce(&mut Ctx<'scope>) -> RB + Send,
        RB: Send,
    {
        if self.raw().detached {
            // Detached contexts (track threads, `DESIGN.md` §10) own no
            // T.H.E. deque — worker `widx`'s lane is single-producer and
            // the real owner may be pushing concurrently — so the pair
            // runs sequentially inline, `fb` in a fresh scope like the
            // stolen path would give it.
            if !attrs.is_default() {
                let raw = self.raw();
                WorkerStats::bump(&raw.rt.workers[raw.widx].stats.tasks_with_attrs, 1);
            }
            let ra = catch_unwind(AssertUnwindSafe(|| fa(self)));
            let rb = catch_unwind(AssertUnwindSafe(|| {
                let raw = self.raw();
                let mut sub = RawCtx::with_detached(&raw.rt, raw.widx, true);
                sub.run_scoped(fb)
            }));
            match (ra, rb) {
                (Ok(a), Ok(b)) => return (a, b),
                (Err(p), _) | (_, Err(p)) => resume_unwind(p),
            }
        }
        use crate::fastlane::FastJob;
        const J_PENDING: u8 = 0;
        const J_DONE: u8 = 1;
        const J_PANIC: u8 = 2;
        struct StackJob<F, R> {
            state: std::sync::atomic::AtomicU8,
            f: std::cell::UnsafeCell<Option<F>>,
            result: std::cell::UnsafeCell<Option<R>>,
            panic: std::cell::UnsafeCell<Option<Box<dyn std::any::Any + Send>>>,
        }
        unsafe fn exec_job<F, R>(data: *mut (), rt: &Arc<RtInner>, widx: usize)
        where
            F: FnOnce(&mut RawCtx) -> R + Send,
            R: Send,
        {
            let job = unsafe { &*(data as *const StackJob<F, R>) };
            let f = unsafe { (*job.f.get()).take().expect("fast job run twice") };
            // Only pool workers push or steal fast jobs, so no thread-local
            // lookup: a detached context runs its joins (above) and loops
            // (`foreach_run`) inline, and its syncs never steal.
            let mut raw = RawCtx::with_detached(rt, widx, false);
            let run = catch_unwind(AssertUnwindSafe(|| {
                debug_assert!(
                    !crate::telemetry::on_track_thread(),
                    "a track thread ran a fork-join job"
                );
                #[cfg(feature = "fault-injection")]
                crate::fault::on_task_execute(rt);
                f(&mut raw)
            }));
            let fin = catch_unwind(AssertUnwindSafe(|| raw.finish()));
            // Publishing the terminal state is the LAST access to the record.
            match (run, fin) {
                (Ok(v), Ok(())) => {
                    unsafe { *job.result.get() = Some(v) };
                    job.state
                        .store(J_DONE, std::sync::atomic::Ordering::Release);
                }
                (Err(p), _) | (_, Err(p)) => {
                    unsafe { *job.panic.get() = Some(p) };
                    job.state
                        .store(J_PANIC, std::sync::atomic::Ordering::Release);
                }
            }
        }

        // Wrap `fb` into a lifetime-free signature ('scope is in scope here;
        // the record never outlives this call, see the safety note above).
        let fb_raw = move |raw: &mut RawCtx| -> RB {
            let mut ctx = Ctx {
                raw,
                _inv: PhantomData,
            };
            fb(&mut ctx)
        };
        let job = StackJob {
            state: std::sync::atomic::AtomicU8::new(J_PENDING),
            f: std::cell::UnsafeCell::new(Some(fb_raw)),
            result: std::cell::UnsafeCell::new(None),
            panic: std::cell::UnsafeCell::new(None),
        };
        fn jref_of<F, R>(job: &StackJob<F, R>) -> FastJob
        where
            F: FnOnce(&mut RawCtx) -> R + Send,
            R: Send,
        {
            FastJob {
                data: job as *const StackJob<F, R> as *mut (),
                exec: exec_job::<F, R>,
            }
        }
        let jref = jref_of(&job);
        let widx = self.raw().widx;
        let pushed = {
            let rt = &self.raw().rt;
            let stats = &rt.workers[widx].stats;
            if !attrs.is_default() {
                WorkerStats::bump(&stats.tasks_with_attrs, 1);
            }
            let pushed = rt.push_join(widx, jref, attrs.band());
            if pushed {
                WorkerStats::bump_owned(&stats.tasks_spawned, 1);
                if rt.num_workers() > 1 {
                    rt.signal_work();
                }
            }
            pushed
        };
        // Continuation; even if it panics the job must retire first (it
        // points into this stack frame).
        let ra = catch_unwind(AssertUnwindSafe(|| fa(self)));
        let rt: &Arc<RtInner> = &self.raw().rt;
        if pushed {
            if let Some(mine) = rt.take_join(widx, jref.data) {
                WorkerStats::bump_owned(&rt.workers[widx].stats.tasks_executed_own, 1);
                // SAFETY: `take_join` returned our own job, so no thief ran
                // it, and `job` lives on this frame until we return.
                unsafe { mine.execute(rt, widx) };
            } else {
                // Taken by another worker (or consumed while helping): work
                // as a thief until it completes.
                help_until(rt, widx, None, || {
                    job.state.load(std::sync::atomic::Ordering::Acquire) != J_PENDING
                });
            }
        } else {
            // Queue refused the job (lane full): undeferred execution.
            // SAFETY: never queued, so never run; `job` is still alive.
            unsafe { jref.execute(rt, widx) };
        }
        let ra = match ra {
            Ok(v) => v,
            Err(p) => resume_unwind(p),
        };
        match job.state.load(std::sync::atomic::Ordering::Acquire) {
            J_DONE => {
                let rb = unsafe { (*job.result.get()).take() };
                (
                    ra,
                    rb.expect("join: forked branch did not produce a result"),
                )
            }
            J_PANIC => {
                let p = unsafe { (*job.panic.get()).take().unwrap() };
                resume_unwind(p)
            }
            _ => unreachable!("join finished with a pending job"),
        }
    }

    /// Run a nested scope: a fresh frame whose tasks may borrow locals of
    /// the caller (they complete before `scope` returns).
    pub fn scope<'nested, F, R>(&mut self, f: F) -> R
    where
        F: FnOnce(&mut Ctx<'nested>) -> R + Send,
        R: Send,
    {
        let raw = self.raw();
        let mut sub = RawCtx::with_detached(&raw.rt, raw.widx, raw.detached);
        sub.run_scoped(f)
    }

    // -- data access ---------------------------------------------------

    #[cfg(debug_assertions)]
    fn check_granted(&self, id: crate::access::HandleId, write: bool) {
        let Some(cur) = self.raw().cur.as_ref() else {
            panic!(
                "xkaapi: data access outside a task with declared accesses; \
                 spawn a task declaring the access, or use Shared::get after the scope"
            );
        };
        if cur.unchecked_data {
            // Recorded-DAG replay group: member accesses were validated at
            // record time; the group task itself declares none.
            return;
        }
        let ok = cur
            .accesses
            .iter()
            .any(|a| a.handle == id && (!write || a.mode.writes()));
        assert!(
            ok,
            "xkaapi: access to {id:?} (write={write}) was not declared by this task"
        );
    }

    #[cfg(not(debug_assertions))]
    fn check_granted(&self, _id: crate::access::HandleId, _write: bool) {}

    /// Version-slot binding of this task's declared access on handle `id`
    /// (`write` selects a writing access; reads fall back to any access on
    /// the handle — a granted write implies read permission).
    ///
    /// `None` when there is no current bound task (scope root, fork-join
    /// fast lane) — callers then route to the handle's committed slot.
    fn slot_binding(&self, id: HandleId, write: bool) -> Option<SlotBinding> {
        let cur = self.raw().cur.as_ref()?;
        let pos = if write {
            cur.accesses
                .iter()
                .position(|a| a.handle == id && a.mode.writes())
        } else {
            cur.accesses
                .iter()
                .position(|a| a.handle == id && a.mode == AccessMode::Read)
                .or_else(|| cur.accesses.iter().position(|a| a.handle == id))
        }?;
        let binding = cur.binding();
        if binding.is_empty() {
            // All-default sentinel (`Task::set_binding`): every declared
            // access routes to slot 0 with no rename — which is exactly
            // the default binding. `cur` is only ever a frame-pushed task
            // (`execute_claimed` is the sole assignment), so an empty
            // binding here cannot mean "never bound".
            return Some(SlotBinding::default());
        }
        if binding.len() != cur.accesses.len() {
            return None; // defensive: task was never bound through a frame
        }
        Some(binding[pos])
    }

    /// Borrow a handle this task declared read access on.
    pub fn read<'a, T>(&self, h: &'a Shared<T>) -> Ref<'a, T> {
        self.check_granted(h.id(), false);
        if !h.is_renameable() {
            return h.borrow();
        }
        let slot = self
            .slot_binding(h.id(), false)
            .map(|b| b.slot)
            .unwrap_or_else(|| h.committed_slot());
        h.borrow_slot(slot)
    }

    /// Borrow a handle this task declared write/exclusive access on.
    ///
    /// A renamed write-only access is routed to its fresh version slot;
    /// dropping the borrow commits the slot (`DESIGN.md` §2).
    ///
    /// The first write through a handle also records the writing worker's
    /// NUMA node as the handle's *home* (first-touch), the signal
    /// [`Affinity::Auto`] placement reads.
    pub fn write<'a, T>(&self, h: &'a Shared<T>) -> RefMut<'a, T> {
        self.check_granted(h.id(), true);
        {
            let raw = self.raw();
            h.note_first_touch(raw.rt.topo.node_of(raw.widx));
        }
        if !h.is_renameable() {
            return h.borrow_mut();
        }
        match self.slot_binding(h.id(), true) {
            Some(b) => h.borrow_slot_mut(b.slot, b.renamed.then_some(b.seq)),
            None => h.borrow_slot_mut(h.committed_slot(), None),
        }
    }

    /// Slot-routed raw view of a [`Partitioned`] handle this task declared
    /// an access on. Equivalent to [`Partitioned::view`] for plain handles;
    /// on renameable handles it resolves the version slot the access was
    /// bound to, and dropping the view commits a renamed write.
    ///
    /// The pointer carries the same safety contract as
    /// [`Partitioned::view`]: only touch regions the task declared.
    pub fn view_of<'a, T: Send>(&self, p: &'a Partitioned<T>) -> PartView<'a, T> {
        self.check_granted(p.id(), false);
        {
            // First-touch is a *write* policy: a read-only view scheduled
            // before the first writer must not claim the home node.
            let raw = self.raw();
            let writes = raw.cur.as_ref().is_some_and(|cur| {
                cur.accesses
                    .iter()
                    .any(|a| a.handle == p.id() && a.mode.writes())
            });
            if writes {
                p.note_first_touch(raw.rt.topo.node_of(raw.widx));
            }
        }
        if !p.is_renameable() {
            return p.part_view(0, None);
        }
        match self
            .slot_binding(p.id(), true)
            .or_else(|| self.slot_binding(p.id(), false))
        {
            Some(b) => p.part_view(b.slot, b.renamed.then_some(b.seq)),
            None => p.part_view(p.committed_slot(), None),
        }
    }

    /// Fold into a reduction this task declared cumulative-write access on.
    /// The per-worker accumulator is merged into the main value when a later
    /// read/write access observes it.
    pub fn fold<T: Send, R>(&self, red: &Reduction<T>, f: impl FnOnce(&mut T) -> R) -> R {
        self.check_granted(red.id(), true);
        f(red.slot_for(self.raw().widx))
    }

    /// Read a reduction's merged value (task must declare read access; the
    /// data-flow edges order this after the cumulative-write group).
    pub fn read_reduced<'a, T: Send>(&self, red: &'a Reduction<T>) -> &'a T {
        self.check_granted(red.id(), false);
        red.merge_pending();
        // Safety: scheduler ordered us after all writers.
        unsafe { &*red.data_ptr() }
    }
}

/// Builder for an attribute-carrying task, started with [`Ctx::task`]
/// (`DESIGN.md` §5).
///
/// Accumulates access declarations and a [`TaskAttrs`] descriptor, then
/// terminates in [`TaskBuilder::spawn`] (a non-blocking data-flow task,
/// exactly [`Ctx::spawn`]'s semantics) or [`TaskBuilder::join`] (a
/// fork-join pair on the fast lane). The attributes are consumed at every
/// layer the task crosses: the [`Priority`] band orders queue pops, ready
/// lists and steal scans, and the [`Affinity`] steers which thief a ready
/// task is served to.
///
/// ```
/// use xkaapi_core::{Affinity, Priority, Runtime, Shared};
/// let rt = Runtime::new(2);
/// let (a, b) = (Shared::new(0u64), Shared::new(0u64));
/// rt.scope(|ctx| {
///     let (aw, ar, bw) = (a.clone(), a.clone(), b.clone());
///     ctx.task()
///         .writes(&a)
///         .priority(Priority::High)
///         .spawn(move |t| *t.write(&aw) = 21);
///     ctx.task()
///         .reads(&a)
///         .writes(&b)
///         .affinity(Affinity::Auto)
///         .spawn(move |t| *t.write(&bw) = 2 * *t.read(&ar));
/// });
/// assert_eq!(*b.get(), 42);
/// ```
#[must_use = "a TaskBuilder does nothing until a terminator (.spawn, .join, .foreach…)"]
pub struct TaskBuilder<'b, 'scope> {
    pub(crate) ctx: &'b mut Ctx<'scope>,
    pub(crate) accesses: Vec<Access>,
    pub(crate) attrs: TaskAttrs,
}

impl<'b, 'scope> TaskBuilder<'b, 'scope> {
    /// Declare a whole-object read access on `h`.
    pub fn reads<T: ?Sized>(mut self, h: &Shared<T>) -> Self {
        self.accesses.push(h.read());
        self
    }

    /// Declare a whole-object write-only access on `h` (renameable on
    /// renameable handles, see `DESIGN.md` §2).
    pub fn writes<T: ?Sized>(mut self, h: &Shared<T>) -> Self {
        self.accesses.push(h.write());
        self
    }

    /// Declare a whole-object exclusive read-write access on `h`.
    pub fn exclusive<T: ?Sized>(mut self, h: &Shared<T>) -> Self {
        self.accesses.push(h.exclusive());
        self
    }

    /// Declare an explicit access (regions, [`Partitioned`] handles,
    /// reductions — anything the plain helpers don't cover).
    pub fn access(mut self, a: Access) -> Self {
        self.accesses.push(a);
        self
    }

    /// Declare several explicit accesses at once.
    pub fn accesses(mut self, accs: impl IntoIterator<Item = Access>) -> Self {
        self.accesses.extend(accs);
        self
    }

    /// Set the priority band (default [`Priority::Normal`]: today's
    /// scheduling order, unchanged).
    pub fn priority(mut self, p: Priority) -> Self {
        self.attrs.priority = p;
        self
    }

    /// Set the data-affinity request (default [`Affinity::None`]).
    pub fn affinity(mut self, a: Affinity) -> Self {
        self.attrs.affinity = a;
        self
    }

    /// Attach a cooperative [`CancelToken`] (default: inherit the spawning
    /// task's token, if any). Child spawns of this task inherit it in turn,
    /// so cancelling the token cancels the whole cone (`DESIGN.md` §8).
    pub fn cancel_token(mut self, t: &CancelToken) -> Self {
        self.attrs.cancel = Some(t.clone());
        self
    }

    /// Route the task to an execution track (default [`Track::Cpu`](crate::Track::Cpu):
    /// today's worker pool, unchanged). `Track::Offload` hands it to the
    /// modelled accelerator engine — successors become ready when its
    /// completion drains, not when the body returns; `Track::Io` runs it
    /// on the dedicated blocking thread set (`DESIGN.md` §10).
    pub fn track(mut self, t: crate::attrs::Track) -> Self {
        self.attrs.track = t;
        self
    }

    /// Mark the task as blocking on an external event (a file descriptor,
    /// a channel, a remote reply): sugar for `.track(Track::Io)` — the
    /// body runs on the io thread set and never occupies a CPU worker.
    pub fn wait_external(self) -> Self {
        self.track(crate::attrs::Track::Io)
    }

    /// Spawn the task. Non-blocking, identical semantics to
    /// [`Ctx::spawn`]; the accumulated attributes ride the task through
    /// the queue, steal and dependency layers.
    pub fn spawn<F>(self, f: F)
    where
        F: FnOnce(&mut Ctx<'scope>) + Send + 'scope,
    {
        let TaskBuilder {
            ctx,
            accesses,
            attrs,
        } = self;
        ctx.spawn_with(accesses.into_boxed_slice(), attrs, f);
    }

    /// Run a fork-join pair: `fb` becomes a stealable fast-lane job pushed
    /// at this builder's priority band, `fa` runs inline, then the pair
    /// synchronises — [`Ctx::join`] with attributes. Fork-join jobs are
    /// independent by construction, so access declarations are ignored
    /// here (declare them on spawned tasks instead).
    pub fn join<RA, RB, FA, FB>(self, fa: FA, fb: FB) -> (RA, RB)
    where
        FA: FnOnce(&mut Ctx<'scope>) -> RA,
        FB: FnOnce(&mut Ctx<'scope>) -> RB + Send,
        RB: Send,
    {
        debug_assert!(
            self.accesses.is_empty(),
            "fork-join tasks are independent; access declarations are ignored"
        );
        self.ctx.join_with(self.attrs, fa, fb)
    }
}

/// Run `f` as if on a scope of `rt` — helper for code generic over being
/// inside or outside the pool (used by the compatibility layers).
pub fn with_runtime_ctx<R: Send>(rt: &Runtime, f: impl FnOnce(&mut Ctx<'_>) -> R + Send) -> R {
    rt.scope(f)
}
