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
//! the current frame (which bind their dependencies, see `crate::frame`);
//! at a sync (explicit or the implicit one when a task body ends) the owner
//! claims its children in FIFO order — a valid sequential order, so the
//! owner never consults a dependency on this path. When the owner meets a
//! task a thief claimed, it suspends and works as a thief itself until the
//! task completes: first from its own ready list, then by stealing.

use crate::access::{Access, AccessMode, HandleId};
use crate::attrs::{Affinity, CancelToken, Priority, TaskAttrs};
use crate::dataflow::SlotBinding;
use crate::frame::Frame;
use crate::handle::{PartView, Partitioned, Reduction, Ref, RefMut, Shared};
use crate::runtime::{RtInner, Runtime};
use crate::stats::WorkerStats;
use crate::steal::{run_grab, try_steal_once};
use crate::task::{Task, TaskBody, ST_DONE, ST_OWNER};
use crate::worker::{Near, ReadyBatch};
use crossbeam_utils::Backoff;
use std::marker::PhantomData;
use std::mem::ManuallyDrop;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::ptr::NonNull;
use std::sync::Arc;

/// Internal, lifetime-free execution context of one worker running one task.
pub struct RawCtx {
    /// The runtime, *borrowed*: a copy of the creator's `Arc` handle whose
    /// reference count was never taken and is never released (see
    /// [`RawCtx::new`]). A count taken per context would be
    /// atomic read-modify-writes on the one refcount line all workers
    /// share, paid on every `Ctx::join` (`DESIGN.md` §6, "What a join may
    /// touch").
    pub(crate) rt: ManuallyDrop<Arc<RtInner>>,
    pub(crate) widx: usize,
    /// Child frame, created lazily on the first spawn.
    frame: Option<Arc<Frame>>,
    /// What this context runs under.
    pub(crate) under: Under,
}

/// What a context runs under: the task it executes and the cancel token
/// governing it, both *borrowed* from the context's creator (no reference
/// count taken), and the replay flag. `Copy`, so the forked branch of a
/// `Ctx::join` runs under exactly its parent's task, token and flag.
///
/// The pointers stay valid for the same reason [`RawCtx::rt`] does: a
/// context lives on the stack of the call that owns (or waits for) the
/// task and the token — `execute_claimed` holds the task's `Arc`, a root
/// job holds its token, and a join does not return before its forked
/// branch finished.
#[derive(Clone, Copy, Default)]
pub(crate) struct Under {
    /// The task being executed (its declared accesses), `None` at a root.
    task: Option<NonNull<Task>>,
    /// Cancellation token governing this execution, inherited by every
    /// child spawn so cancelling a root cancels its whole cone.
    cancel: Option<NonNull<CancelToken>>,
    /// A replay driver's context (`record.rs`): debug-mode data-access
    /// checking is off, because the recorded bodies it runs declared
    /// their accesses at record time. Only read by the debug-mode checker.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    pub(crate) replay: bool,
}

impl RawCtx {
    /// A context on worker `widx` of `rt`.
    pub(crate) fn new(rt: &Arc<RtInner>, widx: usize) -> RawCtx {
        // SAFETY: the bitwise copy is a second handle on `rt`'s allocation
        // that takes no reference count, and `ManuallyDrop` guarantees it
        // never releases one. It stays valid while some owning `Arc`
        // outlives this context, which holds for every creator: a
        // `RawCtx` is only ever built on the stack of a call that borrows
        // `rt` and handed down as `&mut`, never stored or sent, and the
        // thread building it holds an owning `Arc<RtInner>` for the whole
        // call — the worker thread (`worker_main`) or the `Runtime` handle
        // behind `scope` / `submit`. Nested contexts borrow from their parent's
        // copy, which is valid for the same reason.
        let rt = ManuallyDrop::new(unsafe { std::ptr::read(rt) });
        RawCtx {
            rt,
            widx,
            frame: None,
            under: Under::default(),
        }
    }

    /// The task this context executes, if any.
    #[inline]
    fn cur(&self) -> Option<&Task> {
        // Safety: see `Under`.
        self.under.task.map(|t| unsafe { &*t.as_ptr() })
    }

    /// The cancel token governing this context, if any.
    #[inline]
    pub(crate) fn cancel(&self) -> Option<&CancelToken> {
        // Safety: see `Under`.
        self.under.cancel.map(|t| unsafe { &*t.as_ptr() })
    }

    /// Run under `token` (borrowed).
    ///
    /// # Safety
    /// `token` must outlive this context, or be replaced before it dies.
    pub(crate) unsafe fn set_cancel(&mut self, token: Option<&CancelToken>) {
        self.under.cancel = token.map(NonNull::from);
    }

    /// Run one recorded body on this context.
    pub(crate) fn run_recorded(&mut self, body: &dyn for<'s> Fn(&mut Ctx<'s>)) {
        body(&mut Ctx {
            raw: self,
            _inv: PhantomData,
        })
    }

    fn ensure_frame(&mut self) -> Arc<Frame> {
        if self.frame.is_none() {
            let worker = &self.rt.workers[self.widx];
            let f = worker.pop_pooled_frame().unwrap_or_else(|| {
                WorkerStats::bump(&worker.stats.frames_created, 1);
                Frame::new(self.widx)
            });
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
        if attrs.is_default() && self.under.cancel.is_none() {
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
            attrs.cancel = self.cancel().cloned();
        }
        WorkerStats::bump(&self.rt.workers[self.widx].stats.tasks_with_attrs, 1);
        self.spawn_common(Arc::new(Task::new(body, accesses, attrs)))
    }

    /// Shared spawn lowering (all paths land here; semantics are
    /// attribute-independent by construction).
    #[inline]
    fn spawn_common(&mut self, task: Arc<Task>) -> (Arc<Frame>, usize, Arc<Task>) {
        let frame = self.ensure_frame();
        let out = frame.push(&task, &self.rt.tun.rename);
        let idx = out.idx;
        let stats = &self.rt.workers[self.widx].stats;
        WorkerStats::bump(&stats.tasks_spawned, 1);
        if out.bound > 0 {
            // None while no thief looked at the frame (`crate::frame`).
            WorkerStats::bump(&stats.dataflow_pushes, u64::from(out.bound));
        }
        if out.renames > 0 {
            WorkerStats::bump(&stats.renames, out.renames as u64);
        }
        if out.promoted {
            // Only a released task is stealable work; the release wakes.
            if out.released {
                let mut release = Release::to(&self.rt, self.widx);
                release.push(Arc::clone(&task));
                release.finish();
            }
        } else if self.rt.num_workers() > 1 {
            self.rt.notify_work(Near::Worker(self.widx), 1);
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
                    // The body ran inline, so the task is done: program
                    // order alone makes the next child safe to run.
                    execute_claimed(rt, widx, &frame, t);
                } else if t.state() == ST_DONE {
                    frame.advance_cursor();
                } else {
                    // Stolen and in flight: suspend, help elsewhere.
                    help_until(rt, widx, || t.is_done());
                    frame.advance_cursor();
                }
            } else if frame.pending() == 0 {
                break;
            } else {
                // All claimed, some still running on thieves.
                help_until(rt, widx, || frame.pending() == 0);
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
            if frame.promoted() {
                // The FIFO walk ran most of this frame's listed tasks
                // itself: drop their stale entries now.
                worker.ready.purge();
            }
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

/// Execute a task already claimed by this worker, pushed at `frame`.
///
/// Failure model (`DESIGN.md` §8): a panicking body never unwinds past this
/// function — the worker survives, the frame records the failure *before*
/// the completion stores (so an owner that observes `pending == 0` always
/// finds the payload), and successors in the dataflow cone are
/// completed-as-failed instead of run. Cancelled tasks skip their body but
/// satisfy every dataflow obligation. Every path returns with the task
/// complete.
pub(crate) fn execute_claimed(rt: &Arc<RtInner>, widx: usize, frame: &Frame, task: Arc<Task>) {
    let stats = &rt.workers[widx].stats;
    let idx = task.idx();
    // Poisoned cone: a dataflow predecessor panicked. Complete-as-failed
    // without running the body so the countdowns still drain.
    if frame.has_failed_pred(idx) {
        let _ = task.take_body();
        frame.mark_failed(idx); // binds nothing: the frame is bound
        WorkerStats::bump(&stats.tasks_poisoned, 1);
        complete_and_publish(rt, widx, frame, &task);
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
        complete_and_publish(rt, widx, frame, &task);
        return;
    }
    let body = task.take_body();
    let mut raw = RawCtx::new(rt, widx);
    // `task` outlives `raw`: both borrows in `Under` stay valid.
    raw.under = Under {
        task: Some(NonNull::from(&*task)),
        cancel: task.attrs.cancel.as_ref().map(NonNull::from),
        replay: false,
    };
    // Traced task span (`DESIGN.md` §9): B/E pair around the body plus
    // the start→done delta into the band's service histogram. One relaxed
    // load when tracing is off; the inline fork-join fast lane
    // (`Ctx::join`) is deliberately not per-event instrumented.
    let tracing = rt.telemetry.enabled();
    let band = task
        .attrs
        .band()
        .min(crate::attrs::PRIORITY_BANDS as u8 - 1);
    let t0 = if tracing {
        let t0 = crate::telemetry::tick();
        rt.workers[widx]
            .tele
            .emit(t0, crate::telemetry::EventKind::TaskBegin, band, idx as u32);
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
        let tele = &rt.workers[widx].tele;
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
            let bound = frame.mark_failed(idx);
            WorkerStats::bump(&stats.dataflow_pushes, u64::from(bound));
            frame.set_panic(p);
        }
        _ => {}
    }
    complete_and_publish(rt, widx, frame, &task);
}

/// Completion tail shared by the run/skip paths of `execute_claimed`. The
/// frame is not touched after `complete_task`: that may have been the
/// frame's last completion.
pub(crate) fn complete_and_publish(rt: &Arc<RtInner>, widx: usize, frame: &Frame, task: &Task) {
    task.complete();
    let mut release = None;
    let done = frame.complete_task(task, |t| {
        release.get_or_insert_with(|| Release::to(rt, widx)).push(t)
    });
    if let Some(release) = release {
        release.finish();
    }
    if !done.promoted && done.left > 0 && rt.num_workers() > 1 {
        // An unpromoted frame's successors are found by its first steal scan.
        rt.notify_work(Near::Worker(widx), 1);
    }
}

/// Execute a task claimed from a ready list, a queue or a steal. It runs
/// as the owner's (`tasks_executed_own`) on its frame's owner, as stolen
/// anywhere else.
pub(crate) fn execute_task(rt: &Arc<RtInner>, widx: usize, task: Arc<Task>) {
    // Safety: the task is claimed and not completed yet.
    let frame = unsafe { task.frame() };
    let stats = &rt.workers[widx].stats;
    let executed = if frame.owner() == widx {
        &stats.tasks_executed_own
    } else {
        &stats.tasks_executed_stolen
    };
    WorkerStats::bump(executed, 1);
    execute_claimed(rt, widx, frame, task);
}

/// Tasks a worker releases onto one worker's ready list (`DESIGN.md` §2,
/// "Ready lists"): one list lock for the whole batch, one notification for
/// it in [`Release::finish`].
pub(crate) struct Release<'a> {
    rt: &'a Arc<RtInner>,
    /// The worker whose ready list receives the tasks.
    target: usize,
    list: ReadyBatch<'a>,
    listed: usize,
}

impl<'a> Release<'a> {
    /// Tasks released onto worker `target`'s list.
    pub(crate) fn to(rt: &'a Arc<RtInner>, target: usize) -> Release<'a> {
        Release {
            rt,
            target,
            list: rt.workers[target].ready.batch(),
            listed: 0,
        }
    }

    /// Release a ready, unclaimed task.
    pub(crate) fn push(&mut self, task: Arc<Task>) {
        self.list.push(task);
        self.listed += 1;
    }

    /// Unlock the list and wake for what was listed.
    pub(crate) fn finish(self) {
        let Release {
            rt,
            target,
            list,
            listed,
        } = self;
        drop(list);
        if listed > 0 && rt.num_workers() > 1 {
            rt.notify_work(Near::Worker(target), listed);
        }
    }
}

/// Suspended-owner help loop: until `done()` holds, run tasks from this
/// worker's own ready list, then steal from random victims, then back off.
pub(crate) fn help_until(rt: &Arc<RtInner>, widx: usize, done: impl Fn() -> bool) {
    let backoff = Backoff::new();
    let my = &rt.workers[widx];
    while !done() {
        if let Some(task) = my.ready.pop() {
            execute_task(rt, widx, task);
            my.reset_fail_streak();
            backoff.reset();
            continue;
        }
        // Never pop the own lane here: a suspended join's help loop
        // consuming it would break the LIFO discipline `take_job` relies
        // on; thieves reach lanes through the steal protocol below.
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
        // SAFETY: as in `raw`; `&mut self` makes this the only borrow.
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
        self.raw().cancel().is_some_and(CancelToken::is_cancelled)
    }

    /// The token governing this task's cone, if any (clone it to hand
    /// cancellation authority elsewhere).
    pub fn cancel_token(&self) -> Option<CancelToken> {
        self.raw().cancel().cloned()
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
        use crate::fastlane::FastJob;
        const J_PENDING: u8 = 0;
        const J_DONE: u8 = 1;
        const J_PANIC: u8 = 2;
        struct StackJob<F, R> {
            state: std::sync::atomic::AtomicU8,
            /// The joining context's task, token and replay flag: the
            /// forked branch runs under them, like the inline one.
            under: Under,
            f: std::cell::UnsafeCell<Option<F>>,
            result: std::cell::UnsafeCell<Option<R>>,
            panic: std::cell::UnsafeCell<Option<Box<dyn std::any::Any + Send>>>,
        }
        unsafe fn exec_job<F, R>(data: *mut (), rt: &Arc<RtInner>, widx: usize)
        where
            F: FnOnce(&mut RawCtx) -> R + Send,
            R: Send,
        {
            // SAFETY: `data` is the `StackJob<F, R>` that `jref_of` typed
            // it from, alive until the join sees a terminal state.
            let job = unsafe { &*(data as *const StackJob<F, R>) };
            // SAFETY: one executor per job (the deque hands it out once),
            // and the joiner reads no field before the terminal state.
            let f = unsafe { (*job.f.get()).take().expect("fast job run twice") };
            let mut raw = RawCtx::new(rt, widx);
            // The joining context outlives the job (see `Under`).
            raw.under = job.under;
            let run = catch_unwind(AssertUnwindSafe(|| {
                #[cfg(feature = "fault-injection")]
                crate::fault::on_task_execute(rt);
                f(&mut raw)
            }));
            let fin = catch_unwind(AssertUnwindSafe(|| raw.finish()));
            // Publishing the terminal state is the LAST access to the record.
            match (run, fin) {
                (Ok(v), Ok(())) => {
                    // SAFETY: the joiner reads `result` only after the
                    // `Release` store of `J_DONE` below.
                    unsafe { *job.result.get() = Some(v) };
                    job.state
                        .store(J_DONE, std::sync::atomic::Ordering::Release);
                }
                (Err(p), _) | (_, Err(p)) => {
                    // SAFETY: the joiner reads `panic` only after the
                    // `Release` store of `J_PANIC` below.
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
            under: self.raw().under,
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
            let pushed = rt.lanes.push_job(widx, jref, attrs.band() as usize);
            if let Some(was_empty) = pushed {
                WorkerStats::bump_owned(&stats.tasks_spawned, 1);
                if rt.num_workers() > 1 {
                    // Fence for the park handshake only when this push
                    // made the deque non-empty: a job queued behind
                    // another is ours to take back if no thief comes, so
                    // a missed wake costs parallelism, never progress.
                    if was_empty {
                        rt.notify_work(Near::Worker(widx), 1);
                    } else {
                        rt.park_lot.wake_if_needed(rt, Near::Worker(widx), 1);
                    }
                }
            }
            pushed.is_some()
        };
        // Continuation; even if it panics the job must retire first (it
        // points into this stack frame).
        let ra = catch_unwind(AssertUnwindSafe(|| fa(self)));
        let rt: &Arc<RtInner> = &self.raw().rt;
        if pushed {
            if let Some(mine) = rt.lanes.take_job(widx, jref.data) {
                WorkerStats::bump_owned(&rt.workers[widx].stats.tasks_executed_own, 1);
                // SAFETY: `take_job` returned our own job, so no thief ran
                // it, and `job` lives on this frame until we return.
                unsafe { mine.execute(rt, widx) };
            } else {
                // Taken by another worker (or consumed while helping): work
                // as a thief until it completes.
                help_until(rt, widx, || {
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
                // SAFETY: the `Acquire` load saw `J_DONE`: the executor
                // wrote `result` before it and touches the job no more.
                let rb = unsafe { (*job.result.get()).take() };
                (
                    ra,
                    rb.expect("join: forked branch did not produce a result"),
                )
            }
            J_PANIC => {
                // SAFETY: as for `J_DONE`, with `panic`.
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
        let mut sub = RawCtx::new(&raw.rt, raw.widx);
        sub.run_scoped(f)
    }

    // -- data access ---------------------------------------------------

    #[cfg(debug_assertions)]
    fn check_granted(&self, id: crate::access::HandleId, write: bool) {
        let raw = self.raw();
        if raw.under.replay {
            return;
        }
        let Some(cur) = raw.cur() else {
            panic!(
                "xkaapi: data access outside a task with declared accesses; \
                 spawn a task declaring the access, or use Shared::get after the scope"
            );
        };
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
        let cur = self.raw().cur()?;
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
            // access routes to slot 0 with no rename. `cur` is only ever a
            // frame-pushed task (`execute_claimed` is the sole assignment),
            // and one its frame has not bound (yet) needs no routing
            // (`crate::frame`), so the default binding is right for it too.
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
            let writes = raw.cur().is_some_and(|cur| {
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
/// layer the task crosses: the [`Priority`] band orders queue pops and
/// ready lists, and the [`Affinity`] steers which thief a ready
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
