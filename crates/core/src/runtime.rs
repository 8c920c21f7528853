//! The runtime layer: pool construction, job injection and the public entry
//! points ([`Runtime::submit`], [`Runtime::scope`], parallel loops,
//! statistics).
//!
//! The engine is layered (see `README.md` for the stack diagram):
//!
//! * the **worker layer** ([`crate::worker`]) runs the idle loop
//!   *queue → inject → steal → search → park*;
//! * the **injection layer** ([`crate::inject`]) is how root jobs enter
//!   from outside the pool: sharded per-NUMA-node lanes with admission
//!   control, [`JoinHandle`]s for non-blocking callers;
//! * the **queue layer** ([`crate::queue::TaskQueue`]) decides where ready
//!   work lives — per-worker T.H.E. deques by default, or a centralized
//!   pool (the omp/quark baselines) injected through [`Builder::task_queue`];
//! * the **steal layer** ([`crate::policy::StealPolicy`]) decides the
//!   thief-side protocol — flat-combining aggregation by default,
//!   per-thief steals via [`Builder::steal_policy`];
//! * the **dependency layer** ([`crate::frame`]) is shared by every policy.
//!
//! External callers reach the pool in two ways: [`Runtime::submit`]
//! injects a root job and returns a [`JoinHandle`] immediately, and
//! [`Runtime::scope`] runs its root on the calling thread, in the seat of
//! a parked worker (an inject job plus a wait only when none is parked).

use crate::access::Access;
use crate::attrs::{Affinity, CancelToken, Priority, TaskAttrs, NORMAL_BAND};
use crate::ctx::{Ctx, RawCtx};
use crate::fastlane::FastJob;
use crate::frame::PromotionPolicy;
use crate::handle::{Partitioned, Shared};
use crate::inject::{
    make_job, InjectLaneStats, InjectLanes, InjectPolicy, JoinHandle, JoinState, SubmitError,
};
use crate::policy::{AggregatedStealing, RenamePolicy, StealPolicy};
use crate::queue::{DistributedLanes, TaskQueue, WorkItem};
use crate::stats::{self, StatsSnapshot};
use crate::steal::Grab;
use crate::telemetry::{MetricsRegistry, TelemetryState, TraceSession, WorkerTelemetry};
use crate::topology::Topology;
use crate::worker::{current_worker_of, run_on_seat, worker_main, Near, ParkLot, Worker};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Scheduler tuning knobs. Defaults reproduce the paper's design; ablation
/// benchmarks flip individual features off. The steal protocol is not a
/// tunable: [`Runtime::steal_policy_name`] names the one installed.
#[derive(Clone, Copy, Debug)]
pub struct Tunables {
    /// Promotion policy (per-task readiness and ready lists).
    pub promotion: PromotionPolicy,
    /// Write-only renaming (WAR/WAW elimination) policy.
    pub rename: RenamePolicy,
    /// Injection admission/backpressure policy (pending root-job cap and
    /// behaviour at the cap).
    pub inject: InjectPolicy,
    /// Pin worker threads to their topology cores (`sched_setaffinity`,
    /// best effort: unsupported platforms and failed syscalls silently
    /// keep the nominal mapping).
    pub pin_workers: bool,
    /// Age-based promotion of starved Low-band inject entries: a queued
    /// Low job waiting at least this long is moved up to the Normal band
    /// by the drain-side sweep (`DESIGN.md` §8). `None` disables aging
    /// (pre-PR 8 strict band order, starvation by design).
    pub promote_low_after: Option<Duration>,
}

impl Default for Tunables {
    fn default() -> Self {
        Tunables {
            promotion: PromotionPolicy::default(),
            rename: RenamePolicy::default(),
            inject: InjectPolicy::default(),
            pin_workers: false,
            promote_low_after: Some(Duration::from_millis(10)),
        }
    }
}

/// Builder for [`Runtime`].
///
/// # Environment
///
/// Two variables are read at [`Builder::build`] time, and only when the
/// matching setter was not called:
///
/// * `XKAAPI_WORKERS` — number of worker threads (≥ 1), a deployment
///   setting (rayon's `RAYON_NUM_THREADS` precedent);
/// * `XKAAPI_TRACE` — enable the always-compiled telemetry layer (event
///   rings + latency histograms, `DESIGN.md` §9; `1/0`, `true/false`,
///   `on/off`, `yes/no`).
///
/// An explicit [`Builder::workers`] or [`Builder::tracing`] call wins over
/// the environment: code that sized auxiliary structures (a custom
/// [`TaskQueue`], `Reduction::with_slots`) to a requested worker count
/// must never be resized from the outside underneath it. Malformed values
/// are ignored with a one-line warning on stderr.
pub struct Builder {
    workers: Option<usize>,
    tun: Tunables,
    tracing: Option<bool>,
    stack_size: usize,
    queue: Option<Arc<dyn TaskQueue>>,
    steal: Option<Arc<dyn StealPolicy>>,
    topo: Option<Topology>,
    #[cfg(feature = "fault-injection")]
    fault_plan: Option<crate::fault::FaultPlan>,
}

impl Default for Builder {
    fn default() -> Self {
        Builder {
            workers: None,
            tun: Tunables::default(),
            tracing: None,
            stack_size: 16 << 20,
            queue: None,
            steal: None,
            topo: None,
            #[cfg(feature = "fault-injection")]
            fault_plan: None,
        }
    }
}

/// Parse a `≥ 1` integer environment override, warning once on junk.
fn env_override(name: &str) -> Option<usize> {
    let raw = std::env::var(name).ok()?;
    match raw.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        _ => {
            eprintln!("xkaapi: ignoring invalid {name}={raw:?} (want an integer >= 1)");
            None
        }
    }
}

/// Parse a boolean environment override (`1/0`, `true/false`, `on/off`,
/// `yes/no`), warning on junk.
fn env_flag(name: &str) -> Option<bool> {
    let raw = std::env::var(name).ok()?;
    match raw.trim().to_ascii_lowercase().as_str() {
        "1" | "true" | "on" | "yes" => Some(true),
        "0" | "false" | "off" | "no" => Some(false),
        _ => {
            eprintln!("xkaapi: ignoring invalid {name}={raw:?} (want a boolean)");
            None
        }
    }
}

impl Builder {
    /// Number of worker threads (default: `XKAAPI_WORKERS` if set, else
    /// available parallelism). An explicit call here wins over the
    /// environment.
    pub fn workers(mut self, n: usize) -> Self {
        assert!(n >= 1, "at least one worker required");
        self.workers = Some(n);
        self
    }

    /// Override the graph-mode promotion policy.
    pub fn promotion(mut self, p: PromotionPolicy) -> Self {
        self.tun.promotion = p;
        self
    }

    /// Enable/disable write-only renaming (WAR/WAW elimination) — the
    /// master switch the ablation benchmarks A/B. Renaming only ever
    /// applies to renameable handles ([`crate::Shared::renameable`]).
    pub fn renaming(mut self, on: bool) -> Self {
        self.tun.rename.enabled = on;
        self
    }

    /// Install a thief-side steal protocol (steal layer). Defaults to
    /// [`AggregatedStealing`] (flat combining); [`crate::PerThiefStealing`]
    /// is the no-aggregation ablation.
    pub fn steal_policy(mut self, p: Arc<dyn StealPolicy>) -> Self {
        self.steal = Some(p);
        self
    }

    /// Install an explicit machine [`Topology`] (worker→node mapping +
    /// distance matrix) for topology-aware steal policies. Its worker
    /// count must match the runtime's. Defaults to [`Topology::detect`]
    /// (Linux sysfs, flat fallback).
    pub fn topology(mut self, t: Topology) -> Self {
        self.topo = Some(t);
        self
    }

    /// Install a ready-work store (queue layer). Defaults to
    /// [`DistributedLanes`] (one T.H.E. deque per worker). Centralized
    /// implementations make every paradigm run through one shared pool —
    /// see `xkaapi_omp::OmpCentralQueue` and `xkaapi_quark::QuarkCentralQueue`.
    pub fn task_queue(mut self, q: Arc<dyn TaskQueue>) -> Self {
        self.queue = Some(q);
        self
    }

    /// Injection admission policy: pending root-job cap and behaviour at
    /// the cap ([`crate::OnFull::Block`] throttles submitters,
    /// [`crate::OnFull::Reject`] sheds load).
    pub fn inject_policy(mut self, p: InjectPolicy) -> Self {
        assert!(p.max_pending >= 1, "max_pending must be >= 1");
        self.tun.inject = p;
        self
    }

    /// Pending root-job cap of the injection admission layer (default
    /// 4096); keeps the configured `on_full` behaviour.
    pub fn max_pending(mut self, n: usize) -> Self {
        assert!(n >= 1, "max_pending must be >= 1");
        self.tun.inject.max_pending = n;
        self
    }

    /// Pin worker threads to their topology cores via `sched_setaffinity`
    /// (best effort: platforms without the syscall — or cores the process
    /// may not use — silently keep the nominal, unpinned mapping). Default
    /// `false`.
    pub fn pin_workers(mut self, pin: bool) -> Self {
        self.tun.pin_workers = pin;
        self
    }

    /// Worker thread stack size in bytes (default 16 MiB — recursive
    /// fork-join work runs on worker stacks). The root of an external
    /// [`Runtime::scope`] that takes a parked worker's seat runs on the
    /// calling thread's stack instead; what thieves take from it still
    /// runs on worker stacks.
    pub fn stack_size(mut self, bytes: usize) -> Self {
        self.stack_size = bytes;
        self
    }

    /// Promote a starved Low-band inject entry up one band after waiting
    /// this long (`None` disables the age sweep; default 10 ms).
    pub fn promote_low_after(mut self, after: Option<Duration>) -> Self {
        self.tun.promote_low_after = after;
        self
    }

    /// Enable the telemetry layer from construction: per-worker event
    /// rings and banded latency histograms (`DESIGN.md` §9). Always
    /// compiled in, default **off** (one relaxed load per instrumentation
    /// point), overridable via the `XKAAPI_TRACE` environment variable;
    /// an explicit call here wins over the environment. Can also be
    /// toggled live with [`Runtime::set_tracing`].
    pub fn tracing(mut self, on: bool) -> Self {
        self.tracing = Some(on);
        self
    }

    /// Install a deterministic fault-injection plan (chaos testing only;
    /// see [`crate::fault::FaultPlan`]). Feature-gated: release builds
    /// without `fault-injection` carry zero hook cost.
    #[cfg(feature = "fault-injection")]
    pub fn fault_plan(mut self, plan: crate::fault::FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Create the runtime and start its workers.
    pub fn build(self) -> Runtime {
        let tun = self.tun;
        let nworkers = self
            .workers
            .or_else(|| env_override("XKAAPI_WORKERS"))
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        let (queue, builtin_lanes): (Arc<dyn TaskQueue>, _) = match self.queue {
            Some(q) => (q, None),
            None => {
                let lanes = Arc::new(DistributedLanes::new(nworkers));
                (Arc::clone(&lanes) as Arc<dyn TaskQueue>, Some(lanes))
            }
        };
        let steal_pol: Arc<dyn StealPolicy> =
            self.steal.unwrap_or_else(|| Arc::new(AggregatedStealing));
        let topo = match self.topo {
            Some(t) => {
                assert_eq!(
                    t.workers(),
                    nworkers,
                    "Builder::topology worker count must match the runtime's"
                );
                t
            }
            None => Topology::detect(nworkers),
        };
        let workers: Box<[Arc<Worker>]> = (0..nworkers).map(|i| Arc::new(Worker::new(i))).collect();
        let inject = InjectLanes::new(&topo, tun.inject, tun.promote_low_after);
        let trace_on = self
            .tracing
            .or_else(|| env_flag("XKAAPI_TRACE"))
            .unwrap_or(false);
        let inner = Arc::new(RtInner {
            workers,
            inject,
            telemetry: TelemetryState::new(nworkers, trace_on),
            park_lot: ParkLot::new(nworkers),
            shutdown: AtomicBool::new(false),
            tun,
            queue,
            builtin_lanes,
            steal_pol,
            topo,
            threads: Mutex::new(Vec::new()),
            #[cfg(feature = "fault-injection")]
            fault: self
                .fault_plan
                .map(|p| Arc::new(crate::fault::FaultState::new(p))),
        });
        for i in 0..nworkers {
            let rt = Arc::clone(&inner);
            let h = std::thread::Builder::new()
                .name(format!("xkaapi-worker-{i}"))
                .stack_size(self.stack_size)
                .spawn(move || worker_main(rt, i))
                .expect("failed to spawn worker thread");
            inner.threads.lock().push(h);
        }
        Runtime { inner }
    }
}

/// The X-Kaapi runtime: a pool of work-stealing workers executing data-flow
/// tasks, fork-join tasks and adaptive parallel loops.
pub struct Runtime {
    pub(crate) inner: Arc<RtInner>,
}

pub(crate) struct RtInner {
    pub(crate) workers: Box<[Arc<Worker>]>,
    /// Injection layer: sharded per-node root-job lanes with admission
    /// control (see [`crate::inject`]).
    pub(crate) inject: InjectLanes,
    /// Telemetry layer: the enable flag, clock epoch and accumulated
    /// trace session (`DESIGN.md` §9). Per-worker rings/histograms live
    /// on the workers themselves.
    pub(crate) telemetry: TelemetryState,
    pub(crate) park_lot: ParkLot,
    pub(crate) shutdown: AtomicBool,
    pub(crate) tun: Tunables,
    /// Queue layer: where ready work lives.
    pub(crate) queue: Arc<dyn TaskQueue>,
    /// `queue` itself when it is the built-in [`DistributedLanes`] (no
    /// queue was given to the builder), so `Ctx::join` can push and take
    /// its job through inlined calls instead of the trait object.
    builtin_lanes: Option<Arc<DistributedLanes>>,
    /// Steal layer: the thief-side protocol.
    pub(crate) steal_pol: Arc<dyn StealPolicy>,
    /// Machine topology consulted by topology-aware steal policies.
    pub(crate) topo: Topology,
    pub(crate) threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Deterministic fault-injection plan state (chaos testing only).
    #[cfg(feature = "fault-injection")]
    pub(crate) fault: Option<Arc<crate::fault::FaultState>>,
}

/// A root job injected from outside the pool, carrying the telemetry
/// metadata stamped at submission: the priority band it was admitted at
/// and the submit-time tick (0 = tracing was off at submission), from
/// which the draining worker computes the submit→start latency.
pub(crate) struct Job {
    pub(crate) run: Box<dyn FnOnce(&mut RawCtx) + Send>,
    pub(crate) band: u8,
    pub(crate) submit_tick: u64,
}

impl Job {
    /// A job with default (Normal-band, untraced) metadata; submission
    /// paths overwrite the band and stamp the tick when tracing is on.
    pub(crate) fn new(run: Box<dyn FnOnce(&mut RawCtx) + Send>) -> Job {
        Job {
            run,
            band: NORMAL_BAND,
            submit_tick: 0,
        }
    }
}

impl RtInner {
    #[inline]
    pub(crate) fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// Push `Ctx::join`'s stack job on worker `widx`'s queue: `None` when
    /// the queue refused it, else whether the push made the queue
    /// non-empty (always `true` for a custom queue, which cannot tell).
    /// With the built-in lanes this inlines into the join, where the
    /// default band folds to the T.H.E. push; the virtual call and the
    /// `WorkItem` round trip it avoids were a large share of a join's cost
    /// (`DESIGN.md` §6, "What a join may touch").
    #[inline]
    pub(crate) fn push_join(&self, widx: usize, job: FastJob, band: u8) -> Option<bool> {
        match &self.builtin_lanes {
            Some(lanes) => lanes.push_job(widx, job, band as usize),
            None => self
                .queue
                .push(widx, WorkItem::fast_banded(job, band))
                .ok()
                .map(|()| true),
        }
    }

    /// Take `Ctx::join`'s stack job `token` back if no thief took it (see
    /// [`RtInner::push_join`]).
    #[inline]
    pub(crate) fn take_join(&self, widx: usize, token: *mut ()) -> Option<FastJob> {
        match &self.builtin_lanes {
            Some(lanes) => lanes.take_job(widx, token).map(|(job, _)| job),
            None => self
                .queue
                .take(widx, token)
                .map(|item| match item.into_grab() {
                    Grab::Fast(job) => job,
                    _ => unreachable!("take returned a non-fork-join item"),
                }),
        }
    }

    /// Producer side of the park handshake (`crate::worker`): `units`
    /// new stealable units were just published `near` some place.
    #[inline]
    pub(crate) fn notify_work(&self, near: Near, units: usize) {
        self.park_lot.notify(self, near, units);
    }

    /// All telemetry bundles, one per worker in worker order (the
    /// drain/merge views).
    pub(crate) fn tele_refs(&self) -> Vec<&WorkerTelemetry> {
        self.workers.iter().map(|w| &w.tele).collect()
    }

    /// The **single** stats merge path (`DESIGN.md` §9): per-worker
    /// counters, the injection layer's global counters, the contained
    /// callback-panic count and the telemetry latency quantiles — used by
    /// both [`Runtime::stats`] and [`Runtime::metrics`] so the two can
    /// never disagree.
    pub(crate) fn collect_stats(&self) -> StatsSnapshot {
        let mut snap = stats::aggregate(self.workers.iter().map(|w| &w.stats));
        snap.jobs_submitted += self.inject.total_submitted();
        snap.jobs_rejected += self.inject.total_rejected();
        snap.inject_banded_drains += self.inject.total_banded_drains();
        snap.jobs_expired += self.inject.total_expired();
        snap.inject_promotions += self.inject.total_promoted();
        snap.callback_panics += self.inject.total_callback_panics();
        snap.latency = self.telemetry.collect_latency(&self.tele_refs());
        snap
    }
}

impl Runtime {
    /// Runtime with `workers` threads and default tunables.
    pub fn new(workers: usize) -> Runtime {
        Builder::default().workers(workers).build()
    }

    /// Start configuring a runtime.
    pub fn builder() -> Builder {
        Builder::default()
    }

    /// Number of workers.
    pub fn num_workers(&self) -> usize {
        self.inner.num_workers()
    }

    /// Enqueue a root job and return a [`JoinHandle`] **without waiting for
    /// the job to run**: the handle is the non-blocking front door servers
    /// and async reactors feed the pool through ([`JoinHandle::wait`] /
    /// [`JoinHandle::try_result`] / [`JoinHandle::on_complete`]).
    ///
    /// Admission follows the runtime's [`InjectPolicy`]: at
    /// `max_pending` queued jobs the call either blocks until a worker
    /// drains a lane ([`crate::OnFull::Block`], the default — never
    /// returns `Err`) or returns [`SubmitError`] immediately
    /// ([`crate::OnFull::Reject`]; the closure is dropped). The job lands
    /// in the submitting thread's hashed per-NUMA-node inject lane and is
    /// picked up by workers nearest that lane first.
    ///
    /// Called from inside a worker of this pool, the job runs **inline**
    /// (immediately, on the calling worker, like a nested [`Runtime::scope`])
    /// and the returned handle is already complete — tasks can submit
    /// follow-up roots without any deadlock risk and without consuming an
    /// admission slot.
    ///
    /// A panic inside the job is captured and re-raised at
    /// [`JoinHandle::wait`] / [`JoinHandle::try_result`].
    pub fn submit<F, R>(&self, f: F) -> Result<JoinHandle<R>, SubmitError>
    where
        F: for<'s> FnOnce(&mut Ctx<'s>) -> R + Send + 'static,
        R: Send + 'static,
    {
        self.submit_with(TaskAttrs::default(), &[], None, f)
    }

    /// Start building an attribute-carrying root job: set a [`Priority`]
    /// (admission shed order, lane drain order) and an [`Affinity`]
    /// (which NUMA node's inject lane the job lands in), then terminate
    /// with [`JobBuilder::submit`] or [`JobBuilder::detach`].
    /// [`Runtime::submit`] is this builder with default attributes.
    ///
    /// ```
    /// use xkaapi_core::{Affinity, Priority, Runtime};
    /// let rt = Runtime::new(2);
    /// let h = rt
    ///     .task()
    ///     .priority(Priority::High)
    ///     .affinity(Affinity::Auto)
    ///     .submit(|ctx| ctx.join(|_| 6, |_| 7))
    ///     .unwrap();
    /// assert_eq!(h.wait(), (6, 7));
    /// ```
    pub fn task(&self) -> JobBuilder<'_> {
        JobBuilder {
            rt: self,
            attrs: TaskAttrs::default(),
            hints: Vec::new(),
            deadline: None,
        }
    }

    /// Attribute-aware submission shared by [`Runtime::submit`] and
    /// [`JobBuilder`]: admission at the priority's band, lane chosen by
    /// the resolved affinity (falling back to the submitter hash).
    fn submit_with<F, R>(
        &self,
        attrs: TaskAttrs,
        hints: &[Access],
        deadline: Option<Instant>,
        f: F,
    ) -> Result<JoinHandle<R>, SubmitError>
    where
        F: for<'s> FnOnce(&mut Ctx<'s>) -> R + Send + 'static,
        R: Send + 'static,
    {
        // Every submission gets a cancel token (caller-provided or fresh) so
        // the returned handle always supports [`JoinHandle::cancel`]; the
        // token is inherited by every task the job spawns.
        let token = attrs.cancel.clone().unwrap_or_default();
        // Admission-time shedding: a job whose deadline already passed never
        // consumes a slot (drain-time expiry is handled inside the job).
        if deadline.is_some_and(|d| Instant::now() >= d) {
            self.inner.inject.note_expired();
            return Err(SubmitError::Expired);
        }
        let state = Arc::new(JoinState::new());
        if let Some(widx) = current_worker_of(&self.inner) {
            // Worker context: run inline (a queued job could deadlock a
            // 1-worker pool whose only worker then waits on the handle).
            self.inner.inject.note_inline_submit();
            if token.is_cancelled() {
                crate::stats::WorkerStats::bump(&self.inner.workers[widx].stats.tasks_cancelled, 1);
                state.complete(Some(&self.inner), Err(Box::new(SubmitError::Cancelled)));
            } else {
                let mut raw = RawCtx::new(&self.inner, widx);
                // Safety: `token` outlives `raw`.
                unsafe { raw.set_cancel(Some(&token)) };
                let r = raw.run_scoped_catch(f);
                state.complete(Some(&self.inner), r);
            }
            return Ok(JoinHandle::new(state, &self.inner, Some(token)));
        }
        let admission = self.inner.inject.admit(attrs.band())?;
        let lane = attrs
            .resolve_node(hints, self.inner.inject.lanes())
            .unwrap_or_else(|| self.inner.inject.lane_of_submitter());
        let mut job = make_job(Arc::clone(&state), Some(token.clone()), deadline, f);
        job.band = attrs.band();
        if self.inner.telemetry.enabled() {
            job.submit_tick = crate::telemetry::tick();
        }
        self.inner.inject.push(admission, lane, attrs.band(), job);
        self.inner.notify_work(Near::Node(lane), 1);
        Ok(JoinHandle::new(state, &self.inner, Some(token)))
    }

    /// Run `f` with a task context, blocking until every task spawned inside
    /// (transitively) has completed. Panics raised by tasks are propagated
    /// after all siblings finished. Because the caller outlives the root,
    /// the closure may borrow from the caller's stack (no `'static` bound
    /// — the rayon-style scope contract).
    ///
    /// The root runs on the **calling thread**. Called on a worker of
    /// this pool, it runs inline with a fresh frame. Called from outside
    /// the pool while a worker is parked, the caller takes that worker's
    /// seat and runs the root as that worker — its lane, frames, trace
    /// lane and statistics — while the worker stays asleep; other workers
    /// steal from the caller as from any worker. At most W threads run
    /// tasks either way. A panic unwinds on the caller.
    ///
    /// Only when no worker is parked (every one is busy or searching)
    /// does the root become an inject job that the caller blocks on,
    /// admitted at the Normal band. Admission then always *blocks*: a
    /// scope is never rejected, even under [`crate::OnFull::Reject`].
    /// Each external scope counts once in `jobs_submitted`, whichever way
    /// it ran.
    pub fn scope<'scope, F, R>(&self, f: F) -> R
    where
        F: FnOnce(&mut Ctx<'scope>) -> R + Send,
        R: Send,
    {
        if let Some(widx) = current_worker_of(&self.inner) {
            // Already on a worker of this pool: run inline with a fresh frame.
            let mut raw = RawCtx::new(&self.inner, widx);
            return raw.run_scoped(f);
        }
        if let Some(seat) = self.inner.park_lot.lend() {
            self.inner.inject.note_inline_submit();
            return match run_on_seat(&self.inner, seat, f) {
                Ok(v) => v,
                Err(p) => std::panic::resume_unwind(p),
            };
        }
        let state = Arc::new(JoinState::<R>::new());
        let st = Arc::clone(&state);
        let job_fn = move |raw: &mut RawCtx| {
            let r = raw.run_scoped_catch(f);
            st.complete(Some(&raw.rt), r);
        };
        // Safety: lifetime erasure of the job closure; the caller blocks on
        // the join state until the job has run to completion, so every
        // borrow the closure captures outlives its execution (rayon-style
        // scope). The erased `Arc<JoinState<R>>` the job holds is only
        // dropped (never dereferenced into `R`) after completion.
        let boxed: Box<dyn FnOnce(&mut RawCtx) + Send> = Box::new(job_fn);
        let boxed: Box<dyn FnOnce(&mut RawCtx) + Send + 'static> =
            unsafe { std::mem::transmute(boxed) };
        let admission = self.inner.inject.admit_blocking(NORMAL_BAND);
        let lane = self.inner.inject.lane_of_submitter();
        let mut job = Job::new(boxed);
        if self.inner.telemetry.enabled() {
            job.submit_tick = crate::telemetry::tick();
        }
        self.inner.inject.push(admission, lane, NORMAL_BAND, job);
        self.inner.notify_work(Near::Node(lane), 1);
        state.wait_blocking();
        match state
            .take_result()
            .expect("scope job did not report a result")
        {
            Ok(v) => v,
            Err(p) => std::panic::resume_unwind(p),
        }
    }

    /// Parallel loop over `range` applying `body` to every index.
    /// See [`Ctx::foreach`] for the adaptive scheduling description.
    pub fn foreach<F>(&self, range: std::ops::Range<usize>, body: F)
    where
        F: Fn(usize) + Sync,
    {
        self.scope(|ctx| ctx.foreach(range, &body));
    }

    /// Parallel loop handing out whole chunks (`grain: None` = automatic).
    pub fn foreach_chunks<F>(&self, range: std::ops::Range<usize>, grain: Option<usize>, body: F)
    where
        F: Fn(std::ops::Range<usize>) + Sync,
    {
        self.scope(|ctx| ctx.foreach_chunks(range, grain, &body));
    }

    /// Parallel reduction over `range`.
    pub fn foreach_reduce<T, ID, FOLD, COMB>(
        &self,
        range: std::ops::Range<usize>,
        grain: Option<usize>,
        identity: ID,
        fold: FOLD,
        combine: COMB,
    ) -> T
    where
        T: Send,
        ID: Fn() -> T + Sync,
        FOLD: Fn(&mut T, usize) + Sync,
        COMB: Fn(T, T) -> T + Send + Sync,
    {
        self.scope(|ctx| ctx.foreach_reduce(range, grain, &identity, &fold, &combine))
    }

    /// Aggregated scheduler statistics since construction (or last reset).
    /// `jobs_submitted` / `jobs_rejected` come from the injection layer's
    /// global counters (submissions happen on external threads), the rest
    /// from the per-worker counters; `latency` carries the telemetry
    /// histograms' per-band quantiles (zeros while tracing is off). One
    /// merge path (`RtInner::collect_stats`) feeds this and
    /// [`Runtime::metrics`]. As a side effect the per-worker event rings
    /// are drained into the accumulated trace session
    /// ([`Runtime::take_trace`]).
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.telemetry.drain(&self.inner.tele_refs());
        self.inner.collect_stats()
    }

    /// The unified metrics registry (`DESIGN.md` §9): every counter of
    /// [`Runtime::stats`] by name, per-lane inject gauges, telemetry
    /// event/drop counts and the per-band latency quantiles, all built
    /// from the same merge path as the snapshot. Serialize with
    /// [`MetricsRegistry::to_json`].
    pub fn metrics(&self) -> MetricsRegistry {
        let snap = self.stats();
        let mut m = MetricsRegistry::new();
        for (name, v) in snap.pairs() {
            m.counter(name, v);
        }
        for (node, l) in self.inject_lane_stats().iter().enumerate() {
            m.gauge(format!("inject_lane{node}_submitted"), l.submitted);
            m.gauge(format!("inject_lane{node}_drained"), l.drained);
        }
        let tele = self.inner.tele_refs();
        m.gauge(
            "trace_events_recorded",
            self.inner.telemetry.events_recorded(&tele),
        );
        m.gauge(
            "trace_events_dropped",
            self.inner.telemetry.events_dropped(&tele),
        );
        for (b, band) in ["high", "normal", "low"].iter().enumerate() {
            m.histogram(
                format!("submit_to_start_{band}"),
                snap.latency.submit_to_start[b],
            );
            m.histogram(
                format!("start_to_done_{band}"),
                snap.latency.start_to_done[b],
            );
        }
        m
    }

    /// Flip the telemetry layer on or off live (one relaxed store; spans
    /// already in flight may lose their begin or end half — the trace
    /// consumers tolerate unbalanced spans).
    pub fn set_tracing(&self, on: bool) {
        self.inner.telemetry.set_enabled(on);
    }

    /// Is the telemetry layer currently recording?
    pub fn tracing_enabled(&self) -> bool {
        self.inner.telemetry.enabled()
    }

    /// Drain every worker's event ring and move the accumulated trace
    /// session out: one nanosecond-stamped timeline per worker plus the
    /// ring-overflow drop count. Export with
    /// [`TraceSession::to_chrome_trace`] for Perfetto. A second call
    /// starts from an empty session.
    pub fn take_trace(&self) -> TraceSession {
        self.inner.telemetry.take_session(&self.inner.tele_refs())
    }

    /// Reset all statistics counters (per-worker, injection-layer, and
    /// the telemetry rings/histograms/session). Exact only while the pool
    /// is quiescent: a join running concurrently may restore its worker's
    /// pre-reset `tasks_spawned` / `tasks_executed_own`.
    pub fn reset_stats(&self) {
        stats::reset_all(self.inner.workers.iter().map(|w| &w.stats));
        self.inner.inject.reset_counters();
        self.inner.telemetry.reset(&self.inner.tele_refs());
    }

    /// Number of inject lanes (one per NUMA node of the topology).
    pub fn inject_lane_count(&self) -> usize {
        self.inner.inject.lanes()
    }

    /// Per-lane injection counters (`submitted`/`drained` per NUMA-node
    /// lane), indexed by node id. The bench harnesses report these next to
    /// the aggregate `inject_own_lane` / `inject_remote_lane` worker
    /// counters.
    pub fn inject_lane_stats(&self) -> Vec<InjectLaneStats> {
        self.inner.inject.lane_stats()
    }

    /// The tunables this runtime was built with.
    pub fn tunables(&self) -> Tunables {
        self.inner.tun
    }

    /// Name of the queue-layer policy in effect.
    pub fn queue_name(&self) -> &'static str {
        self.inner.queue.name()
    }

    /// Name of the steal-layer policy in effect.
    pub fn steal_policy_name(&self) -> &'static str {
        self.inner.steal_pol.name()
    }

    /// The machine topology this runtime schedules against (detected or
    /// injected via [`Builder::topology`]).
    pub fn topology(&self) -> &Topology {
        &self.inner.topo
    }

    /// Graceful shutdown: wait up to `timeout` for every queued root job to
    /// drain, then stop the workers (consuming the runtime, like `drop`).
    ///
    /// Returns `true` when the inject lanes drained inside the window,
    /// `false` when the timeout elapsed first — in which case still-queued
    /// jobs are abandoned exactly as a plain `drop` would abandon them
    /// (their [`JoinHandle`]s never complete). Jobs already *running* on a
    /// worker finish either way: workers only observe the shutdown flag
    /// between tasks.
    pub fn shutdown_timeout(self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut drained = !self.inner.inject.has_pending_hint();
        while !drained && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
            drained = !self.inner.inject.has_pending_hint();
        }
        drop(self);
        drained
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.park_lot.wake_all();
        let threads = std::mem::take(&mut *self.inner.threads.lock());
        for t in threads {
            let _ = t.join();
        }
        // Final telemetry drain: every ring's tail events land in the
        // accumulated session (worker threads are gone, so the producer
        // side is quiescent). Only observable through an outstanding
        // `Arc<RtInner>` clone (e.g. a worker-held trace consumer).
        self.inner.telemetry.drain(&self.inner.tele_refs());
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("workers", &self.num_workers())
            .field("queue", &self.queue_name())
            .field("steal", &self.steal_policy_name())
            .finish()
    }
}

/// Builder for an attribute-carrying **root job** — the injection-layer
/// twin of [`TaskBuilder`](crate::TaskBuilder), started with
/// [`Runtime::task`].
///
/// Access declarations on a root job ([`JobBuilder::reads`] /
/// [`JobBuilder::writes`] / [`JobBuilder::access`]) are *affinity hints*:
/// a root job computes its real dependencies inside its own scope, but
/// [`Affinity::Auto`] uses the hints' handle homes to pick the inject lane
/// of the node owning the data, so workers of that node (which drain their
/// own lane first) start the job. [`Priority`] selects the admission band
/// (low is shed before high at the cap) and the lane's drain band.
#[must_use = "a JobBuilder does nothing until .submit(f) or .detach(f)"]
pub struct JobBuilder<'rt> {
    rt: &'rt Runtime,
    attrs: TaskAttrs,
    hints: Vec<Access>,
    deadline: Option<Duration>,
}

impl<'rt> JobBuilder<'rt> {
    /// Set the priority band.
    pub fn priority(mut self, p: Priority) -> Self {
        self.attrs.priority = p;
        self
    }

    /// Set the data-affinity request.
    pub fn affinity(mut self, a: Affinity) -> Self {
        self.attrs.affinity = a;
        self
    }

    /// Attach a caller-owned cancellation token (cancelling it cancels the
    /// job's whole cone; see [`CancelToken`]). Without this call the job
    /// still gets a fresh token, reachable via
    /// [`JoinHandle::cancel_token`](crate::JoinHandle::cancel_token).
    pub fn cancel_token(mut self, t: &CancelToken) -> Self {
        self.attrs.cancel = Some(t.clone());
        self
    }

    /// Admission deadline, measured from the `submit` call: a job still
    /// *queued* when the deadline passes is shed at drain time (its handle
    /// completes with [`SubmitError::Expired`]), and a job already expired
    /// at submission is shed immediately. A job that *started* before the
    /// deadline runs to completion — this bounds queueing delay, not
    /// execution time (`DESIGN.md` §8).
    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Affinity hint: the job will read `h` (steers [`Affinity::Auto`]
    /// toward the handle's home node).
    pub fn reads<T: ?Sized>(mut self, h: &Shared<T>) -> Self {
        self.hints.push(h.read());
        self
    }

    /// Affinity hint: the job will write `h` (writing hints outrank
    /// reading ones for [`Affinity::Auto`]).
    pub fn writes<T: ?Sized>(mut self, h: &Shared<T>) -> Self {
        self.hints.push(h.write());
        self
    }

    /// Affinity hint: the job will overwrite the [`Partitioned`] handle.
    pub fn writes_all<T: Send>(mut self, p: &Partitioned<T>) -> Self {
        self.hints.push(p.write_all());
        self
    }

    /// Affinity hint from an explicit access descriptor.
    pub fn access(mut self, a: Access) -> Self {
        self.hints.push(a);
        self
    }

    /// Submit the job and return its [`JoinHandle`] without waiting (the
    /// attribute-carrying [`Runtime::submit`]). Admission follows the
    /// runtime's [`InjectPolicy`] at this builder's priority band.
    pub fn submit<F, R>(self, f: F) -> Result<JoinHandle<R>, SubmitError>
    where
        F: for<'s> FnOnce(&mut Ctx<'s>) -> R + Send + 'static,
        R: Send + 'static,
    {
        let deadline = self.deadline.map(|d| Instant::now() + d);
        self.rt.submit_with(self.attrs, &self.hints, deadline, f)
    }

    /// Submit the job fire-and-forget: no handle, the job still runs to
    /// completion (dropping a [`JoinHandle`] never cancels).
    pub fn detach<F, R>(self, f: F) -> Result<(), SubmitError>
    where
        F: for<'s> FnOnce(&mut Ctx<'s>) -> R + Send + 'static,
        R: Send + 'static,
    {
        self.submit(f).map(drop)
    }
}
