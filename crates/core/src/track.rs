//! Heterogeneous execution tracks (`DESIGN.md` §10): engines with
//! different execution properties sitting beside the CPU worker pool.
//!
//! The data-flow core computes *when* a task may run; a track decides
//! *where and how*. [`Track::Cpu`](crate::attrs::Track) is today's worker
//! pool (wrapped as [`CpuTrack`] for uniformity). [`OffloadEngine`] models
//! an accelerator the way GPU frame-graph runtimes type their passes:
//! explicit H2D/D2H transfer steps synthesized per handle access (first
//! device use uploads, written handles download at commit), a batched
//! kernel-launch queue paying a configurable launch latency per batch,
//! a bounded number of in-flight batches, and an asynchronous completion
//! stream. [`IoEngine`] runs bodies that block on external events on a
//! small dedicated thread set so they never occupy a CPU worker.
//!
//! The load-bearing inversion: an offloaded task's successors become
//! ready when its **completion drains**, not when its body returns. The
//! engine never runs user code — it models the device timeline on its own
//! thread, then injects a completion job through the existing inject
//! lanes; a CPU worker drains that job, runs the body, and only then
//! publishes the task's completion into the frame (releasing the
//! version-chain successors). Cancellation and panic poisoning therefore
//! cross the track boundary through the exact machinery of §8: the
//! completion job re-checks the token, and a fault at the launch boundary
//! poisons every task of the batch *before* any completion publishes.
//!
//! Track threads are not workers: they own no T.H.E. deque, no steal
//! `Request` node and no worker telemetry ring. Code that executes on
//! them runs under a *detached* [`RawCtx`] (syncs spin-wait instead of
//! stealing, fork-joins and loops run inline) and emits to the track's own
//! telemetry lane via the thread-local registered in
//! [`crate::telemetry::set_track_lane`].

use crate::access::HandleId;
use crate::attrs::{Track, NORMAL_BAND, PRIORITY_BANDS};
use crate::ctx::{complete_and_publish, run_claimed_body, RawCtx};
use crate::frame::Frame;
use crate::runtime::{Job, RtInner};
use crate::stats::WorkerStats;
use crate::task::Task;
use crate::telemetry::{self, EventKind, WorkerTelemetry};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::Duration;

/// How long engine threads sleep between shutdown-flag checks while idle.
const IDLE_WAIT: Duration = Duration::from_millis(5);

// ---------------------------------------------------------------------------
// Tunables

/// Configuration of the non-CPU tracks (`Tunables::offload`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OffloadTunables {
    /// Modelled kernel-launch latency paid once per batch, in µs
    /// (`XKAAPI_OFFLOAD_LATENCY_US`).
    pub launch_latency_us: u64,
    /// Maximum tasks fused into one kernel launch.
    pub batch: usize,
    /// Maximum launched-but-undrained batches the device pipelines.
    pub max_inflight: usize,
    /// Modelled cost of one H2D/D2H transfer step, in µs (0 = stamp the
    /// transfer events but pay nothing).
    pub transfer_cost_us: u64,
    /// Dedicated blocking-I/O threads (`XKAAPI_IO_THREADS`).
    pub io_threads: usize,
}

impl Default for OffloadTunables {
    fn default() -> OffloadTunables {
        OffloadTunables {
            launch_latency_us: 20,
            batch: 8,
            max_inflight: 4,
            transfer_cost_us: 0,
            io_threads: 2,
        }
    }
}

// ---------------------------------------------------------------------------
// The track abstraction

/// A dataflow-ready task handed to a track engine. The engine owns the
/// claim: it (or a completion job it emits) must eventually run or skip
/// the body and publish the completion into the frame.
pub struct ReadyTask {
    pub(crate) frame: Arc<Frame>,
    pub(crate) idx: usize,
    pub(crate) task: Arc<Task>,
}

/// An execution engine tasks can be routed to by [`Track`] attribute.
///
/// `submit_ready` receives tasks whose dependencies are satisfied;
/// `poll_completions` drains any pending completion records back into
/// dataflow readiness and returns how many it drained; `quiesce` blocks
/// until every submitted task's completion has retired. `quiesce` (and
/// `poll_completions` for [`OffloadEngine`]) must be called from outside
/// the worker pool: completions retire on CPU workers.
pub trait TrackEngine: Send + Sync {
    /// Short stable name (also the engine's Perfetto lane prefix).
    fn name(&self) -> &'static str;
    /// Accept a dependency-satisfied task for execution on this engine.
    fn submit_ready(&self, t: ReadyTask);
    /// Push pending completion records toward the pool; returns drained.
    fn poll_completions(&self) -> usize;
    /// Block until every submitted task has fully retired.
    fn quiesce(&self);
}

/// Route a ready task to its engine. Returns `false` when the task should
/// execute inline on the CPU (the default track, a track thread running
/// nested work, or a runtime already shutting down).
#[inline]
pub(crate) fn dispatch(
    rt: &Arc<RtInner>,
    widx: usize,
    frame: &Arc<Frame>,
    idx: usize,
    task: &Arc<Task>,
) -> bool {
    if matches!(task.attrs.track, Track::Cpu) {
        return false;
    }
    // Nested track work runs inline on the current track thread (an io
    // task submitting another io task must not wait for its own thread),
    // and a draining runtime stops feeding its engines.
    if telemetry::on_track_thread() || rt.shutdown.load(Ordering::Acquire) {
        return false;
    }
    let ready = ReadyTask {
        frame: Arc::clone(frame),
        idx,
        task: Arc::clone(task),
    };
    match task.attrs.track {
        Track::Cpu => unreachable!(),
        Track::Offload => {
            WorkerStats::bump(&rt.workers[widx].stats.tasks_offloaded, 1);
            rt.tracks.offload.submit_ready(ready);
        }
        Track::Io => {
            rt.tracks.io.submit_ready(ready);
        }
    }
    true
}

// ---------------------------------------------------------------------------
// CpuTrack: the worker pool, wearing the trait

/// The existing CPU worker pool wrapped as a [`TrackEngine`]: submission
/// executes inline (the pool's readiness hand-off *is* its queue), so
/// completions are always already drained.
pub struct CpuTrack {
    rt: OnceLock<Weak<RtInner>>,
}

impl CpuTrack {
    fn new() -> CpuTrack {
        CpuTrack {
            rt: OnceLock::new(),
        }
    }
}

impl TrackEngine for CpuTrack {
    fn name(&self) -> &'static str {
        "cpu"
    }

    fn submit_ready(&self, t: ReadyTask) {
        let Some(rt) = self.rt.get().and_then(Weak::upgrade) else {
            return;
        };
        let widx = crate::worker::current_worker_of(&rt).unwrap_or(0);
        run_claimed_body(&rt, widx, &t.frame, t.idx, t.task);
    }

    fn poll_completions(&self) -> usize {
        0
    }

    fn quiesce(&self) {}
}

// ---------------------------------------------------------------------------
// OffloadEngine: the modelled accelerator

struct Completion {
    t: ReadyTask,
    /// The launch boundary faulted: the failure is already recorded in
    /// the frame; the completion job skips the body and publishes.
    prefailed: bool,
    /// Tasks of this batch whose completion has not yet retired; the last
    /// one frees the batch's in-flight slot.
    remaining: Arc<AtomicUsize>,
}

struct OffloadShared {
    queue: VecDeque<ReadyTask>,
    /// Handles already uploaded to the modelled device (first use pays
    /// the H2D step, later uses hit device memory).
    resident: HashSet<HandleId>,
    completions: VecDeque<Completion>,
    /// Launched batches whose completions have not all retired.
    inflight: usize,
    submitted: u64,
    retired: u64,
    shutdown: bool,
}

/// The modelled accelerator engine (`Track::Offload`).
///
/// One device thread batches submitted tasks into kernel launches:
/// per batch it synthesizes H2D transfer steps for handles not yet
/// device-resident, pays the launch latency, synthesizes D2H steps for
/// written handles (commit-on-completion download), then emits one
/// completion record per task. Completions are injected as root jobs; a
/// CPU worker drains each, runs the task body, and publishes into the
/// frame — the successor-release point. At most `max_inflight` batches
/// may be launched-but-undrained; the device stalls beyond that.
pub struct OffloadEngine {
    tun: OffloadTunables,
    state: Mutex<OffloadShared>,
    cv: Condvar,
    pub(crate) tele: WorkerTelemetry,
    pub(crate) stats: WorkerStats,
    rt: OnceLock<Weak<RtInner>>,
}

impl OffloadEngine {
    fn new(tun: OffloadTunables) -> OffloadEngine {
        OffloadEngine {
            tun,
            state: Mutex::new(OffloadShared {
                queue: VecDeque::new(),
                resident: HashSet::new(),
                completions: VecDeque::new(),
                inflight: 0,
                submitted: 0,
                retired: 0,
                shutdown: false,
            }),
            cv: Condvar::new(),
            tele: WorkerTelemetry::new(),
            stats: WorkerStats::default(),
            rt: OnceLock::new(),
        }
    }

    /// One H2D (`dir == 0`) or D2H (`dir == 1`) transfer step: a traced
    /// span (the direction rides the event's band field) plus the
    /// modelled cost.
    fn transfer(&self, tracing: bool, dir: u8, handle: u32) {
        if tracing {
            self.tele
                .emit(telemetry::tick(), EventKind::TransferB, dir, handle);
        }
        if self.tun.transfer_cost_us > 0 {
            std::thread::sleep(Duration::from_micros(self.tun.transfer_cost_us));
        }
        if tracing {
            self.tele
                .emit(telemetry::tick(), EventKind::TransferE, dir, handle);
        }
    }

    /// Model one kernel launch for `batch` on the device thread.
    fn run_batch(&self, rt: &Arc<RtInner>, batch: Vec<ReadyTask>) {
        let tracing = rt.telemetry.enabled();

        // Launch-boundary fault hook (chaos testing): a planned panic
        // here poisons the whole batch — the device "lost" the launch —
        // but completions still flow, so the cone drains poisoned
        // instead of hanging.
        #[cfg_attr(not(feature = "fault-injection"), allow(unused_mut))]
        let mut fault: Option<Box<dyn std::any::Any + Send>> = None;
        #[cfg(feature = "fault-injection")]
        if let Err(p) = catch_unwind(AssertUnwindSafe(|| crate::fault::on_task_execute(rt))) {
            fault = Some(p);
        }

        // H2D: first device use of a handle uploads it.
        let uploads: Vec<HandleId> = {
            let mut st = self.state.lock();
            batch
                .iter()
                .flat_map(|r| r.task.accesses.iter())
                .filter(|a| st.resident.insert(a.handle))
                .map(|a| a.handle)
                .collect()
        };
        for h in &uploads {
            self.transfer(tracing, 0, h.0 as u32);
        }
        WorkerStats::bump(&self.stats.offload_h2d, uploads.len() as u64);

        // The batched kernel launch itself.
        if tracing {
            self.tele.emit(
                telemetry::tick(),
                EventKind::LaunchB,
                NORMAL_BAND,
                batch.len() as u32,
            );
        }
        if self.tun.launch_latency_us > 0 {
            std::thread::sleep(Duration::from_micros(self.tun.launch_latency_us));
        }
        if tracing {
            self.tele.emit(
                telemetry::tick(),
                EventKind::LaunchE,
                NORMAL_BAND,
                batch.len() as u32,
            );
        }
        WorkerStats::bump(&self.stats.offload_batches, 1);

        let prefailed = fault.is_some();
        if let Some(p) = fault {
            // Poison-before-complete (`DESIGN.md` §8): record the failure
            // in every affected frame before any completion publishes.
            if tracing {
                self.tele.emit(
                    telemetry::tick(),
                    EventKind::Panic,
                    NORMAL_BAND,
                    batch.len() as u32,
                );
            }
            WorkerStats::bump(&self.stats.tasks_panicked, 1);
            let mut payload = Some(p);
            for r in &batch {
                r.frame.mark_failed(r.idx);
                let p = payload
                    .take()
                    .unwrap_or_else(|| Box::new("offload launch fault"));
                r.frame.set_panic(p);
            }
        }

        // D2H: commit-on-completion download of every written handle
        // (it stays resident — the device copy is still current).
        let downloads: Vec<HandleId> = batch
            .iter()
            .flat_map(|r| r.task.accesses.iter())
            .filter(|a| a.mode.writes())
            .map(|a| a.handle)
            .collect();
        for h in &downloads {
            self.transfer(tracing, 1, h.0 as u32);
        }
        WorkerStats::bump(&self.stats.offload_d2h, downloads.len() as u64);

        // Emit one completion record per task of the batch.
        let remaining = Arc::new(AtomicUsize::new(batch.len()));
        if tracing {
            for r in &batch {
                self.tele.emit(
                    telemetry::tick(),
                    EventKind::OffloadComplete,
                    NORMAL_BAND,
                    r.idx as u32,
                );
            }
        }
        let mut st = self.state.lock();
        for t in batch {
            st.completions.push_back(Completion {
                t,
                prefailed,
                remaining: Arc::clone(&remaining),
            });
        }
    }

    /// Inject every pending completion record as a root job. The drained
    /// job runs the task body on a CPU worker and publishes into the
    /// frame — *this* is where successors of an offloaded task become
    /// ready. Returns how many records were flushed.
    fn flush(&self, rt: &Arc<RtInner>) -> usize {
        let mut n = 0;
        loop {
            let c = {
                let mut st = self.state.lock();
                if st.shutdown {
                    // Teardown: undrained completions are dropped. Their
                    // claimed tasks never publish — acceptable, nothing
                    // can be waiting on them once the pool is gone.
                    return n;
                }
                st.completions.pop_front()
            };
            let Some(c) = c else { break };
            if !self.inject_completion(rt, c) {
                return n;
            }
            n += 1;
        }
        if n > 0 {
            rt.signal_work();
        }
        n
    }

    /// Returns `false` when teardown raced the injection (the record is
    /// dropped, never published).
    fn inject_completion(&self, rt: &Arc<RtInner>, c: Completion) -> bool {
        let Completion {
            t: ReadyTask { frame, idx, task },
            prefailed,
            remaining,
        } = c;
        // The closure runs inside `try_drain_inject`, which runs jobs
        // bare: it must never unwind. `run_claimed_body` catches
        // internally; the prefailed arm only drops the unused body.
        let run = Box::new(move |raw: &mut RawCtx| {
            let rt: &Arc<RtInner> = &raw.rt;
            let widx = raw.widx;
            if prefailed {
                let _ = catch_unwind(AssertUnwindSafe(|| drop(task.take_body())));
                WorkerStats::bump(&rt.workers[widx].stats.tasks_poisoned, 1);
                complete_and_publish(rt, widx, &frame, idx, &task);
            } else {
                run_claimed_body(rt, widx, &frame, idx, Arc::clone(&task));
            }
            let eng = &rt.tracks.offload;
            WorkerStats::bump(&eng.stats.offload_completions, 1);
            let mut st = eng.state.lock();
            st.retired += 1;
            if remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last completion of the batch: free its in-flight slot.
                st.inflight = st.inflight.saturating_sub(1);
            }
            drop(st);
            eng.cv.notify_all();
        });
        let mut job = Job::new(run);
        // Stamped at injection: the drainer's submit→start histogram for
        // the Normal band therefore *is* the completion-drain latency.
        if rt.telemetry.enabled() {
            job.submit_tick = telemetry::tick();
        }
        // Shutdown-aware admission: `admit_blocking` could strand the
        // device thread forever once the workers (the only drainers) are
        // gone, so poll instead and bail out at teardown.
        let adm = loop {
            if let Some(a) = rt.inject.try_admit(NORMAL_BAND) {
                break a;
            }
            if self.state.lock().shutdown || rt.shutdown.load(Ordering::Acquire) {
                return false; // dropped at teardown, like queued inject jobs
            }
            rt.signal_work();
            std::thread::sleep(Duration::from_micros(200));
        };
        let lane = rt.inject.lane_of_submitter();
        rt.inject.push(adm, lane, NORMAL_BAND, job);
        true
    }

    fn upgrade(&self) -> Option<Arc<RtInner>> {
        self.rt.get().and_then(Weak::upgrade)
    }
}

impl TrackEngine for OffloadEngine {
    fn name(&self) -> &'static str {
        "offload"
    }

    fn submit_ready(&self, t: ReadyTask) {
        let mut st = self.state.lock();
        st.submitted += 1;
        st.queue.push_back(t);
        drop(st);
        self.cv.notify_all();
    }

    fn poll_completions(&self) -> usize {
        match self.upgrade() {
            Some(rt) => self.flush(&rt),
            None => 0,
        }
    }

    fn quiesce(&self) {
        let mut st = self.state.lock();
        while !(st.shutdown
            || st.retired >= st.submitted
                && st.queue.is_empty()
                && st.completions.is_empty()
                && st.inflight == 0)
        {
            self.cv.wait_for(&mut st, IDLE_WAIT);
        }
    }
}

/// The device thread: batch, launch, flush, repeat.
fn offload_main(rt: Arc<RtInner>) {
    let eng = &rt.tracks.offload;
    telemetry::set_track_lane(&eng.tele);
    loop {
        let batch: Vec<ReadyTask> = {
            let mut st = eng.state.lock();
            loop {
                if st.shutdown {
                    return;
                }
                if !st.queue.is_empty() && st.inflight < eng.tun.max_inflight.max(1) {
                    break;
                }
                eng.cv.wait_for(&mut st, IDLE_WAIT);
            }
            let n = eng.tun.batch.max(1).min(st.queue.len());
            st.inflight += 1;
            st.queue.drain(..n).collect()
        };
        eng.run_batch(&rt, batch);
        eng.flush(&rt);
    }
}

// ---------------------------------------------------------------------------
// IoEngine: the dedicated blocking thread set

enum IoWork {
    /// A dataflow task routed by `Track::Io`.
    Task(ReadyTask),
    /// A root job routed by `JobBuilder::track(Io)` / `wait_external`.
    Job(Job),
}

struct IoShared {
    queue: VecDeque<IoWork>,
    submitted: u64,
    retired: u64,
    shutdown: bool,
}

/// The blocking-I/O engine (`Track::Io`): a small dedicated thread set
/// that runs bodies which block on external events, so a blocked body
/// never occupies a CPU worker. Bodies run under a detached context —
/// children they spawn are ordinary stealable CPU tasks.
pub struct IoEngine {
    nthreads: usize,
    nworkers: usize,
    state: Mutex<IoShared>,
    cv: Condvar,
    pub(crate) tele: Box<[WorkerTelemetry]>,
    pub(crate) stats: WorkerStats,
    rt: OnceLock<Weak<RtInner>>,
}

impl IoEngine {
    fn new(nthreads: usize, nworkers: usize) -> IoEngine {
        let nthreads = nthreads.max(1);
        IoEngine {
            nthreads,
            nworkers: nworkers.max(1),
            state: Mutex::new(IoShared {
                queue: VecDeque::new(),
                submitted: 0,
                retired: 0,
                shutdown: false,
            }),
            cv: Condvar::new(),
            tele: (0..nthreads).map(|_| WorkerTelemetry::new()).collect(),
            stats: WorkerStats::default(),
            rt: OnceLock::new(),
        }
    }

    fn enqueue(&self, w: IoWork) {
        let mut st = self.state.lock();
        st.submitted += 1;
        st.queue.push_back(w);
        drop(st);
        self.cv.notify_all();
    }

    /// Route a root job (`JobBuilder::wait_external`) to the io threads.
    /// Unlike lane submissions this queue is unbounded: blocking jobs
    /// must not consume admission slots sized for CPU throughput.
    pub(crate) fn submit_job(&self, job: Job) {
        self.enqueue(IoWork::Job(job));
    }
}

impl TrackEngine for IoEngine {
    fn name(&self) -> &'static str {
        "io"
    }

    fn submit_ready(&self, t: ReadyTask) {
        self.enqueue(IoWork::Task(t));
    }

    fn poll_completions(&self) -> usize {
        // Io completions publish directly from the io thread; there is
        // no deferred stream to drain.
        0
    }

    fn quiesce(&self) {
        let mut st = self.state.lock();
        while st.retired < st.submitted && !st.shutdown {
            self.cv.wait_for(&mut st, IDLE_WAIT);
        }
    }
}

/// One io thread: pop blocking work, run it detached, account it.
fn io_main(rt: Arc<RtInner>, k: usize) {
    let eng = &rt.tracks.io;
    telemetry::set_track_lane(&eng.tele[k]);
    // Borrowed worker identity for frame registration and NUMA lookups;
    // spread across the pool so detached frames don't pile on worker 0.
    let widx = k % eng.nworkers.min(rt.num_workers()).max(1);
    loop {
        let w = {
            let mut st = eng.state.lock();
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(w) = st.queue.pop_front() {
                    break w;
                }
                eng.cv.wait_for(&mut st, IDLE_WAIT);
            }
        };
        let tracing = rt.telemetry.enabled();
        let tele = &eng.tele[k];
        if tracing {
            tele.emit(
                telemetry::tick(),
                EventKind::IoBlockB,
                NORMAL_BAND,
                k as u32,
            );
        }
        // Counted before the body runs: the body completes its task or
        // handle, and whoever observes that completion must also see the
        // count.
        WorkerStats::bump(&eng.stats.tasks_io, 1);
        match w {
            IoWork::Task(t) => {
                run_claimed_body(&rt, widx, &t.frame, t.idx, t.task);
            }
            IoWork::Job(job) => {
                let mut raw = RawCtx::new(&rt, widx);
                if tracing {
                    let band = job.band.min(PRIORITY_BANDS as u8 - 1);
                    let t0 = telemetry::tick();
                    if job.submit_tick != 0 {
                        tele.submit_to_start[band as usize]
                            .record(t0.saturating_sub(job.submit_tick));
                    }
                    tele.emit(t0, EventKind::JobBegin, band, k as u32);
                    (job.run)(&mut raw);
                    let t1 = telemetry::tick();
                    tele.emit(t1, EventKind::JobEnd, band, k as u32);
                    tele.start_to_done[band as usize].record(t1.saturating_sub(t0));
                } else {
                    (job.run)(&mut raw);
                }
            }
        }
        if tracing {
            tele.emit(
                telemetry::tick(),
                EventKind::IoBlockE,
                NORMAL_BAND,
                k as u32,
            );
        }
        let mut st = eng.state.lock();
        st.retired += 1;
        drop(st);
        eng.cv.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Aggregate

/// All track engines of one runtime plus their thread handles.
pub(crate) struct Tracks {
    pub(crate) cpu: CpuTrack,
    pub(crate) offload: OffloadEngine,
    pub(crate) io: IoEngine,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Tracks {
    pub(crate) fn new(tun: OffloadTunables, nworkers: usize) -> Tracks {
        Tracks {
            cpu: CpuTrack::new(),
            offload: OffloadEngine::new(tun),
            io: IoEngine::new(tun.io_threads, nworkers),
            threads: Mutex::new(Vec::new()),
        }
    }

    /// Perfetto lane names for the track threads, in the order
    /// [`Tracks::tele_refs`] yields their bundles (appended after the
    /// worker lanes).
    pub(crate) fn lane_names(&self) -> Vec<String> {
        let mut v = Vec::with_capacity(1 + self.io.nthreads);
        v.push("offload".to_string());
        for k in 0..self.io.nthreads {
            v.push(format!("io-{k}"));
        }
        v
    }

    /// Track telemetry bundles, parallel to [`Tracks::lane_names`].
    pub(crate) fn tele_refs(&self) -> impl Iterator<Item = &WorkerTelemetry> {
        std::iter::once(&self.offload.tele).chain(self.io.tele.iter())
    }

    /// Track stats bundles (merged into the single stats path).
    pub(crate) fn stats_refs(&self) -> impl Iterator<Item = &WorkerStats> {
        [&self.offload.stats, &self.io.stats].into_iter()
    }

    /// Attach the runtime and spawn the engine threads. Called once,
    /// right after `Arc::new(RtInner)`.
    pub(crate) fn start(&self, inner: &Arc<RtInner>) {
        let _ = self.cpu.rt.set(Arc::downgrade(inner));
        let _ = self.offload.rt.set(Arc::downgrade(inner));
        let _ = self.io.rt.set(Arc::downgrade(inner));
        let mut threads = self.threads.lock();
        {
            let rt = Arc::clone(inner);
            threads.push(
                std::thread::Builder::new()
                    .name("xkaapi-offload".into())
                    .spawn(move || offload_main(rt))
                    .expect("spawn offload engine thread"),
            );
        }
        for k in 0..self.io.nthreads {
            let rt = Arc::clone(inner);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("xkaapi-io-{k}"))
                    .spawn(move || io_main(rt, k))
                    .expect("spawn io engine thread"),
            );
        }
    }

    /// Stop and join every engine thread (runtime teardown, after the CPU
    /// workers have been joined). Queued-but-unstarted track work is
    /// dropped, like still-queued inject jobs on a plain `drop`.
    pub(crate) fn stop(&self) {
        {
            let mut st = self.offload.state.lock();
            st.shutdown = true;
        }
        self.offload.cv.notify_all();
        {
            let mut st = self.io.state.lock();
            st.shutdown = true;
        }
        self.io.cv.notify_all();
        for t in self.threads.lock().drain(..) {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tunable_defaults() {
        let t = OffloadTunables::default();
        assert_eq!(t.launch_latency_us, 20);
        assert_eq!(t.batch, 8);
        assert_eq!(t.max_inflight, 4);
        assert_eq!(t.transfer_cost_us, 0);
        assert_eq!(t.io_threads, 2);
    }

    #[test]
    fn lane_names_parallel_tele_refs() {
        let tracks = Tracks::new(OffloadTunables::default(), 4);
        let names = tracks.lane_names();
        assert_eq!(names[0], "offload");
        assert_eq!(names[1], "io-0");
        assert_eq!(names[2], "io-1");
        assert_eq!(names.len(), tracks.tele_refs().count());
    }

    #[test]
    fn engine_names() {
        let tracks = Tracks::new(OffloadTunables::default(), 1);
        assert_eq!(tracks.cpu.name(), "cpu");
        assert_eq!(tracks.offload.name(), "offload");
        assert_eq!(tracks.io.name(), "io");
    }
}
