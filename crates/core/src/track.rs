//! Execution tracks (`DESIGN.md` §10): the blocking-I/O thread set beside
//! the CPU worker pool.
//!
//! The data-flow core computes *when* a task may run; a track decides
//! *where*. [`Track::Cpu`](crate::attrs::Track) is the worker pool itself:
//! [`dispatch`] leaves those tasks inline. `Track::Io` work goes to the
//! [`IoEngine`], which runs bodies that block on external events on
//! [`IO_THREADS`] dedicated threads so they never occupy a CPU worker. An
//! io task's successors become ready when its io thread publishes the
//! completion into the frame; the owner that dispatched it waits for that
//! (the owner-wait rule in `RawCtx::sync`).
//!
//! Accelerators are modelled in the simulator (`DagPolicy::Offload` in
//! `crates/sim`), where launch latency, batch size and transfer cost are
//! parameters of a study rather than constants of the runtime.
//!
//! Io threads are not workers: they own no T.H.E. deque, no steal
//! `Request` node and no worker telemetry ring. Code that executes on
//! them runs under a *detached* [`RawCtx`] (syncs spin-wait instead of
//! stealing, fork-joins and loops run inline) and emits to the thread's
//! own telemetry lane via the thread-local registered in
//! [`crate::telemetry::set_track_lane`].

use crate::attrs::{Track, NORMAL_BAND, PRIORITY_BANDS};
use crate::ctx::{run_claimed_body, RawCtx};
use crate::frame::Frame;
use crate::runtime::{Job, RtInner};
use crate::stats::WorkerStats;
use crate::task::Task;
use crate::telemetry::{self, EventKind, WorkerTelemetry};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Dedicated blocking-I/O threads.
const IO_THREADS: usize = 2;

/// Route a ready task to the io threads. Returns `false` when the task
/// should execute inline on the CPU (the default track, an io thread
/// running nested work, or a runtime already shutting down). On `true` the
/// io engine owns the claim: an io thread runs or skips the body and
/// publishes the completion into the frame.
#[inline]
pub(crate) fn dispatch(
    rt: &Arc<RtInner>,
    frame: &Arc<Frame>,
    idx: usize,
    task: &Arc<Task>,
) -> bool {
    if matches!(task.attrs.track, Track::Cpu) {
        return false;
    }
    // Nested io work runs inline on the current io thread (an io task
    // submitting another io task must not wait for its own thread), and
    // a draining runtime stops feeding the io threads.
    if telemetry::on_track_thread() || rt.shutdown.load(Ordering::Acquire) {
        return false;
    }
    rt.io.enqueue(IoWork::Task {
        frame: Arc::clone(frame),
        idx,
        task: Arc::clone(task),
    });
    true
}

enum IoWork {
    /// A claimed data-flow task routed by `Track::Io`.
    Task {
        frame: Arc<Frame>,
        idx: usize,
        task: Arc<Task>,
    },
    /// A root job routed by `JobBuilder::track(Io)` / `wait_external`.
    Job(Job),
}

struct IoShared {
    queue: VecDeque<IoWork>,
    shutdown: bool,
}

/// The blocking-I/O engine (`Track::Io`): a small dedicated thread set
/// that runs bodies which block on external events, so a blocked body
/// never occupies a CPU worker. Bodies run under a detached context —
/// children they spawn are ordinary stealable CPU tasks.
pub(crate) struct IoEngine {
    state: Mutex<IoShared>,
    cv: Condvar,
    tele: Box<[WorkerTelemetry]>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl IoEngine {
    pub(crate) fn new() -> IoEngine {
        IoEngine {
            state: Mutex::new(IoShared {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
            tele: (0..IO_THREADS).map(|_| WorkerTelemetry::new()).collect(),
            threads: Mutex::new(Vec::new()),
        }
    }

    fn enqueue(&self, w: IoWork) {
        self.state.lock().queue.push_back(w);
        self.cv.notify_one();
    }

    /// Route a root job (`JobBuilder::wait_external`) to the io threads.
    /// Unlike lane submissions this queue is unbounded: blocking jobs
    /// must not consume admission slots sized for CPU throughput.
    pub(crate) fn submit_job(&self, job: Job) {
        self.enqueue(IoWork::Job(job));
    }

    /// Perfetto lane names for the io threads, in the order
    /// [`IoEngine::tele_refs`] yields their bundles (appended after the
    /// worker lanes).
    pub(crate) fn lane_names(&self) -> impl Iterator<Item = String> {
        (0..IO_THREADS).map(|k| format!("io-{k}"))
    }

    /// Io-thread telemetry bundles, parallel to [`IoEngine::lane_names`].
    pub(crate) fn tele_refs(&self) -> impl Iterator<Item = &WorkerTelemetry> {
        self.tele.iter()
    }

    /// Spawn the io threads. Called once, right after `Arc::new(RtInner)`.
    pub(crate) fn start(&self, inner: &Arc<RtInner>) {
        let mut threads = self.threads.lock();
        for k in 0..IO_THREADS {
            let rt = Arc::clone(inner);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("xkaapi-io-{k}"))
                    .spawn(move || io_main(rt, k))
                    .expect("spawn io thread"),
            );
        }
    }

    /// Stop and join the io threads (runtime teardown, after the CPU
    /// workers have been joined). Queued-but-unstarted io work is dropped,
    /// like still-queued inject jobs on a plain `drop`.
    pub(crate) fn stop(&self) {
        self.state.lock().shutdown = true;
        self.cv.notify_all();
        for t in self.threads.lock().drain(..) {
            let _ = t.join();
        }
    }
}

/// One io thread: sleep until there is work, run it detached, account it.
fn io_main(rt: Arc<RtInner>, k: usize) {
    let eng = &rt.io;
    telemetry::set_track_lane(&eng.tele[k]);
    // Borrowed worker identity for frame registration, stats and NUMA
    // lookups; spread across the pool so detached frames don't pile on
    // worker 0.
    let widx = k % rt.num_workers();
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
                eng.cv.wait(&mut st);
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
        WorkerStats::bump(&rt.workers[widx].stats.tasks_io, 1);
        match w {
            IoWork::Task { frame, idx, task } => {
                run_claimed_body(&rt, widx, &frame, idx, task);
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_names_parallel_tele_refs() {
        let io = IoEngine::new();
        let names: Vec<String> = io.lane_names().collect();
        assert_eq!(names, ["io-0", "io-1"]);
        assert_eq!(names.len(), io.tele_refs().count());
    }
}
