//! QUARK's own scheduler: dependence analysis at insertion time and a
//! *centralized* ready list all workers pull from.
//!
//! This reproduces the design of "QUARK Users' Guide: QUeueing And Runtime
//! for Kernels" (YarKhan, Kurzak, Dongarra, ICL-UT-11-02) that PLASMA used
//! on multicore: a master thread inserts tasks in sequential order; data
//! hazards (RAW/WAR/WAW on argument addresses) become graph edges; tasks
//! whose predecessor count reaches zero go to one global, mutex-protected
//! ready queue. The global queue is the scalability bottleneck the paper's
//! Fig. 2 exposes at fine tile sizes, so this implementation keeps it
//! faithfully central — including the task *window* that throttles
//! insertion, and priority tasks pushed to the queue's front.

use crate::{DepMode, QuarkDep};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// QUARK's centralized ready list behind [`CentralPool`]'s scheduler: one
/// global mutex-protected deque, priority pushes to the front, a condvar
/// for parked workers and a lock-operation counter (the contention
/// indicator reported next to Fig. 2).
pub struct CentralReadyList<T> {
    ready: Mutex<VecDeque<T>>,
    ready_cv: Condvar,
    ops: AtomicUsize,
}

impl<T> Default for CentralReadyList<T> {
    fn default() -> Self {
        CentralReadyList::new()
    }
}

impl<T> CentralReadyList<T> {
    /// Empty ready list.
    pub fn new() -> CentralReadyList<T> {
        CentralReadyList {
            ready: Mutex::new(VecDeque::new()),
            ready_cv: Condvar::new(),
            ops: AtomicUsize::new(0),
        }
    }

    /// Publish a ready item; `priority` puts it at the front (QUARK's
    /// priority flag). One lock acquisition, one wake-up.
    pub fn push(&self, item: T, priority: bool) {
        self.ops.fetch_add(1, Ordering::Relaxed);
        let mut q = self.ready.lock();
        if priority {
            q.push_front(item);
        } else {
            q.push_back(item);
        }
        self.ready_cv.notify_one();
    }

    /// Take the head item. One lock acquisition.
    pub fn pop(&self) -> Option<T> {
        self.ops.fetch_add(1, Ordering::Relaxed);
        self.ready.lock().pop_front()
    }

    /// Block up to `timeout` while the list is empty and `alive` holds.
    pub fn wait_for_work(&self, timeout: Duration, alive: impl Fn() -> bool) {
        let mut q = self.ready.lock();
        if q.is_empty() && alive() {
            self.ready_cv.wait_for(&mut q, timeout);
        }
    }

    /// Wake every parked worker (shutdown).
    pub fn notify_all(&self) {
        let _g = self.ready.lock();
        self.ready_cv.notify_all();
    }

    /// Racy emptiness snapshot.
    pub fn is_empty(&self) -> bool {
        self.ready.lock().is_empty()
    }

    /// Lock acquisitions so far (contention indicator).
    pub fn ops(&self) -> usize {
        self.ops.load(Ordering::Relaxed)
    }
}

pub(crate) type TaskClosure = Box<dyn FnOnce(usize) + Send>;

struct Node {
    f: Mutex<Option<TaskClosure>>,
    npred: AtomicUsize,
    succ: Mutex<Vec<usize>>,
    done: AtomicBool,
    priority: bool,
}

struct LastAccess {
    last_writer: Option<usize>,
    readers: Vec<usize>,
}

pub(crate) struct CentralState {
    nodes: Mutex<Vec<Arc<Node>>>,
    /// The centralized ready list — the contention point under study.
    ready: CentralReadyList<usize>,
    /// address/key -> last access, for insertion-time dependence analysis.
    tracks: Mutex<HashMap<u64, LastAccess>>,
    inserted: AtomicUsize,
    completed: AtomicUsize,
    inflight_cv: Condvar,
    inflight_mx: Mutex<()>,
    window: usize,
    shutdown: AtomicBool,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// The centralized-scheduler pool (QUARK's own design).
pub struct CentralPool {
    state: Arc<CentralState>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl CentralPool {
    /// `n` worker threads and an insertion window of `window` in-flight
    /// tasks (insertion blocks beyond it, as QUARK does to bound memory).
    pub fn new(n: usize, window: usize) -> CentralPool {
        assert!(n >= 1 && window >= 1);
        let state = Arc::new(CentralState {
            nodes: Mutex::new(Vec::new()),
            ready: CentralReadyList::new(),
            tracks: Mutex::new(HashMap::new()),
            inserted: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            inflight_cv: Condvar::new(),
            inflight_mx: Mutex::new(()),
            window,
            shutdown: AtomicBool::new(false),
            panic: Mutex::new(None),
        });
        let mut threads = Vec::new();
        for i in 0..n {
            let st = Arc::clone(&state);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("quark-{i}"))
                    .spawn(move || worker_main(st, i))
                    .unwrap(),
            );
        }
        CentralPool { state, threads }
    }

    pub(crate) fn state(&self) -> &Arc<CentralState> {
        &self.state
    }

    /// Ready-queue lock acquisitions so far (contention indicator).
    pub fn queue_ops(&self) -> usize {
        self.state.ready.ops()
    }
}

impl Drop for CentralPool {
    fn drop(&mut self) {
        self.state.shutdown.store(true, Ordering::Release);
        self.state.ready.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl CentralState {
    /// Insert a task (sequential master thread). Blocks while the window is
    /// full. Dependence analysis per QUARK: INPUT depends on the last
    /// writer; OUTPUT/INOUT depend on the last writer and all readers since.
    pub(crate) fn insert(&self, deps: &[QuarkDep], priority: bool, f: TaskClosure) {
        // Window throttle.
        {
            let mut g = self.inflight_mx.lock();
            while self.inserted.load(Ordering::Acquire) - self.completed.load(Ordering::Acquire)
                >= self.window
            {
                self.inflight_cv.wait(&mut g);
            }
        }

        let mut nodes = self.nodes.lock();
        let id = nodes.len();
        let node = Arc::new(Node {
            f: Mutex::new(Some(f)),
            npred: AtomicUsize::new(0),
            succ: Mutex::new(Vec::new()),
            done: AtomicBool::new(false),
            priority,
        });

        let mut preds: Vec<usize> = Vec::new();
        {
            let mut tracks = self.tracks.lock();
            for d in deps {
                let e = tracks.entry(d.key).or_insert(LastAccess {
                    last_writer: None,
                    readers: Vec::new(),
                });
                match d.mode {
                    DepMode::Input => {
                        preds.extend(e.last_writer);
                        e.readers.push(id);
                    }
                    DepMode::Output | DepMode::Inout => {
                        preds.extend(e.last_writer);
                        preds.extend(e.readers.iter().copied());
                        e.last_writer = Some(id);
                        e.readers.clear();
                    }
                    DepMode::Value | DepMode::Scratch => {}
                }
            }
        }
        preds.sort_unstable();
        preds.dedup();

        let mut npred = 0;
        for p in preds {
            // An edge counts only while the predecessor is incomplete; we
            // hold the nodes lock so completion of `p` cannot race the edge
            // registration (completions also take the nodes lock).
            let pn = &nodes[p];
            if !pn.done.load(Ordering::Acquire) {
                pn.succ.lock().push(id);
                npred += 1;
            }
        }
        node.npred.store(npred, Ordering::Release);
        nodes.push(Arc::clone(&node));
        self.inserted.fetch_add(1, Ordering::AcqRel);
        drop(nodes);

        if npred == 0 {
            self.push_ready(id, priority);
        }
    }

    fn push_ready(&self, id: usize, priority: bool) {
        self.ready.push(id, priority);
    }

    pub(crate) fn pop_ready(&self) -> Option<usize> {
        self.ready.pop()
    }

    /// Execute one ready task; returns false if none was available.
    pub(crate) fn execute_one(&self, widx: usize) -> bool {
        let Some(id) = self.pop_ready() else {
            return false;
        };
        let node = Arc::clone(&self.nodes.lock()[id]);
        let f = node.f.lock().take().expect("quark task executed twice");
        if let Err(p) = catch_unwind(AssertUnwindSafe(|| f(widx))) {
            let mut slot = self.panic.lock();
            if slot.is_none() {
                *slot = Some(p);
            }
        }
        // Completion: mark, release successors.
        let succs = {
            let _nodes = self.nodes.lock();
            node.done.store(true, Ordering::Release);
            std::mem::take(&mut *node.succ.lock())
        };
        for s in succs {
            let sn = Arc::clone(&self.nodes.lock()[s]);
            if sn.npred.fetch_sub(1, Ordering::AcqRel) == 1 {
                self.push_ready(s, sn.priority);
            }
        }
        self.completed.fetch_add(1, Ordering::AcqRel);
        {
            let _g = self.inflight_mx.lock();
            self.inflight_cv.notify_all();
        }
        true
    }

    /// Master-side barrier: help execute until everything inserted completed.
    pub(crate) fn barrier(&self, widx: usize) {
        while self.completed.load(Ordering::Acquire) < self.inserted.load(Ordering::Acquire) {
            if !self.execute_one(widx) {
                std::thread::yield_now();
            }
        }
    }

    pub(crate) fn take_panic(&self) -> Option<Box<dyn std::any::Any + Send>> {
        self.panic.lock().take()
    }

    /// Reset the dependence tracks and graph between sessions.
    pub(crate) fn reset(&self) {
        debug_assert_eq!(
            self.completed.load(Ordering::Acquire),
            self.inserted.load(Ordering::Acquire)
        );
        self.nodes.lock().clear();
        self.tracks.lock().clear();
        self.inserted.store(0, Ordering::Release);
        self.completed.store(0, Ordering::Release);
    }
}

fn worker_main(st: Arc<CentralState>, widx: usize) {
    loop {
        if st.shutdown.load(Ordering::Acquire) {
            return;
        }
        if st.execute_one(widx) {
            continue;
        }
        st.ready.wait_for_work(Duration::from_micros(500), || {
            !st.shutdown.load(Ordering::Acquire)
        });
    }
}
