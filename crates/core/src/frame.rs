//! Frames: per-parent task sequences over the versioned data-flow core,
//! with promotion to per-task readiness.
//!
//! A frame holds the children one task (or one scope) spawned, in program
//! order. *Binding* a task into the frame's [`DataflowEngine`] (version
//! chains, see [`crate::dataflow`]) records its predecessor set and its
//! version-slot routing once, and every thief-side strategy reads that
//! single source of truth:
//!
//! * the owner executes FIFO without consulting dependencies at all
//!   (work-first: program order is always valid), so a frame binds
//!   nothing until a thief scans it, a push needs slot routing or a task
//!   fails; then it binds its unbound prefix, and every later push at
//!   push time (`DESIGN.md` §2, "Lazy binding");
//! * while the frame is unpromoted, a thief proves a task ready with an
//!   incremental check — every recorded predecessor completed — under the
//!   frame lock;
//! * when steal scans become frequent the frame is *promoted*: every task
//!   gets a countdown of its live predecessors and links into their
//!   successor cells ([`crate::task`]), and from then on readiness moves
//!   with the tasks, not through the frame. A completion seals its cell and
//!   counts its successors down; a task whose count reaches zero, or that
//!   is pushed or promoted with no live predecessor, is *released* onto
//!   the ready list of the worker that released it (`crate::worker`), or
//!   into the shared queue under a centralized one. Thieves take work from
//!   those lists and never lock the frame — the paper's "accelerating data
//!   structure for steal operations".
//!
//! After promotion only the owner's push (binding), the release of renamed
//! version slots and `mark_failed` take the frame lock.

use crate::access::Access;
use crate::attrs::{NORMAL_BAND, PRIORITY_BANDS};
use crate::dataflow::DataflowEngine;
use crate::policy::RenamePolicy;
use crate::task::{task_arc, Task, ST_DONE, ST_INIT, ST_STOLEN};
use parking_lot::Mutex;
use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Knobs controlling promotion to per-task readiness; part of the runtime
/// tunables so ablation benchmarks can disable the optimisation.
#[derive(Clone, Copy, Debug)]
pub struct PromotionPolicy {
    /// Promote when a steal scan visits a frame with at least this many tasks.
    pub promote_len: usize,
    /// Promote after this many steal scans of the same frame.
    pub promote_scans: usize,
    /// Master switch; `false` keeps scan-based steals forever.
    pub enabled: bool,
}

impl Default for PromotionPolicy {
    fn default() -> Self {
        PromotionPolicy {
            promote_len: 16,
            promote_scans: 4,
            enabled: true,
        }
    }
}

struct FrameInner {
    tasks: Vec<Arc<Task>>,
    /// The single dependency implementation every mode reads: version
    /// chains, predecessor sets, slot routing. It covers the bound prefix
    /// `tasks[..engine.len()]`: every task once `bind_at_push` is set.
    engine: DataflowEngine,
    /// Set, with the prefix bound, by the first scan, routed push or
    /// failure: the frame binds at push from then on.
    bind_at_push: bool,
    /// Any pushed task outside the default priority band? When false the
    /// scan path stays single-pass (the hot default); when true scans run
    /// one pass per band, highest first.
    banded: bool,
    /// Per-task failure record (panicked, or poisoned by a failed
    /// predecessor). Lazily sized: stays empty until the first failure, so
    /// the push fast path never touches it.
    failed: Vec<bool>,
}

impl FrameInner {
    /// Bind every task not bound yet, in program order, and bind at push
    /// from now on. Returns the tasks with declared accesses it bound (for
    /// `dataflow_pushes`) and the renamed accesses. Only a task its push has
    /// just appended can need routing, so no other task's binding (which
    /// its owner may be reading) is written.
    fn bind_prefix(&mut self, rename: &RenamePolicy) -> (u32, u32) {
        self.bind_at_push = true;
        let (mut bound, mut renames) = (0, 0);
        let n = self.tasks.len();
        for (i, t) in self.tasks.iter().enumerate().skip(self.engine.len()) {
            let b = self.engine.bind(&t.accesses, rename);
            bound += u32::from(!t.accesses.is_empty());
            renames += b.renames;
            if !b.slots.is_empty() {
                debug_assert_eq!(i + 1, n, "an unbound task needed routing");
                // Safety: the pushing owner holds the frame lock, which
                // publishes the task with its binding.
                unsafe { t.set_binding(b.slots) };
            }
        }
        (bound, renames)
    }
}

/// What `Frame::push` tells the caller.
pub(crate) struct PushOutcome {
    /// Frame index of the pushed task.
    pub(crate) idx: usize,
    /// Tasks with declared accesses the push bound (`bind_prefix`).
    pub(crate) bound: u32,
    /// Accesses of the task that were renamed (fresh version slots).
    pub(crate) renames: u32,
    /// The frame is promoted: readiness travels through releases.
    pub(crate) promoted: bool,
    /// The push released the task (promoted, no live predecessor): the
    /// caller must put it on a ready list.
    pub(crate) released: bool,
}

/// What `Frame::complete_task` tells the caller. The frame must not be
/// touched after that call: the completion may have been its last.
pub(crate) struct Completion {
    /// The frame was promoted (successors, if any, were released).
    pub(crate) promoted: bool,
    /// Tasks of the frame not completed yet.
    pub(crate) left: usize,
}

/// A frame: the ordered children of one parent task (or scope).
pub(crate) struct Frame {
    inner: Mutex<FrameInner>,
    /// The worker whose contexts push into this frame (frames are pooled
    /// per worker, so this never changes). A task of the frame run by any
    /// other worker counts as stolen.
    owner: usize,
    /// Mirror of `inner.tasks.len()` readable without the lock.
    len: AtomicUsize,
    /// Tasks created minus tasks completed.
    pending: AtomicUsize,
    /// Owner's FIFO position; only the owner advances it.
    cursor: AtomicUsize,
    /// Set (under the lock, `SeqCst`) when the frame has been promoted.
    graph_on: AtomicBool,
    /// Steal scans observed, for the promotion heuristic.
    scans: AtomicUsize,
    /// Lock-free "a panic is recorded" hint (fast path of `take_panic`).
    has_panic: AtomicBool,
    /// First panic raised by a child, rethrown at the owner's sync.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Lock-free "some task failed" hint: the fast path of
    /// `has_failed_pred`, so the un-poisoned common case stays one relaxed
    /// load per executed task.
    any_failed: AtomicBool,
}

impl Frame {
    /// A frame whose tasks worker `owner` pushes.
    pub(crate) fn new(owner: usize) -> Arc<Frame> {
        Arc::new(Frame {
            inner: Mutex::new(FrameInner {
                tasks: Vec::new(),
                engine: DataflowEngine::new(),
                bind_at_push: false,
                banded: false,
                failed: Vec::new(),
            }),
            owner,
            len: AtomicUsize::new(0),
            pending: AtomicUsize::new(0),
            cursor: AtomicUsize::new(0),
            graph_on: AtomicBool::new(false),
            scans: AtomicUsize::new(0),
            has_panic: AtomicBool::new(false),
            panic: Mutex::new(None),
            any_failed: AtomicBool::new(false),
        })
    }

    /// The worker that owns this frame.
    #[inline]
    pub(crate) fn owner(&self) -> usize {
        self.owner
    }

    /// Number of pushed tasks (racy snapshot).
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    #[inline]
    pub(crate) fn pending(&self) -> usize {
        self.pending.load(Ordering::Acquire)
    }

    /// Has the frame been promoted to per-task readiness?
    #[inline]
    pub(crate) fn promoted(&self) -> bool {
        self.graph_on.load(Ordering::Acquire)
    }

    /// Owner FIFO cursor.
    #[inline]
    pub(crate) fn cursor(&self) -> usize {
        self.cursor.load(Ordering::Relaxed)
    }

    #[inline]
    pub(crate) fn advance_cursor(&self) {
        self.cursor.fetch_add(1, Ordering::Relaxed);
    }

    /// Owner only: skip the FIFO cursor past all tasks (they are all done).
    #[inline]
    pub(crate) fn skip_cursor_to_len(&self) {
        self.cursor
            .store(self.len.load(Ordering::Acquire), Ordering::Relaxed);
    }

    /// Append a task (owner only) and publish it. A frame that binds at
    /// push, or a task whose accesses need slot routing, binds its unbound
    /// prefix and the task. In a promoted frame the task also links behind
    /// its live predecessors; `released` says the caller must release it.
    pub(crate) fn push(&self, task: &Arc<Task>, rename: &RenamePolicy) -> PushOutcome {
        self.pending.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock();
        let idx = inner.tasks.len();
        // Safety: the task only becomes reachable by claimants through
        // `tasks`, once the frame lock is released.
        unsafe { task.set_home(self, idx) };
        inner.tasks.push(Arc::clone(task));
        // A renameable write, or a handle whose data sits in a version slot
        // an earlier scope committed, needs slot routing: bind at once.
        let routed = |a: &Access| a.can_rename() || a.lineage != 0;
        let (mut bound, mut renames) = (0, 0);
        if inner.bind_at_push || task.accesses.iter().any(routed) {
            (bound, renames) = inner.bind_prefix(rename);
        }
        if task.band() != NORMAL_BAND {
            inner.banded = true;
        }
        // Promotion happens under this lock, so the flag is stable here.
        let promoted = self.graph_on.load(Ordering::Relaxed);
        if promoted {
            for &p in inner.engine.preds(idx) {
                inner.tasks[p as usize].succ.link(task);
            }
        }
        self.len.store(idx + 1, Ordering::Release);
        drop(inner);
        // Drop the link guard only now that the task is fully published.
        let released = promoted && task.count_down();
        PushOutcome {
            idx,
            bound,
            renames,
            promoted,
            released,
        }
    }

    /// Clone of the task at `idx`.
    #[cfg(test)]
    pub(crate) fn task(&self, idx: usize) -> Arc<Task> {
        Arc::clone(&self.inner.lock().tasks[idx])
    }

    /// Clone every task from `start` to the current end into `out` under
    /// one lock acquisition. The owner's sync loop batches its task lookups
    /// through this instead of paying one frame lock per task; indices are
    /// stable (the tasks Vec is append-only until `reset`).
    pub(crate) fn tasks_from(&self, start: usize, out: &mut Vec<Arc<Task>>) {
        let inner = self.inner.lock();
        out.extend(inner.tasks[start.min(inner.tasks.len())..].iter().cloned());
    }

    /// Record the completion of `task` (claimant side, after the task's
    /// `complete()`). A task holding renamed version slots releases them
    /// under the frame lock. In a promoted frame the task then seals its
    /// successor cell and counts its successors down, handing each one
    /// that became ready to `release` — no frame lock (and none held while
    /// `release` lists tasks). The frame must not be touched after this
    /// returns: `pending` drops last, and the owner may then finish and
    /// recycle the frame.
    pub(crate) fn complete_task(
        &self,
        task: &Task,
        mut release: impl FnMut(Arc<Task>),
    ) -> Completion {
        if task.binding().iter().any(|b| b.slot != 0) {
            self.inner.lock().engine.complete(task.idx());
        }
        // SeqCst pairs with the promotion's `graph_on` store: either this
        // load sees the flag, or the promoter saw this task done and
        // sealed its cell itself (see `promote`).
        let promoted = self.graph_on.load(Ordering::SeqCst);
        if promoted {
            for &s in task.succ.seal().as_slice() {
                // Safety: a successor is not complete before its count
                // reached zero, and it is held by `tasks` until `reset`.
                let s = unsafe { s.as_ref() };
                if s.count_down() {
                    release(unsafe { task_arc(s.into()) });
                }
            }
        }
        let left = self.pending.fetch_sub(1, Ordering::AcqRel) - 1;
        Completion { promoted, left }
    }

    /// Store the first child panic.
    pub(crate) fn set_panic(&self, p: Box<dyn Any + Send>) {
        let mut slot = self.panic.lock();
        if slot.is_none() {
            *slot = Some(p);
        }
        drop(slot);
        self.has_panic.store(true, Ordering::Release);
    }

    /// Take a recorded panic, if any (lock-free when none was recorded).
    pub(crate) fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        if !self.has_panic.load(Ordering::Acquire) {
            return None;
        }
        self.panic.lock().take()
    }

    /// Record that task `idx` failed: it panicked, or it was
    /// completed-as-failed because a predecessor did (`DESIGN.md` §8).
    ///
    /// Must be called *before* the task's `complete()` so that any claimant
    /// that later observes the task done also observes the failure record
    /// (the SeqCst completion swap orders the two stores).
    /// Binds the frame first, for `has_failed_pred`; returns the tasks with
    /// declared accesses that bound.
    pub(crate) fn mark_failed(&self, idx: usize) -> u32 {
        let mut inner = self.inner.lock();
        let (bound, _) = inner.bind_prefix(&RenamePolicy::default()); // renames nothing
        let n = inner.tasks.len();
        if inner.failed.len() < n {
            inner.failed.resize(n, false);
        }
        inner.failed[idx] = true;
        drop(inner);
        self.any_failed.store(true, Ordering::Release);
        bound
    }

    /// Did any dataflow predecessor of task `idx` fail? The poison check
    /// run before every claimed execution; the healthy fast path is one
    /// relaxed flag load, the poisoned path walks the recorded predecessor
    /// set under the frame lock (bound: `mark_failed` bound the frame).
    pub(crate) fn has_failed_pred(&self, idx: usize) -> bool {
        if !self.any_failed.load(Ordering::Acquire) {
            return false;
        }
        let inner = self.inner.lock();
        inner
            .engine
            .preds(idx)
            .iter()
            .any(|&p| inner.failed.get(p as usize).copied().unwrap_or(false))
    }

    /// Steal scan of an unpromoted frame: claim up to `max` ready tasks
    /// into `out` (cloned under the lock already held, so callers never
    /// re-lock the frame to look a claimed task up again).
    ///
    /// Binds the unbound prefix first (adding its tasks with declared
    /// accesses to `bound`), then applies the promotion policy. A call that
    /// promotes hands every task it finds ready to `release` (unclaimed,
    /// for a ready list) instead, and returns `true`. A promoted frame is
    /// not scanned at all: its ready tasks are on ready lists.
    pub(crate) fn steal_scan(
        &self,
        max: usize,
        policy: &PromotionPolicy,
        bound: &mut u64,
        out: &mut Vec<Arc<Task>>,
        release: impl FnMut(Arc<Task>),
    ) -> bool {
        if max == 0 || self.pending.load(Ordering::Acquire) == 0 || self.promoted() {
            return false;
        }
        let scans = self.scans.fetch_add(1, Ordering::Relaxed) + 1;
        let mut inner = self.inner.lock();
        if self.graph_on.load(Ordering::Relaxed) {
            return false; // promoted while we took the lock
        }
        *bound += u64::from(inner.bind_prefix(&RenamePolicy::default()).0); // renames nothing
        if policy.enabled
            && (inner.tasks.len() >= policy.promote_len || scans >= policy.promote_scans)
        {
            self.promote(&inner, release);
            return true;
        }

        // Scan mode: oldest-first incremental readiness against the version
        // chains — a task is ready when every predecessor the engine
        // recorded for it has completed (the edges promotion links). The
        // band check is hoisted out of the loop: a frame that never saw a
        // non-default band (the hot case) runs one branch-free oldest-first
        // pass; only banded frames pay one pass per band (highest first) so
        // high-priority ready tasks are claimed before low-priority ones.
        let FrameInner {
            tasks,
            engine,
            banded,
            ..
        } = &*inner;
        let n = tasks.len();
        if !*banded {
            for i in 0..n {
                if out.len() >= max {
                    break;
                }
                let t = &tasks[i];
                if t.state() != ST_INIT {
                    continue;
                }
                if !engine.preds(i).iter().all(|&p| tasks[p as usize].is_done()) {
                    continue;
                }
                if t.try_claim(ST_STOLEN) {
                    out.push(Arc::clone(t));
                }
            }
            return false;
        }
        for pass in 0..PRIORITY_BANDS {
            if out.len() >= max {
                break;
            }
            for i in 0..n {
                if out.len() >= max {
                    break;
                }
                let t = &tasks[i];
                if t.band() as usize != pass {
                    continue;
                }
                if t.state() != ST_INIT {
                    continue;
                }
                if !engine.preds(i).iter().all(|&p| tasks[p as usize].is_done()) {
                    continue;
                }
                if t.try_claim(ST_STOLEN) {
                    out.push(Arc::clone(t));
                }
            }
        }
        false
    }

    /// Promote (under the frame lock): switch readiness to the per-task
    /// countdowns and successor cells, and release every task that is
    /// ready now.
    ///
    /// Completions race with this. `graph_on` is stored `SeqCst` before
    /// any task state is read (`SeqCst` too), and a completion swaps its
    /// state `SeqCst` before it loads `graph_on`. So a task read here as
    /// not done will see the flag when it completes, and seal its cell and
    /// count its successors down itself; a task read as done may have
    /// missed the flag, so its cell is sealed here, and nothing links
    /// behind it. Tasks are visited in program order, so a task's
    /// predecessors have been visited (sealed if done) before it links.
    fn promote(&self, inner: &FrameInner, mut release: impl FnMut(Arc<Task>)) {
        self.graph_on.store(true, Ordering::SeqCst);
        let FrameInner { tasks, engine, .. } = inner;
        for (i, t) in tasks.iter().enumerate() {
            match t.state_sc() {
                ST_DONE => {
                    t.succ.seal();
                }
                ST_INIT => {
                    for &p in engine.preds(i) {
                        tasks[p as usize].succ.link(t);
                    }
                    if t.count_down() {
                        release(Arc::clone(t));
                    }
                }
                // Claimed and running: never needs a release; its cell
                // stays open for the tasks that depend on it.
                _ => {}
            }
        }
    }

    /// Reset a quiescent frame for reuse (worker-local frame pool). Caller
    /// guarantees exclusivity (`Arc::strong_count == 1`) and quiescence
    /// (`pending == 0`).
    pub(crate) fn reset(&self) {
        debug_assert_eq!(self.pending.load(Ordering::Relaxed), 0);
        let mut inner = self.inner.lock();
        inner.tasks.clear(); // keeps the Vec capacity
        inner.engine.clear();
        inner.bind_at_push = false;
        inner.banded = false;
        inner.failed.clear();
        drop(inner);
        self.len.store(0, Ordering::Relaxed);
        self.cursor.store(0, Ordering::Relaxed);
        self.graph_on.store(false, Ordering::Relaxed);
        self.scans.store(0, Ordering::Relaxed);
        self.has_panic.store(false, Ordering::Relaxed);
        self.any_failed.store(false, Ordering::Relaxed);
        debug_assert!(self.panic.lock().is_none());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{Access, AccessMode, HandleId, Region};
    use crate::task::{Task, ST_OWNER};

    fn task_with(accs: &[Access]) -> Arc<Task> {
        Arc::new(Task::new(
            Box::new(|_| {}),
            accs.to_vec().into_boxed_slice(),
            crate::attrs::TaskAttrs::default(),
        ))
    }

    /// A frame plus the test's stand-in for a worker's ready list: every
    /// task the frame releases (at promotion, at a push, at a completion)
    /// lands in `ready`, and `scan` claims from it as a thief would.
    struct Probe {
        f: Arc<Frame>,
        ready: std::cell::RefCell<std::collections::VecDeque<Arc<Task>>>,
    }

    impl Probe {
        fn new() -> Probe {
            Probe {
                f: Frame::new(0),
                ready: Default::default(),
            }
        }
    }

    impl std::ops::Deref for Probe {
        type Target = Frame;
        fn deref(&self) -> &Frame {
            &self.f
        }
    }

    fn push_with(f: &Probe, accs: &[Access], rp: &RenamePolicy) {
        let t = task_with(accs);
        if f.f.push(&t, rp).released {
            f.ready.borrow_mut().push_back(t);
        }
    }

    /// Push with default renaming knobs (renaming applies only to accesses
    /// flagged renameable, so plain tests are unaffected).
    fn push(f: &Probe, accs: &[Access]) {
        push_with(f, accs, &RenamePolicy::default());
    }

    fn acc(h: u64, mode: AccessMode) -> Access {
        Access::new(HandleId(h), Region::All, mode)
    }

    /// Steal-scan returning claimed indices only (tests compare index sets;
    /// the carried `Arc<Task>`s are exercised by the engine paths). A
    /// promoted frame's ready tasks are claimed from the probe's ready
    /// list, oldest first, stale entries skipped.
    fn scan(f: &Probe, max: usize, pol: &PromotionPolicy, promos: &mut u64) -> Vec<usize> {
        let mut out = Vec::new();
        let promoted = f.f.steal_scan(max, pol, &mut 0, &mut out, |t| {
            f.ready.borrow_mut().push_back(t)
        });
        *promos += u64::from(promoted);
        let mut ready = f.ready.borrow_mut();
        while out.len() < max {
            let Some(t) = ready.pop_front() else { break };
            if t.try_claim(ST_STOLEN) {
                out.push(t);
            }
        }
        out.into_iter().map(|t| t.idx()).collect()
    }

    #[test]
    fn fifo_indices_in_program_order() {
        let f = Probe::new();
        for _ in 0..4 {
            push(&f, &[]);
        }
        assert_eq!(f.len(), 4);
        assert_eq!(f.pending(), 4);
    }

    #[test]
    fn scan_finds_independent_tasks_ready() {
        let f = Probe::new();
        push(&f, &[]);
        push(&f, &[]);
        let mut promos = 0;
        let out = scan(
            &f,
            8,
            &PromotionPolicy {
                enabled: false,
                ..Default::default()
            },
            &mut promos,
        );
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn scan_respects_raw_dependency() {
        let f = Probe::new();
        let w = acc(9, AccessMode::Write);
        let r = acc(9, AccessMode::Read);
        push(&f, &[w]);
        push(&f, &[r]);
        let pol = PromotionPolicy {
            enabled: false,
            ..Default::default()
        };
        let mut promos = 0;
        // only the writer is ready
        assert_eq!(scan(&f, 8, &pol, &mut promos), vec![0]);
        // finish the writer; now the reader becomes ready
        finish(&f, 0);
        assert_eq!(scan(&f, 8, &pol, &mut promos), vec![1]);
    }

    #[test]
    fn readers_run_concurrently_writers_serialize() {
        let f = Probe::new();
        push(&f, &[acc(1, AccessMode::Write)]);
        push(&f, &[acc(1, AccessMode::Read)]);
        push(&f, &[acc(1, AccessMode::Read)]);
        push(&f, &[acc(1, AccessMode::Write)]);
        let pol = PromotionPolicy {
            enabled: false,
            ..Default::default()
        };
        let mut promos = 0;
        assert_eq!(scan(&f, 8, &pol, &mut promos), vec![0]);
        finish(&f, 0);
        // both readers, not the second writer
        assert_eq!(scan(&f, 8, &pol, &mut promos), vec![1, 2]);
    }

    fn finish(f: &Probe, idx: usize) {
        let t = f.task(idx);
        let _ = t.take_body();
        t.complete();
        f.f.complete_task(&t, |s| f.ready.borrow_mut().push_back(s));
    }

    #[test]
    fn promoted_frame_takes_no_frame_lock_to_complete() {
        let pol = PromotionPolicy {
            promote_len: 1,
            promote_scans: 1,
            enabled: true,
        };
        let f = Probe::new();
        push(&f, &[acc(1, AccessMode::Write)]);
        push(&f, &[acc(1, AccessMode::Read)]);
        let mut promos = 0;
        assert_eq!(scan(&f, 8, &pol, &mut promos), vec![0]);
        let t0 = f.task(0);
        let _ = t0.take_body();
        t0.complete();
        // Complete on another thread while this one holds the frame lock.
        let guard = f.inner.lock();
        let (tx, rx) = std::sync::mpsc::channel();
        let (frame, task) = (Arc::clone(&f.f), Arc::clone(&t0));
        let h = std::thread::spawn(move || {
            let mut released = Vec::new();
            let done = frame.complete_task(&task, |s| released.push(s.idx()));
            tx.send((done.promoted, done.left, released)).unwrap();
        });
        let got = rx.recv_timeout(std::time::Duration::from_secs(30));
        drop(guard);
        h.join().unwrap();
        let got = got.expect("a promoted completion waited for the frame lock");
        assert_eq!(got, (true, 1, vec![1]), "task 1 released, no lock taken");
    }

    #[test]
    fn promotion_builds_equivalent_ready_set() {
        let pol = PromotionPolicy {
            promote_len: 1,
            promote_scans: 1,
            enabled: true,
        };
        let f = Probe::new();
        push(&f, &[acc(1, AccessMode::Write)]);
        push(&f, &[acc(1, AccessMode::Read)]);
        push(&f, &[acc(2, AccessMode::Write)]);
        let mut promos = 0;
        let mut out = scan(&f, 8, &pol, &mut promos);
        assert_eq!(promos, 1);
        assert!(f.promoted());
        out.sort_unstable();
        assert_eq!(out, vec![0, 2]); // h1 writer + h2 writer; reader blocked
        finish(&f, 0);
        finish(&f, 2);
        assert_eq!(scan(&f, 8, &pol, &mut promos), vec![1]);
        assert_eq!(promos, 1); // promoted once only
    }

    #[test]
    fn promotion_accounts_already_done_tasks() {
        let pol = PromotionPolicy {
            promote_len: 1,
            promote_scans: 1,
            enabled: true,
        };
        let f = Probe::new();
        push(&f, &[acc(1, AccessMode::Write)]);
        push(&f, &[acc(1, AccessMode::Read)]);
        // Owner runs task 0 before any steal.
        assert!(f.task(0).try_claim(ST_OWNER));
        finish(&f, 0);
        let mut promos = 0;
        // reader ready because writer already done
        assert_eq!(scan(&f, 8, &pol, &mut promos), vec![1]);
    }

    #[test]
    fn graph_mode_incremental_push() {
        let pol = PromotionPolicy {
            promote_len: 1,
            promote_scans: 1,
            enabled: true,
        };
        let f = Probe::new();
        push(&f, &[acc(1, AccessMode::Write)]);
        let mut promos = 0;
        // max=0: no-op (pending>0, but max==0 short-circuits)
        assert!(scan(&f, 0, &pol, &mut promos).is_empty());
        assert_eq!(scan(&f, 8, &pol, &mut promos), vec![0]);
        // push after promotion: dependency on in-flight task 0
        push(&f, &[acc(1, AccessMode::Read)]);
        assert!(scan(&f, 8, &pol, &mut promos).is_empty());
        finish(&f, 0);
        assert_eq!(scan(&f, 8, &pol, &mut promos), vec![1]);
    }

    #[test]
    fn cumulative_writes_commute() {
        let pol = PromotionPolicy {
            promote_len: 1,
            promote_scans: 1,
            enabled: true,
        };
        let f = Probe::new();
        push(&f, &[acc(3, AccessMode::CumulWrite)]);
        push(&f, &[acc(3, AccessMode::CumulWrite)]);
        push(&f, &[acc(3, AccessMode::Read)]);
        let mut promos = 0;
        let mut out = scan(&f, 8, &pol, &mut promos);
        out.sort_unstable();
        assert_eq!(out, vec![0, 1]); // both reductions concurrent, reader waits
        finish(&f, 0);
        finish(&f, 1);
        assert_eq!(scan(&f, 8, &pol, &mut promos), vec![2]);
    }

    #[test]
    fn keyed_regions_independent() {
        let f = Probe::new();
        let p = |i, j, m| Access::new(HandleId(7), Region::key2(i, j), m);
        push(&f, &[p(0, 0, AccessMode::Write)]);
        push(&f, &[p(1, 1, AccessMode::Write)]);
        push(&f, &[p(0, 0, AccessMode::Read), p(1, 1, AccessMode::Write)]);
        for pol in [
            PromotionPolicy {
                enabled: false,
                ..Default::default()
            },
            PromotionPolicy {
                promote_len: 1,
                promote_scans: 1,
                enabled: true,
            },
        ] {
            let f2 = Probe::new();
            push(&f2, &[p(0, 0, AccessMode::Write)]);
            push(&f2, &[p(1, 1, AccessMode::Write)]);
            push(
                &f2,
                &[p(0, 0, AccessMode::Read), p(1, 1, AccessMode::Write)],
            );
            let mut promos = 0;
            let mut out = scan(&f2, 8, &pol, &mut promos);
            out.sort_unstable();
            assert_eq!(out, vec![0, 1], "policy {pol:?}");
        }
        let _ = f;
    }

    #[test]
    fn whole_object_write_orders_after_tiles() {
        let pol = PromotionPolicy {
            promote_len: 1,
            promote_scans: 1,
            enabled: true,
        };
        let f = Probe::new();
        let p = |i, j, m| Access::new(HandleId(7), Region::key2(i, j), m);
        push(&f, &[p(0, 0, AccessMode::Write)]);
        push(
            &f,
            &[Access::new(HandleId(7), Region::All, AccessMode::Write)],
        );
        push(&f, &[p(5, 5, AccessMode::Write)]);
        let mut promos = 0;
        // All-write waits; later tile waits on All-write
        assert_eq!(scan(&f, 8, &pol, &mut promos), vec![0]);
        finish(&f, 0);
        assert_eq!(scan(&f, 8, &pol, &mut promos), vec![1]);
        finish(&f, 1);
        assert_eq!(scan(&f, 8, &pol, &mut promos), vec![2]);
    }

    #[test]
    fn panic_slot_keeps_first() {
        let f = Probe::new();
        f.set_panic(Box::new("first"));
        f.set_panic(Box::new("second"));
        let p = f.take_panic().unwrap();
        assert_eq!(*p.downcast_ref::<&str>().unwrap(), "first");
        assert!(f.take_panic().is_none());
    }

    #[test]
    fn renaming_widens_scan_ready_set() {
        // w r w r: with renaming the second write-only access is renamed,
        // so both writers are ready at once; without it the chain
        // serializes.
        let w = acc(11, AccessMode::Write).with_renaming();
        let r = acc(11, AccessMode::Read);
        let pol = PromotionPolicy {
            enabled: false,
            ..Default::default()
        };
        for (enabled, expect) in [(true, vec![0, 2]), (false, vec![0])] {
            let rp = RenamePolicy {
                enabled,
                ..Default::default()
            };
            let f = Probe::new();
            for a in [w, r, w, r] {
                push_with(&f, &[a], &rp);
            }
            let mut promos = 0;
            let mut out = scan(&f, 8, &pol, &mut promos);
            out.sort_unstable();
            assert_eq!(out, expect, "renaming enabled={enabled}");
        }
    }

    /// Property: scan mode and promoted mode claim identical ready sets on
    /// random access programs, with renaming both on and off — they share
    /// one dependency engine, so they cannot disagree.
    #[test]
    fn scan_and_graph_readiness_agree_on_random_programs() {
        // splitmix64, as in tests/properties.rs (dependency-free).
        struct Rng(u64);
        impl Rng {
            fn next(&mut self) -> u64 {
                self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = self.0;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            }
            fn below(&mut self, n: u64) -> u64 {
                self.next() % n
            }
        }
        let scan_pol = PromotionPolicy {
            enabled: false,
            ..Default::default()
        };
        let graph_pol = PromotionPolicy {
            promote_len: 1,
            promote_scans: 1,
            enabled: true,
        };
        let mut rng = Rng(0x5CA9);
        for case in 0..40 {
            let rp = RenamePolicy {
                enabled: case % 2 == 0,
                max_live_slots: 1 + (case % 5) as u32,
            };
            let ntasks = 1 + rng.below(40) as usize;
            let tasks: Vec<Vec<Access>> = (0..ntasks)
                .map(|_| {
                    (0..1 + rng.below(3))
                        .map(|_| {
                            let h = 1 + rng.below(4);
                            let region = match rng.below(4) {
                                0 => Region::All,
                                1 => Region::key2(rng.below(2) as usize, rng.below(2) as usize),
                                2 => {
                                    let s = rng.below(8) as usize;
                                    Region::Range {
                                        start: s,
                                        end: s + rng.below(8) as usize,
                                    }
                                }
                                _ => Region::All,
                            };
                            let (mode, ren) = match rng.below(5) {
                                0 | 1 => (AccessMode::Read, false),
                                2 => (AccessMode::Write, true),
                                3 => (AccessMode::Exclusive, false),
                                _ => (AccessMode::CumulWrite, false),
                            };
                            let a = Access::new(HandleId(h), region, mode);
                            if ren {
                                a.with_renaming()
                            } else {
                                a
                            }
                        })
                        .collect()
                })
                .collect();
            let fs = Probe::new();
            let fg = Probe::new();
            for accs in &tasks {
                push_with(&fs, accs, &rp);
                push_with(&fg, accs, &rp);
            }
            let mut promos = 0;
            let mut done = 0usize;
            while done < ntasks {
                let mut s = scan(&fs, usize::MAX, &scan_pol, &mut promos);
                let mut g = scan(&fg, usize::MAX, &graph_pol, &mut promos);
                s.sort_unstable();
                g.sort_unstable();
                assert_eq!(s, g, "case {case}: ready sets diverge after {done} done");
                assert!(!s.is_empty(), "case {case}: no progress ({done}/{ntasks})");
                for idx in s {
                    finish(&fs, idx);
                    finish(&fg, idx);
                    done += 1;
                }
            }
        }
    }
}
