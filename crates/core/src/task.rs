//! Task descriptors, the ownership (claim) protocol and the per-task
//! readiness cells of promoted frames.
//!
//! Every spawned task carries an atomic state word. The owner worker claims
//! tasks in FIFO (program) order without consulting their dependencies —
//! the *work-first* principle: a sequential execution order is always valid
//! for the X-Kaapi data-flow model, so the owner's local path pays nothing
//! for readiness. The dependency graph exists for thieves only: a frame
//! binds its tasks into the data-flow engine once a thief looks at it, and
//! then each task once (`crate::frame`). Thieves claim tasks with a
//! compare-and-swap after readiness is proven; the single CAS per task
//! plays the role Cilk's T.H.E. protocol plays on deque indices: owner and
//! thief can never both run a task.
//!
//! Once its frame is promoted, a task also takes part in per-task
//! readiness (`DESIGN.md` §2, "Ready lists"): a **countdown** of its live
//! predecessors, held one above that count while the task is being linked,
//! and a **successor cell** — a small lock, a sealed flag and an inline
//! successor list. A completion seals its own cell before it counts down
//! its successors; a push links into a predecessor's cell only while the
//! cell is unsealed (the protocol of LLVM libomp's `kmp_depnode`). Whoever
//! brings a countdown to zero releases the task onto a ready list.

use crate::access::Access;
use crate::attrs::TaskAttrs;
use crate::ctx::RawCtx;
use crate::dataflow::SlotBinding;
use crate::frame::Frame;
use crate::smallvec::InlineVec;
use crossbeam_utils::Backoff;
use std::cell::UnsafeCell;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use std::sync::Arc;

/// Task has been created and not yet claimed by anyone.
pub(crate) const ST_INIT: u8 = 0;
/// Claimed by the owner worker (FIFO path).
pub(crate) const ST_OWNER: u8 = 1;
/// Claimed by a thief during a steal operation.
pub(crate) const ST_STOLEN: u8 = 2;
/// Execution finished; effects are visible to acquiring readers.
pub(crate) const ST_DONE: u8 = 3;

/// The boxed body of a task. Bodies receive the executing worker's raw
/// context so they can spawn children, sync, or run parallel loops.
pub(crate) type TaskBody = Box<dyn FnOnce(&mut RawCtx) + Send>;

/// A spawned task: state word, one-shot body, declared accesses.
pub(crate) struct Task {
    state: AtomicU8,
    /// Taken exactly once by the claimant; `UnsafeCell` because the claim
    /// CAS is what transfers ownership.
    body: UnsafeCell<Option<TaskBody>>,
    /// Declared accesses; empty for independent (fork-join) tasks.
    pub(crate) accesses: Box<[Access]>,
    /// Scheduling attributes (priority band, data affinity) — immutable
    /// after construction, consumed by the queue/steal/inject layers.
    pub(crate) attrs: TaskAttrs,
    /// Version-slot routing parallel to `accesses`, written at most once,
    /// by a `Frame::push` that binds the task (under the frame lock, before
    /// the task is claimable). A task bound later keeps the all-default
    /// sentinel: it has no access that needs routing.
    binding: UnsafeCell<Box<[SlotBinding]>>,
    /// The frame the task was pushed into, written once by `Frame::push`
    /// (like `binding`). Null until then.
    frame: UnsafeCell<*const Frame>,
    /// The task's index in that frame, written with `frame`.
    idx: UnsafeCell<u32>,
    /// Live predecessors in a promoted frame, plus one while the task is
    /// being linked (the link guard: no completion can release a task
    /// whose linking is not finished). Starts at the guard alone.
    countdown: AtomicU32,
    /// Successors to count down when this task completes.
    pub(crate) succ: SuccCell,
}

// Safety: `body` is only touched by the thread that won the claim CAS,
// `accesses` is immutable after construction, `binding`, `frame` and `idx` are
// written exactly once before the task is published to any other thread
// (the frame lock release in `Frame::push` is the publication fence), and
// the successor list is only touched under its cell's lock.
unsafe impl Send for Task {}
unsafe impl Sync for Task {}

impl Task {
    pub(crate) fn new(body: TaskBody, accesses: Box<[Access]>, attrs: TaskAttrs) -> Task {
        Task {
            state: AtomicU8::new(ST_INIT),
            body: UnsafeCell::new(Some(body)),
            accesses,
            attrs,
            binding: UnsafeCell::new(Box::new([])),
            frame: UnsafeCell::new(std::ptr::null()),
            idx: UnsafeCell::new(0),
            countdown: AtomicU32::new(1),
            succ: SuccCell::new(),
        }
    }

    /// Priority band of this task (0 = high, see [`crate::Priority`]).
    #[inline]
    pub(crate) fn band(&self) -> u8 {
        self.attrs.band()
    }

    /// Target NUMA node this task's affinity resolves to against a
    /// topology with `nodes` nodes (`None` = no preference).
    #[inline]
    pub(crate) fn target_node(&self, nodes: usize) -> Option<usize> {
        self.attrs.resolve_node(&self.accesses, nodes)
    }

    /// Install the slot routing computed by the data-flow engine.
    ///
    /// An **empty** binding is the all-default sentinel: the engine hands
    /// back `Box<[]>` when every access routes to the committed slot with
    /// no renames, so the fast path installs nothing (`Task::new` already
    /// holds the empty box) and readers reconstruct
    /// `SlotBinding::default()` per access. This keeps the defaulted
    /// spawn free of a per-access slot copy and lets
    /// `Frame::complete_task` skip the frame lock (no slots held).
    ///
    /// # Safety
    /// Must be called at most once, before the task becomes reachable by
    /// any other thread (`Frame::push` does so under the frame lock).
    pub(crate) unsafe fn set_binding(&self, b: Box<[SlotBinding]>) {
        unsafe { *self.binding.get() = b };
    }

    /// Slot routing, parallel to `accesses`. Empty for tasks that were
    /// never bound through a frame (fork-join fast-lane jobs) **and** for
    /// bound tasks whose every access is default-routed (the all-default
    /// sentinel — see [`Task::set_binding`]).
    #[inline]
    pub(crate) fn binding(&self) -> &[SlotBinding] {
        // Safety: written once pre-publication; immutable afterwards.
        unsafe { &*self.binding.get() }
    }

    /// Record where the task was pushed.
    ///
    /// # Safety
    /// Same contract as [`Task::set_binding`].
    pub(crate) unsafe fn set_home(&self, frame: &Frame, idx: usize) {
        unsafe {
            *self.frame.get() = frame;
            *self.idx.get() = idx as u32;
        }
    }

    /// Index of the task in its frame (0 for a task never pushed).
    #[inline]
    pub(crate) fn idx(&self) -> usize {
        // Safety: written once pre-publication; immutable afterwards.
        unsafe { *self.idx.get() as usize }
    }

    /// The frame the task was pushed into.
    ///
    /// # Safety
    /// The caller must have claimed the task and not yet completed it
    /// through `Frame::complete_task`: until then the frame's `pending`
    /// count includes the task, so the owner's sync has not returned and
    /// the frame is neither reset nor freed. A task taken from a ready
    /// list must therefore be claimed *before* its frame is touched.
    #[inline]
    pub(crate) unsafe fn frame<'a>(&self) -> &'a Frame {
        unsafe { &**self.frame.get() }
    }

    /// Link guard and countdown: one predecessor (or the guard) is gone.
    /// `true` for the caller that brought the count to zero, which must
    /// release the task. AcqRel: the releaser acquires every counted-down
    /// predecessor's effects through the RMW chain.
    #[inline]
    pub(crate) fn count_down(&self) -> bool {
        self.countdown.fetch_sub(1, Ordering::AcqRel) == 1
    }

    /// Current state (acquire: observing `ST_DONE` also acquires the task's
    /// memory effects).
    #[inline]
    pub(crate) fn state(&self) -> u8 {
        self.state.load(Ordering::Acquire)
    }

    #[inline]
    pub(crate) fn is_done(&self) -> bool {
        self.state() == ST_DONE
    }

    /// Attempt to claim the task for execution as `who` (`ST_OWNER` or
    /// `ST_STOLEN`). Succeeds at most once across all threads.
    #[inline]
    pub(crate) fn try_claim(&self, who: u8) -> bool {
        debug_assert!(who == ST_OWNER || who == ST_STOLEN);
        self.state
            .compare_exchange(ST_INIT, who, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Take the body. Must only be called by the claimant.
    #[inline]
    pub(crate) fn take_body(&self) -> TaskBody {
        debug_assert!(matches!(
            self.state.load(Ordering::Relaxed),
            ST_OWNER | ST_STOLEN
        ));
        // Safety: claim CAS won exactly once; only the claimant calls this.
        unsafe { (*self.body.get()).take().expect("task body taken twice") }
    }

    /// State for the promotion protocol: `SeqCst`, so it is totally
    /// ordered with the frame's `graph_on` store and this task's
    /// completion swap (see `Frame::steal_scan`).
    #[inline]
    pub(crate) fn state_sc(&self) -> u8 {
        self.state.load(Ordering::SeqCst)
    }

    /// Publish completion. `SeqCst` so the completion is totally ordered
    /// with the frame's `graph_on` flag (see `frame.rs` promotion protocol).
    #[inline]
    pub(crate) fn complete(&self) {
        let prev = self.state.swap(ST_DONE, Ordering::SeqCst);
        debug_assert!(prev == ST_OWNER || prev == ST_STOLEN);
    }
}

/// Turn a successor pointer back into an owning handle.
///
/// # Safety
/// `t` must point into a live `Arc<Task>` allocation. A successor taken
/// from a sealed cell is one: its frame's task list holds it until the
/// frame is reset, and the frame cannot be reset before the completion
/// that sealed the cell has been counted out of `pending`.
pub(crate) unsafe fn task_arc(t: NonNull<Task>) -> Arc<Task> {
    unsafe {
        Arc::increment_strong_count(t.as_ptr());
        Arc::from_raw(t.as_ptr())
    }
}

/// Successors a cell keeps inline before it spills to the heap: a task
/// typically feeds one later writer of its output, or many readers.
const INLINE_SUCC: usize = 2;

/// Cell word: the lock bit.
const LOCKED: u8 = 1;
/// Cell word: the task completed and its successor list was taken.
const SEALED: u8 = 2;

/// A task's successor cell: a one-byte spin lock with a sealed flag, and
/// the successors linked so far. Linking and sealing hold the lock for a
/// few instructions.
pub(crate) struct SuccCell {
    word: AtomicU8,
    list: UnsafeCell<InlineVec<NonNull<Task>, INLINE_SUCC>>,
}

impl SuccCell {
    fn new() -> SuccCell {
        SuccCell {
            word: AtomicU8::new(0),
            list: UnsafeCell::new(InlineVec::new()),
        }
    }

    /// Take the lock and OR `bits` into the word; `false` (lock not
    /// taken) when the cell is already sealed.
    fn lock(&self, bits: u8) -> bool {
        let backoff = Backoff::new();
        loop {
            let w = self.word.load(Ordering::Relaxed);
            if w & SEALED != 0 {
                return false;
            }
            if w & LOCKED == 0
                && self
                    .word
                    .compare_exchange_weak(w, LOCKED | bits, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                return true;
            }
            backoff.snooze();
        }
    }

    /// Link `succ` behind this cell's task unless the cell is sealed (the
    /// task completed). A link counts one live predecessor on `succ`
    /// before the lock is released, so the completion that later seals
    /// this cell finds the count it decrements.
    pub(crate) fn link(&self, succ: &Task) -> bool {
        if !self.lock(0) {
            return false;
        }
        succ.countdown.fetch_add(1, Ordering::Relaxed);
        // Safety: the lock is held.
        unsafe { (*self.list.get()).push(NonNull::from(succ)) };
        self.word.store(0, Ordering::Release);
        true
    }

    /// Seal the cell and take its successors (empty when it was sealed
    /// already). After this no push links behind the task.
    pub(crate) fn seal(&self) -> InlineVec<NonNull<Task>, INLINE_SUCC> {
        if !self.lock(SEALED) {
            return InlineVec::new();
        }
        // Safety: the lock is held.
        let list = unsafe { std::mem::take(&mut *self.list.get()) };
        self.word.store(SEALED, Ordering::Release);
        list
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{Access, AccessMode, HandleId, Region};

    fn mk(accesses: &[Access]) -> Task {
        Task::new(
            Box::new(|_| {}),
            accesses.to_vec().into_boxed_slice(),
            TaskAttrs::default(),
        )
    }

    #[test]
    fn claim_is_exclusive() {
        let t = mk(&[]);
        assert!(t.try_claim(ST_OWNER));
        assert!(!t.try_claim(ST_STOLEN));
        assert_eq!(t.state(), ST_OWNER);
        t.complete();
        assert!(t.is_done());
    }

    #[test]
    fn body_runs_once() {
        let t = mk(&[]);
        assert!(t.try_claim(ST_STOLEN));
        let _body = t.take_body();
        t.complete();
    }

    #[test]
    fn concurrent_claims_single_winner() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        for _ in 0..64 {
            let t = Arc::new(mk(&[Access::new(
                HandleId(1),
                Region::All,
                AccessMode::Write,
            )]));
            let wins = Arc::new(AtomicUsize::new(0));
            let hs: Vec<_> = (0..4)
                .map(|i| {
                    let t = Arc::clone(&t);
                    let wins = Arc::clone(&wins);
                    std::thread::spawn(move || {
                        let who = if i % 2 == 0 { ST_OWNER } else { ST_STOLEN };
                        if t.try_claim(who) {
                            wins.fetch_add(1, Ordering::Relaxed);
                        }
                    })
                })
                .collect();
            for h in hs {
                h.join().unwrap();
            }
            assert_eq!(wins.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn sealed_cell_refuses_links_and_counts_down_linked_ones() {
        let (p, s) = (mk(&[]), mk(&[]));
        assert!(p.succ.link(&s), "an unsealed cell links");
        let succs = p.succ.seal();
        assert_eq!(succs.as_slice(), &[NonNull::from(&s)]);
        assert!(!p.succ.link(&s), "a sealed cell refuses");
        assert!(
            p.succ.seal().as_slice().is_empty(),
            "sealing twice is empty"
        );
        // Guard plus one live predecessor: the guard goes first, the
        // predecessor's count-down releases.
        assert!(!s.count_down());
        assert!(s.count_down());
    }
}
