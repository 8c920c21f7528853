//! Task descriptors and the ownership (claim) protocol.
//!
//! Every spawned task carries an atomic state word. The owner worker claims
//! tasks in FIFO (program) order without computing dependencies — the
//! *work-first* principle: a sequential execution order is always valid for
//! the X-Kaapi data-flow model, so the local fast path pays nothing for the
//! data-flow graph. Thieves claim tasks with a compare-and-swap after proving
//! readiness; the single CAS per task plays the role Cilk's T.H.E. protocol
//! plays on deque indices: owner and thief can never both run a task.

use crate::access::Access;
use crate::attrs::TaskAttrs;
use crate::ctx::RawCtx;
use crate::dataflow::SlotBinding;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU8, Ordering};

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
    /// Version-slot routing parallel to `accesses`, written once by
    /// `Frame::push` (under the frame lock, before the task is claimable)
    /// and read-only afterwards.
    binding: UnsafeCell<Box<[SlotBinding]>>,
}

// Safety: `body` is only touched by the thread that won the claim CAS,
// `accesses` is immutable after construction, and `binding` is written
// exactly once before the task is published to any other thread (the frame
// lock release in `Frame::push` is the publication fence).
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

    /// Publish completion. `SeqCst` so the completion is totally ordered
    /// with the frame's `graph_on` flag (see `frame.rs` promotion protocol).
    #[inline]
    pub(crate) fn complete(&self) {
        let prev = self.state.swap(ST_DONE, Ordering::SeqCst);
        debug_assert!(prev == ST_OWNER || prev == ST_STOLEN);
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
}
