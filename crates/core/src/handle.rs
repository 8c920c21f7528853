//! Shared data handles: the objects data-flow tasks declare accesses on.
//!
//! A [`Shared<T>`] owns one value. Tasks never hold Rust references across
//! suspension points; instead they declare `(handle, region, mode)` triples
//! at spawn time and obtain short-lived references through the task context
//! once the scheduler has guaranteed exclusivity (conflicting tasks are never
//! concurrent, so handing out `&mut T` to the single running writer is
//! sound).
//!
//! Handles created through [`Shared::renameable`] /
//! [`Partitioned::renameable_with`] additionally grow **version slots**
//! (`DESIGN.md` §2): when the data-flow engine *renames* a whole-object
//! write-only access, the writing task is routed to a freshly allocated
//! buffer instead of serializing behind earlier readers and writers.
//! Completing the write *commits* the slot — publishes it as the handle's current value unless a
//! newer version committed first — and drained, superseded slots are
//! recycled by the engine. Tasks are pinned to their slot when they are
//! spawned, so concurrent commits can never redirect a running task.
//!
//! [`Reduction<T>`] implements the cumulative-write mode: concurrent tasks
//! fold into per-worker accumulators, merged lazily on the next read/write
//! access (which the data-flow edges order after the whole reduction group).

use crate::access::{fresh_handle_id, Access, AccessMode, HandleId, Region};
use parking_lot::Mutex;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Dynamic borrow state: 0 = free, `u32::MAX` = writer, else reader count.
/// A second line of defence under the scheduler's exclusivity guarantee —
/// mis-declared accesses surface as a panic instead of aliasing UB.
const WRITER: u32 = u32::MAX;

/// One buffer of a handle — the original value or a version slot — with its
/// own dynamic borrow word (tasks on different slots must not interfere).
struct Slot<T: ?Sized> {
    borrows: AtomicU32,
    cell: UnsafeCell<T>,
}

impl<T> Slot<T> {
    fn new(value: T) -> Slot<T> {
        Slot {
            borrows: AtomicU32::new(0),
            cell: UnsafeCell::new(value),
        }
    }
}

/// One entry of the version-slot table: the buffer plus the commit
/// sequence number it was last factory-reset for (a renamed writer must
/// see fresh contents exactly once per version, even if it re-borrows, and
/// even when the slot id is recycled from an older version).
struct SlotEntry<T: ?Sized> {
    reset_seq: u64,
    buf: Option<Box<Slot<T>>>,
}

/// Version-slot table of a renameable handle (`DESIGN.md` §2).
struct RenameState<T: ?Sized> {
    /// `(commit_seq << 16) | slot` of the youngest committed write-only
    /// version; quiescent readers ([`Shared::get`], [`Shared::into_inner`])
    /// resolve the handle's logical value here. Slot ids fit 16 bits (the
    /// engine caps them), sequence numbers take the upper 48.
    committed: AtomicU64,
    /// Buffers of slots `>= 1`, indexed by `slot - 1`, grown on demand.
    /// Boxes give the buffers stable addresses; entries are never removed
    /// while the handle is alive (recycled slots are factory-reset by the
    /// next renamed writer).
    slots: Mutex<Vec<SlotEntry<T>>>,
    /// Fresh-buffer factory for renamed writers.
    alloc: Box<dyn Fn() -> Box<Slot<T>> + Send + Sync>,
}

impl<T: 'static> RenameState<T> {
    /// Empty slot table whose renamed writers get buffers from `fresh`.
    fn new(fresh: impl Fn() -> T + Send + Sync + 'static) -> Self {
        RenameState {
            committed: AtomicU64::new(0),
            slots: Mutex::new(Vec::new()),
            alloc: Box::new(move || Box::new(Slot::new(fresh()))),
        }
    }
}

struct SharedInner<T: ?Sized> {
    id: HandleId,
    /// NUMA node owning this handle's data (`u32::MAX` = unknown). Set
    /// explicitly ([`Shared::set_home`]) or by first-touch (the node of
    /// the first worker that wrote through the handle); stamped into
    /// access descriptors so `Affinity::Auto` can steer placement.
    home: AtomicU32,
    /// `Some` iff the handle supports renaming.
    rename: Option<RenameState<T>>,
    main: Slot<T>,
}

// SAFETY: the runtime serialises conflicting accesses; only tasks whose
// declared accesses were granted touch the slot cells, each slot has its own
// borrow word, and at most one task may hold a mutable borrow of a slot at
// a time.
unsafe impl<T: Send + ?Sized> Send for SharedInner<T> {}
// SAFETY: as for `Send`.
unsafe impl<T: Send + ?Sized> Sync for SharedInner<T> {}

impl<T> SharedInner<T> {
    /// The committed value, consuming the handle's last reference.
    fn into_committed(self) -> T {
        let slot = self.committed_slot();
        if slot == 0 {
            return self.main.cell.into_inner();
        }
        let rs = self.rename.expect("slot > 0 implies renaming support");
        let mut slots = rs.slots.into_inner();
        let b = slots[(slot - 1) as usize]
            .buf
            .take()
            .expect("committed version slot has a buffer");
        b.cell.into_inner()
    }
}

impl<T: ?Sized> SharedInner<T> {
    /// Slot currently holding the handle's committed (logical) value.
    fn committed_slot(&self) -> u32 {
        match &self.rename {
            None => 0,
            Some(rs) => (rs.committed.load(Ordering::Acquire) & 0xFFFF) as u32,
        }
    }

    /// Borrow word and value pointer of `slot`, creating the buffer on
    /// demand. Slot 0 is the original value.
    ///
    /// `fresh_for` carries a renamed writer's commit sequence number: the
    /// buffer is then replaced with factory-fresh contents once per
    /// version — a renamed writer never observes data from a recycled
    /// slot's previous life, and its own re-borrows keep its writes.
    fn slot_raw(&self, slot: u32, fresh_for: Option<u64>) -> (*const AtomicU32, *mut T) {
        if slot == 0 {
            return (&self.main.borrows as *const _, self.main.cell.get());
        }
        let rs = self.rename.as_ref().expect(
            "xkaapi: version-slot binding on a handle without renaming support \
             (Access::with_renaming on a plain handle?)",
        );
        let mut slots = rs.slots.lock();
        let i = (slot - 1) as usize;
        if slots.len() <= i {
            slots.resize_with(i + 1, || SlotEntry {
                reset_seq: 0,
                buf: None,
            });
        }
        let entry = &mut slots[i];
        if let Some(seq) = fresh_for {
            if entry.reset_seq != seq {
                // No live borrow can exist here: a renamed slot is either
                // brand new or recycled after every bound task completed.
                entry.reset_seq = seq;
                entry.buf = Some((rs.alloc)());
            }
        }
        let b = entry.buf.get_or_insert_with(|| (rs.alloc)());
        (&b.borrows as *const _, b.cell.get())
    }

    /// Commit guard of a renamed write to `slot` with sequence `seq`.
    fn commit_guard(&self, slot: u32, seq: u64) -> CommitOnDrop<'_> {
        CommitOnDrop {
            cell: &self
                .rename
                .as_ref()
                .expect("commit sequence on a non-renameable handle")
                .committed,
            seq,
            slot,
        }
    }

    /// Committed-version snapshot stamped into access descriptors (zero
    /// for plain handles).
    fn lineage(&self) -> u64 {
        match &self.rename {
            None => 0,
            Some(rs) => rs.committed.load(Ordering::Acquire),
        }
    }

    /// Home-node snapshot stamped into access descriptors.
    #[inline]
    fn home_u32(&self) -> u32 {
        self.home.load(Ordering::Relaxed)
    }

    /// First-touch: record `node` as the handle's home unless one is
    /// already known (one relaxed CAS, won exactly once per handle).
    #[inline]
    fn note_first_touch(&self, node: usize) {
        if self.home.load(Ordering::Relaxed) == u32::MAX {
            let _ = self.home.compare_exchange(
                u32::MAX,
                node as u32,
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
        }
    }
}

/// Commit-on-completion guard of a renamed write: dropping it publishes
/// `(seq, slot)` as the handle's current value unless a newer write-only
/// version already committed (sequence numbers are program-order).
pub(crate) struct CommitOnDrop<'a> {
    cell: &'a AtomicU64,
    seq: u64,
    slot: u32,
}

impl Drop for CommitOnDrop<'_> {
    fn drop(&mut self) {
        let packed = (self.seq << 16) | self.slot as u64;
        let mut cur = self.cell.load(Ordering::Relaxed);
        while (cur >> 16) < self.seq {
            match self
                .cell
                .compare_exchange_weak(cur, packed, Ordering::Release, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(c) => cur = c,
            }
        }
    }
}

/// A runtime-managed shared value that data-flow tasks access by declaration.
///
/// Cloning a `Shared<T>` clones the *handle* (an `Arc`), not the value.
///
/// ```
/// use xkaapi_core::{Runtime, AccessMode};
/// let rt = Runtime::new(2);
/// let h = xkaapi_core::Shared::new(0u64);
/// rt.scope(|ctx| {
///     let h2 = h.clone();
///     ctx.spawn([h.write()], move |t| *t.write(&h2) = 42);
///     let h3 = h.clone();
///     ctx.spawn([h.read()], move |t| assert_eq!(*t.read(&h3), 42));
/// });
/// assert_eq!(h.into_inner(), 42);
/// ```
pub struct Shared<T: ?Sized> {
    inner: Arc<SharedInner<T>>,
}

impl<T: ?Sized> Clone for Shared<T> {
    fn clone(&self) -> Self {
        Shared {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Shared<T> {
    /// Wrap a value into a fresh handle (no renaming support; write-only
    /// accesses serialize like exclusive ones).
    pub fn new(value: T) -> Self {
        Shared {
            inner: Arc::new(SharedInner {
                id: fresh_handle_id(),
                home: AtomicU32::new(u32::MAX),
                rename: None,
                main: Slot::new(value),
            }),
        }
    }

    /// Recover the value. Panics if other clones of the handle still exist.
    pub fn into_inner(self) -> T {
        match Arc::try_unwrap(self.inner) {
            Ok(inner) => inner.into_committed(),
            Err(_) => panic!("Shared::into_inner: handle still has outstanding clones"),
        }
    }

    /// Read the value from outside any task. The caller asserts no task that
    /// writes this handle is in flight (e.g. after the owning scope ended).
    pub fn get(&self) -> &T {
        let slot = self.inner.committed_slot();
        // Safety: caller contract — quiescent handle.
        unsafe { &*self.inner.slot_raw(slot, None).1 }
    }

    /// Mutate the value from outside any task; same quiescence contract as
    /// [`Shared::get`], plus uniqueness of the borrow is the caller's duty.
    pub fn get_mut(&mut self) -> &mut T {
        let slot = self.inner.committed_slot();
        // Safety: `&mut self` gives uniqueness of this handle clone; the
        // caller asserts no task is in flight.
        unsafe { &mut *self.inner.slot_raw(slot, None).1 }
    }
}

impl<T: Send + Default + 'static> Shared<T> {
    /// Wrap a value into a handle that supports **renaming**: write-only
    /// accesses may be granted a fresh `T::default()` buffer instead of
    /// serializing behind earlier readers/writers (`DESIGN.md` §2).
    ///
    /// A renamed writer receives the fresh buffer, *not* the previous
    /// value, so `T::default()` must be interchangeable with it under the
    /// task's write pattern. For containers that is usually wrong
    /// (`Vec::default()` is empty — an `iter_mut` overwrite would touch
    /// nothing): use [`Shared::renameable_with`] with a factory producing
    /// same-shape buffers (e.g. `|| vec![0; n]`).
    ///
    /// ```
    /// use xkaapi_core::{Runtime, Shared};
    /// let rt = Runtime::new(2);
    /// let h = Shared::renameable(0u64);
    /// rt.scope(|ctx| {
    ///     for i in 0..4u64 {
    ///         let hw = h.clone();
    ///         // Repeated whole-object overwrites: WAR/WAW edges eliminated.
    ///         ctx.spawn([h.write()], move |t| *t.write(&hw) = i);
    ///     }
    /// });
    /// assert_eq!(h.into_inner(), 3);
    /// ```
    pub fn renameable(value: T) -> Self {
        Self::renameable_with(value, T::default)
    }
}

impl<T: Send + 'static> Shared<T> {
    /// Like [`Shared::renameable`], with an explicit fresh-buffer factory
    /// for types without a (cheap) `Default`.
    pub fn renameable_with(value: T, fresh: impl Fn() -> T + Send + Sync + 'static) -> Self {
        Shared {
            inner: Arc::new(SharedInner {
                id: fresh_handle_id(),
                home: AtomicU32::new(u32::MAX),
                rename: Some(RenameState::new(fresh)),
                main: Slot::new(value),
            }),
        }
    }
}

impl<T: ?Sized> Shared<T> {
    /// This handle's identifier.
    #[inline]
    pub fn id(&self) -> HandleId {
        self.inner.id
    }

    /// Does this handle support write-only renaming?
    #[inline]
    pub fn is_renameable(&self) -> bool {
        self.inner.rename.is_some()
    }

    /// NUMA node owning this handle's data, if known (explicit
    /// [`Shared::set_home`] or first-touch by a writing task).
    #[inline]
    pub fn home_node(&self) -> Option<usize> {
        let h = self.inner.home_u32();
        (h != u32::MAX).then_some(h as usize)
    }

    /// Declare which NUMA node owns this handle's data. Subsequent access
    /// declarations carry the stamp, so tasks and root jobs built with
    /// [`Affinity::Auto`](crate::Affinity::Auto) are steered toward this
    /// node's workers.
    #[inline]
    pub fn set_home(&self, node: usize) {
        self.inner.home.store(node as u32, Ordering::Relaxed);
    }

    /// First-touch home recording (context layer: called on task writes).
    #[inline]
    pub(crate) fn note_first_touch(&self, node: usize) {
        self.inner.note_first_touch(node);
    }

    /// Declare a whole-object read access.
    #[inline]
    pub fn read(&self) -> Access {
        Access::new(self.id(), Region::All, AccessMode::Read)
            .with_lineage(self.inner.lineage())
            .with_home(self.inner.home_u32())
    }

    /// Declare a whole-object write-only access. On a renameable handle the
    /// engine may rename it (fresh version slot, no WAR/WAW edges); on a
    /// plain handle it serializes like [`Shared::exclusive`].
    #[inline]
    pub fn write(&self) -> Access {
        let a = Access::new(self.id(), Region::All, AccessMode::Write)
            .with_lineage(self.inner.lineage())
            .with_home(self.inner.home_u32());
        if self.is_renameable() {
            a.with_renaming()
        } else {
            a
        }
    }

    /// Declare a whole-object exclusive read-write access.
    #[inline]
    pub fn exclusive(&self) -> Access {
        Access::new(self.id(), Region::All, AccessMode::Exclusive)
            .with_lineage(self.inner.lineage())
            .with_home(self.inner.home_u32())
    }

    /// Declare a read access to a sub-region.
    #[inline]
    pub fn read_region(&self, region: Region) -> Access {
        Access::new(self.id(), region, AccessMode::Read)
            .with_lineage(self.inner.lineage())
            .with_home(self.inner.home_u32())
    }

    /// Declare a write access to a sub-region (partial writes are never
    /// renamed — the untouched part must come from the previous version).
    #[inline]
    pub fn write_region(&self, region: Region) -> Access {
        Access::new(self.id(), region, AccessMode::Write)
            .with_lineage(self.inner.lineage())
            .with_home(self.inner.home_u32())
    }

    /// Slot currently holding the committed value (fallback routing for
    /// accesses without a task binding).
    #[inline]
    pub(crate) fn committed_slot(&self) -> u32 {
        self.inner.committed_slot()
    }

    /// Acquire a shared borrow of slot 0 (task context, after the scheduler
    /// granted a read). Panics on a live writer — a mis-declared access.
    pub(crate) fn borrow(&self) -> Ref<'_, T> {
        self.borrow_slot(0)
    }

    /// Acquire a shared borrow of version slot `slot`.
    pub(crate) fn borrow_slot(&self, slot: u32) -> Ref<'_, T> {
        let (b_ptr, val) = self.inner.slot_raw(slot, None);
        // Safety: the slot lives as long as `self.inner` (never removed).
        let b = unsafe { &*b_ptr };
        loop {
            let cur = b.load(Ordering::Acquire);
            assert_ne!(
                cur, WRITER,
                "xkaapi: read access while a writer is live (mis-declared task accesses?)"
            );
            if b.compare_exchange_weak(cur, cur + 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                break;
            }
        }
        Ref {
            // SAFETY: reader count held; writers excluded.
            val: unsafe { &*val },
            borrows: b,
        }
    }

    /// Acquire an exclusive borrow of slot 0 (task context, after the
    /// scheduler granted a write). Panics on any live borrow.
    pub(crate) fn borrow_mut(&self) -> RefMut<'_, T> {
        self.borrow_slot_mut(0, None)
    }

    /// Acquire an exclusive borrow of version slot `slot`. For a renamed
    /// write, `commit_seq` carries the version's sequence number: dropping
    /// the borrow commits the slot as the handle's current value.
    pub(crate) fn borrow_slot_mut(&self, slot: u32, commit_seq: Option<u64>) -> RefMut<'_, T> {
        let (b_ptr, val) = self.inner.slot_raw(slot, commit_seq);
        // Safety: the slot lives as long as `self.inner`.
        let b = unsafe { &*b_ptr };
        assert!(
            b.compare_exchange(0, WRITER, Ordering::AcqRel, Ordering::Acquire)
                .is_ok(),
            "xkaapi: write access while other borrows are live (mis-declared task accesses?)"
        );
        let commit = commit_seq.map(|seq| self.inner.commit_guard(slot, seq));
        RefMut {
            // SAFETY: exclusive flag held.
            val: unsafe { &mut *val },
            borrows: b,
            _commit: commit,
        }
    }
}

/// Shared borrow of a [`Shared<T>`] value, granted to a running task.
pub struct Ref<'a, T: ?Sized> {
    val: &'a T,
    borrows: &'a AtomicU32,
}

impl<T: ?Sized> std::ops::Deref for Ref<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.val
    }
}

impl<T: ?Sized> Drop for Ref<'_, T> {
    fn drop(&mut self) {
        self.borrows.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Exclusive borrow of a [`Shared<T>`] value, granted to a running task.
///
/// For a renamed write-only access, dropping the borrow also commits the
/// version slot (publishes it as the handle's current value).
pub struct RefMut<'a, T: ?Sized> {
    val: &'a mut T,
    borrows: &'a AtomicU32,
    _commit: Option<CommitOnDrop<'a>>,
}

impl<T: ?Sized> std::ops::Deref for RefMut<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.val
    }
}

impl<T: ?Sized> std::ops::DerefMut for RefMut<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.val
    }
}

impl<T: ?Sized> Drop for RefMut<'_, T> {
    fn drop(&mut self) {
        self.borrows.store(0, Ordering::Release);
        // `_commit` (if any) drops after this body: the commit publishes
        // the slot only once the borrow is released.
    }
}

/// Raw, slot-routed view of a [`Partitioned<T>`] granted to a running task
/// by [`Ctx::view_of`](crate::Ctx::view_of). Dropping the view commits the
/// version slot when the access was a renamed whole-object write.
pub struct PartView<'a, T: ?Sized> {
    ptr: *mut T,
    _commit: Option<CommitOnDrop<'a>>,
}

impl<T: ?Sized> PartView<'_, T> {
    /// The buffer this task's declared access is bound to.
    ///
    /// # Safety of use
    /// Same contract as [`Partitioned::view`]: only touch the part of the
    /// value corresponding to a region the task declared.
    #[inline]
    pub fn ptr(&self) -> *mut T {
        self.ptr
    }
}

/// A shared value accessed through *disjoint regions* by concurrent tasks.
///
/// Unlike [`Shared<T>`], several tasks may run concurrently on a
/// `Partitioned<T>` as long as their declared regions do not overlap: the
/// data-flow scheduler orders the ones that do. Region-typed projections are
/// the user's responsibility (`view` hands out raw mutable access), which is
/// why construction is explicit — it is the building block the dense tiled
/// and sparse skyline matrices use.
pub struct Partitioned<T> {
    inner: Arc<SharedInner<T>>,
}

impl<T> Clone for Partitioned<T> {
    fn clone(&self) -> Self {
        Partitioned {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: Send + 'static> Partitioned<T> {
    /// Wrap a value whose whole-object write-only accesses
    /// ([`Partitioned::write_all`]) may be renamed; `fresh` allocates the
    /// version buffers (`DESIGN.md` §2). Renamed tasks must resolve their
    /// buffer through [`Ctx::view_of`](crate::Ctx::view_of).
    pub fn renameable_with(value: T, fresh: impl Fn() -> T + Send + Sync + 'static) -> Self {
        Partitioned {
            inner: Arc::new(SharedInner {
                id: fresh_handle_id(),
                home: AtomicU32::new(u32::MAX),
                rename: Some(RenameState::new(fresh)),
                main: Slot::new(value),
            }),
        }
    }
}

impl<T: Send> Partitioned<T> {
    /// Wrap a value to be accessed through disjoint regions.
    pub fn new(value: T) -> Self {
        Partitioned {
            inner: Arc::new(SharedInner {
                id: fresh_handle_id(),
                home: AtomicU32::new(u32::MAX),
                rename: None,
                main: Slot::new(value),
            }),
        }
    }

    /// This handle's identifier.
    #[inline]
    pub fn id(&self) -> HandleId {
        self.inner.id
    }

    /// Does this handle support write-only renaming?
    #[inline]
    pub fn is_renameable(&self) -> bool {
        self.inner.rename.is_some()
    }

    /// NUMA node owning this handle's data, if known.
    #[inline]
    pub fn home_node(&self) -> Option<usize> {
        let h = self.inner.home_u32();
        (h != u32::MAX).then_some(h as usize)
    }

    /// Declare which NUMA node owns this handle's data (see
    /// [`Shared::set_home`]).
    #[inline]
    pub fn set_home(&self, node: usize) {
        self.inner.home.store(node as u32, Ordering::Relaxed);
    }

    /// First-touch home recording (context layer).
    #[inline]
    pub(crate) fn note_first_touch(&self, node: usize) {
        self.inner.note_first_touch(node);
    }

    /// Declare an access to `region` with `mode`. The access never
    /// carries the renaming capability: it serializes behind the earlier
    /// accesses it overlaps. Use [`Partitioned::write_all`] for a
    /// whole-object write that may be renamed.
    #[inline]
    pub fn access(&self, region: Region, mode: AccessMode) -> Access {
        Access::new(self.id(), region, mode)
            .with_lineage(self.inner.lineage())
            .with_home(self.inner.home_u32())
    }

    /// Declare a whole-object write-only access (renameable on handles
    /// built with [`Partitioned::renameable_with`]).
    #[inline]
    pub fn write_all(&self) -> Access {
        let a = Access::new(self.id(), Region::All, AccessMode::Write)
            .with_lineage(self.inner.lineage())
            .with_home(self.inner.home_u32());
        if self.is_renameable() {
            a.with_renaming()
        } else {
            a
        }
    }

    /// Raw access to the underlying value (slot 0 — the original buffer).
    ///
    /// On a renameable handle a task must use
    /// [`Ctx::view_of`](crate::Ctx::view_of) instead, which resolves the
    /// version slot its access was bound to.
    ///
    /// # Safety
    /// The caller must only touch the part of the value corresponding to a
    /// region its task declared; the scheduler guarantees tasks with
    /// overlapping regions are not concurrent, nothing guards disjoint ones.
    #[inline]
    pub unsafe fn view(&self) -> *mut T {
        self.inner.main.cell.get()
    }

    /// Slot-routed view with an optional commit guard (context layer).
    pub(crate) fn part_view(&self, slot: u32, commit_seq: Option<u64>) -> PartView<'_, T> {
        let (_, ptr) = self.inner.slot_raw(slot, commit_seq);
        let commit = commit_seq.map(|seq| self.inner.commit_guard(slot, seq));
        PartView {
            ptr,
            _commit: commit,
        }
    }

    /// Slot currently holding the committed value.
    #[inline]
    pub(crate) fn committed_slot(&self) -> u32 {
        self.inner.committed_slot()
    }

    /// Recover the value. Panics if other clones of the handle still exist.
    pub fn into_inner(self) -> T {
        match Arc::try_unwrap(self.inner) {
            Ok(inner) => inner.into_committed(),
            Err(_) => panic!("Partitioned::into_inner: handle still has outstanding clones"),
        }
    }

    /// Read-only borrow from outside any task (quiescence contract).
    pub fn get(&self) -> &T {
        let slot = self.inner.committed_slot();
        // SAFETY: the quiescence contract: no task writes the handle now.
        unsafe { &*self.inner.slot_raw(slot, None).1 }
    }
}

type CombineFn<T> = dyn Fn(&mut T, T) + Send + Sync;
type IdentityFn<T> = dyn Fn() -> T + Send + Sync;

struct ReductionInner<T> {
    id: HandleId,
    main: UnsafeCell<T>,
    /// One lazily-initialised accumulator per worker, cache-padded to avoid
    /// false sharing between concurrently folding workers.
    slots: Box<[crossbeam_utils::CachePadded<UnsafeCell<Option<T>>>]>,
    dirty: AtomicBool,
    identity: Box<IdentityFn<T>>,
    combine: Box<CombineFn<T>>,
}

// SAFETY: each worker folds only into its own slot (`slot_for`), and
// `main` is touched only once the data-flow engine has ordered the caller
// after every fold (`merge_pending`).
unsafe impl<T: Send> Send for ReductionInner<T> {}
// SAFETY: as for `Send`.
unsafe impl<T: Send> Sync for ReductionInner<T> {}

/// A reduction variable for the cumulative-write access mode.
///
/// Tasks declaring [`Reduction::cumul`] run concurrently, each folding into a
/// per-worker accumulator obtained from the task context. The next task that
/// declares a read or write access is ordered after the whole group by the
/// data-flow engine, and the merge of the accumulators happens then.
pub struct Reduction<T> {
    inner: Arc<ReductionInner<T>>,
}

impl<T> Clone for Reduction<T> {
    fn clone(&self) -> Self {
        Reduction {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: Send> Reduction<T> {
    /// Create a reduction with `nworkers` accumulator slots.
    ///
    /// `identity` produces the neutral element, `combine` folds a slot into
    /// the main value; both must make `combine` associative for the result
    /// to be deterministic up to floating-point reassociation.
    pub fn with_slots(
        initial: T,
        nworkers: usize,
        identity: impl Fn() -> T + Send + Sync + 'static,
        combine: impl Fn(&mut T, T) + Send + Sync + 'static,
    ) -> Self {
        let slots = (0..nworkers)
            .map(|_| crossbeam_utils::CachePadded::new(UnsafeCell::new(None)))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Reduction {
            inner: Arc::new(ReductionInner {
                id: fresh_handle_id(),
                main: UnsafeCell::new(initial),
                slots,
                dirty: AtomicBool::new(false),
                identity: Box::new(identity),
                combine: Box::new(combine),
            }),
        }
    }

    /// Handle identifier (shared by all access declarations on this value).
    #[inline]
    pub fn id(&self) -> HandleId {
        self.inner.id
    }

    /// Declare a cumulative-write access (commutes with other `cumul`s).
    #[inline]
    pub fn cumul(&self) -> Access {
        Access::new(self.id(), Region::All, AccessMode::CumulWrite)
    }

    /// Declare a read access (ordered after any pending cumulative writes).
    #[inline]
    pub fn read(&self) -> Access {
        Access::new(self.id(), Region::All, AccessMode::Read)
    }

    /// Declare an exclusive access.
    #[inline]
    pub fn exclusive(&self) -> Access {
        Access::new(self.id(), Region::All, AccessMode::Exclusive)
    }

    /// Per-worker accumulator for a task granted `cumul` access.
    ///
    /// # Safety (internal)
    /// Called by the task context with the executing worker's index; two
    /// tasks on the same worker are never concurrent so the slot borrow is
    /// unique.
    #[allow(clippy::mut_from_ref)] // uniqueness per worker: see Safety above
    pub(crate) fn slot_for(&self, worker: usize) -> &mut T {
        self.inner.dirty.store(true, Ordering::Release);
        // SAFETY: only worker `worker` folds into this slot, one task at a
        // time (see Safety above).
        let slot = unsafe { &mut *self.inner.slots[worker].get() };
        slot.get_or_insert_with(|| (self.inner.identity)())
    }

    /// Merge pending per-worker accumulators into the main value.
    ///
    /// Sound only once the data-flow engine has ordered the caller after the
    /// cumulative-write group (i.e. from a task with read/write access, or
    /// outside any scope).
    pub(crate) fn merge_pending(&self) {
        if !self.inner.dirty.swap(false, Ordering::AcqRel) {
            return;
        }
        // SAFETY: the caller is ordered after the cumulative-write group
        // (see above): no task folds or reads concurrently.
        let main = unsafe { &mut *self.inner.main.get() };
        for slot in self.inner.slots.iter() {
            // SAFETY: as for `main`.
            let slot = unsafe { &mut *slot.get() };
            if let Some(v) = slot.take() {
                (self.inner.combine)(main, v);
            }
        }
    }

    /// Merged value, viewed from outside any task (quiescence contract).
    pub fn get(&self) -> &T {
        self.merge_pending();
        // SAFETY: the quiescence contract: no task folds or writes now.
        unsafe { &*self.inner.main.get() }
    }

    /// Pointer to the main value, for granted read/write task accesses.
    pub(crate) fn data_ptr(&self) -> *mut T {
        self.inner.main.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_roundtrip() {
        let h = Shared::new(vec![1, 2, 3]);
        assert_eq!(h.get().len(), 3);
        let h2 = h.clone();
        assert_eq!(h.id(), h2.id());
        drop(h2);
        assert_eq!(h.into_inner(), vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "outstanding clones")]
    fn shared_into_inner_with_clones_panics() {
        let h = Shared::new(5);
        let _h2 = h.clone();
        let _ = h.into_inner();
    }

    #[test]
    fn distinct_handles_distinct_ids() {
        let a = Shared::new(0);
        let b = Shared::new(0);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn access_constructors() {
        let h = Shared::new(0u8);
        assert_eq!(h.read().mode, AccessMode::Read);
        assert_eq!(h.write().mode, AccessMode::Write);
        assert_eq!(h.exclusive().mode, AccessMode::Exclusive);
        assert!(h.read().conflicts_with(&h.write()));
        assert!(!h.write().can_rename(), "plain handle: no renaming");
    }

    #[test]
    fn renameable_write_access_carries_capability() {
        let h = Shared::renameable(0u64);
        assert!(h.is_renameable());
        assert!(h.write().can_rename());
        assert!(!h.read().can_rename());
        assert!(!h.exclusive().can_rename());
    }

    #[test]
    fn version_slots_commit_in_sequence_order() {
        let h = Shared::renameable(0u64);
        // Simulate two renamed writers completing out of order.
        {
            let mut w2 = h.borrow_slot_mut(2, Some(2));
            *w2 = 22;
        } // commits (seq 2, slot 2)
        {
            let mut w1 = h.borrow_slot_mut(1, Some(1));
            *w1 = 11;
        } // older version: must NOT take over
        assert_eq!(*h.get(), 22);
        assert_eq!(h.into_inner(), 22);
    }

    #[test]
    fn slots_have_independent_borrow_words() {
        let h = Shared::renameable(0u32);
        // Reader on slot 0 concurrent with a renamed writer on slot 1.
        let r = h.borrow_slot(0);
        let mut w = h.borrow_slot_mut(1, Some(1));
        *w = 5;
        assert_eq!(*r, 0);
        drop(w);
        drop(r);
        assert_eq!(*h.get(), 5);
    }

    #[test]
    fn renameable_with_custom_factory() {
        let h = Shared::renameable_with(vec![1u8, 2], || Vec::with_capacity(8));
        {
            let mut w = h.borrow_slot_mut(1, Some(1));
            w.push(9);
        }
        assert_eq!(*h.get(), vec![9]);
    }

    #[test]
    fn recycled_slot_is_factory_fresh_per_version() {
        let h = Shared::renameable_with(vec![0u8; 0], Vec::new);
        {
            let mut w = h.borrow_slot_mut(1, Some(1));
            w.push(9);
            drop(w);
            // Same version re-borrows: keeps its own writes.
            let mut w = h.borrow_slot_mut(1, Some(1));
            assert_eq!(*w, vec![9]);
            w.push(10);
        }
        // The slot id is recycled for a newer version: the old contents
        // must not leak into the fresh buffer.
        {
            let mut w = h.borrow_slot_mut(1, Some(3));
            assert!(w.is_empty(), "recycled slot must be factory-fresh");
            w.push(7);
        }
        assert_eq!(*h.get(), vec![7]);
    }

    #[test]
    fn reduction_merges_slots() {
        let red = Reduction::with_slots(0u64, 4, || 0u64, |a, b| *a += b);
        *red.slot_for(0) += 5;
        *red.slot_for(2) += 7;
        assert_eq!(*red.get(), 12);
        // idempotent once merged
        assert_eq!(*red.get(), 12);
        *red.slot_for(1) += 1;
        assert_eq!(*red.get(), 13);
    }

    #[test]
    fn partitioned_region_accesses() {
        let p = Partitioned::new(vec![0f64; 16]);
        let a = p.access(Region::key2(0, 0), AccessMode::Write);
        let b = p.access(Region::key2(0, 1), AccessMode::Write);
        assert!(!a.conflicts_with(&b));
        let c = p.access(Region::key2(0, 0), AccessMode::Read);
        assert!(a.conflicts_with(&c));
        assert_eq!(p.into_inner().len(), 16);
    }

    #[test]
    fn partitioned_renameable_slots() {
        let p = Partitioned::renameable_with(vec![0u8; 4], || vec![0u8; 4]);
        assert!(p.write_all().can_rename());
        {
            let v = p.part_view(1, Some(1));
            // SAFETY: the view is the only borrow of the renamed slot.
            unsafe { (&mut *v.ptr())[0] = 7 };
        } // commit on drop
        assert_eq!(p.get()[0], 7);
        assert_eq!(p.into_inner()[0], 7);
    }
}
