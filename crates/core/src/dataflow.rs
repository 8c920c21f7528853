//! The versioned data-flow core: one dependency engine for every mode.
//!
//! Every handle a frame's tasks touch is represented by **version chains**:
//! each write-class access *opens a new version* of its region, readers
//! *attach* to the current version. Binding a task into the chains (in
//! program order) yields its predecessor set — the edges of the data-flow
//! graph — and its **slot routing** (which buffer of the handle each access
//! must touch).
//!
//! A frame (`crate::frame::Frame`) binds its tasks into this one engine
//! when a thief first looks at it, and its promotion links each task behind
//! the recorded predecessors: per-task countdowns and successor cells
//! (`crate::task`). That replaced the seed's O(n²) pairwise
//! `tasks_conflict` scan.
//!
//! On top of the chains the engine implements **renaming** (`DESIGN.md` §2):
//! a write-only access on a full version of a renameable handle is granted a
//! fresh *version slot* instead of being ordered behind earlier readers and
//! writers — the WAR/WAW edges of the sequential program vanish and repeated
//! overwrites pipeline. Slots are bounded by [`RenamePolicy::max_live_slots`]
//! and recycled once every task bound to them completed.

use crate::access::{Access, AccessMode, HandleId, Region};
use crate::policy::RenamePolicy;
use std::collections::HashMap;

/// Slot ids are packed into 16 bits next to the commit sequence number
/// (see `handle.rs`), so at most this many extra buffers can exist.
const MAX_SLOT: u32 = u16::MAX as u32 - 1;

/// Where one declared access of a bound task must look for its data.
///
/// Slot `0` is the handle's original buffer; slots `> 0` are version
/// buffers grown by renaming. The binding is pinned when the task is bound
/// (a task that needs routing is bound at its push), so concurrent renames
/// can never redirect a running task.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SlotBinding {
    /// Version slot of the handle this access is routed to.
    pub slot: u32,
    /// Commit sequence number (renamed writers only): completing the write
    /// publishes `(seq, slot)` as the handle's current data if no newer
    /// version committed first.
    pub seq: u64,
    /// This access was renamed: it writes a fresh buffer and must commit.
    pub renamed: bool,
}

/// Result of binding one task into the version chains.
#[derive(Debug)]
pub struct Binding {
    /// Index of the bound task (program order, dense from 0).
    pub index: usize,
    /// Per-access slot routing, parallel to the task's access list —
    /// **or empty** when every access routes to the default binding
    /// (slot 0, no rename): the all-default sentinel that lets the hot
    /// spawn path skip the per-task slot allocation. Use
    /// [`Binding::slot`] to read through the sentinel.
    pub slots: Box<[SlotBinding]>,
    /// How many of the task's accesses were renamed.
    pub renames: u32,
}

impl Binding {
    /// Slot routing of access `i`, reading through the all-default
    /// sentinel (an empty `slots` means every access gets the default
    /// binding).
    pub fn slot(&self, i: usize) -> SlotBinding {
        self.slots.get(i).copied().unwrap_or_default()
    }
}

/// Head of one version chain: the open version of one region track.
///
/// Older versions are fully ordered behind the head (their tasks appear in
/// predecessor sets of the tasks recorded here), so only the head is needed
/// to extend the chain.
#[derive(Default)]
struct Version {
    /// Task that opened this version (the write-class access), if any.
    writer: Option<u32>,
    /// Readers attached to this version.
    readers: Vec<u32>,
    /// Cumulative writers attached to this version.
    cumuls: Vec<u32>,
}

impl Version {
    /// Predecessor edges an access of `mode` by task `idx` takes from this
    /// version. `idx` itself is skipped: a task with several accesses to
    /// one handle (e.g. read + write) must not depend on itself.
    fn preds_into(&self, idx: u32, mode: AccessMode, preds: &mut Vec<u32>) {
        let mut push = |p: u32| {
            if p != idx {
                preds.push(p);
            }
        };
        match mode {
            AccessMode::Read => {
                self.writer.iter().copied().for_each(&mut push);
                self.cumuls.iter().copied().for_each(&mut push);
            }
            AccessMode::Write | AccessMode::Exclusive => {
                self.writer.iter().copied().for_each(&mut push);
                self.readers.iter().copied().for_each(&mut push);
                self.cumuls.iter().copied().for_each(&mut push);
            }
            AccessMode::CumulWrite => {
                self.writer.iter().copied().for_each(&mut push);
                self.readers.iter().copied().for_each(&mut push);
            }
        }
    }
}

/// All version chains and the slot lineage of one handle.
struct HandleState {
    /// Whole-object chain.
    all: Option<Version>,
    /// One chain per keyed region.
    keys: HashMap<u64, Version>,
    /// One chain per exact 1-D range `(start, end)`.
    ranges: Vec<(usize, usize, Version)>,
    /// Slot holding the handle's logical data at this point of the program
    /// order; every access binds to it (renamed writers move it).
    cur_slot: u32,
    /// Next never-used slot id.
    next_slot: u32,
    /// Next commit sequence number (1-based; 0 = "initial value").
    next_seq: u64,
    /// Recycled slots (all bound tasks completed, superseded).
    free: Vec<u32>,
    /// Live version slots (allocated minus recycled), for the policy cap.
    live_slots: u32,
    /// Not-yet-completed bound tasks per slot (slots `> 0` only).
    pending: HashMap<u32, u32>,
}

impl HandleState {
    /// Fresh handle state, seeded from the handle's committed-version
    /// snapshot (`(seq << 16) | slot`, zero for plain handles and untouched
    /// renameable ones).
    ///
    /// A frame's engine starts empty, but the handle may carry committed
    /// state from a previous scope: the chains must continue on the
    /// committed slot (not slot 0), commit sequence numbers must stay
    /// monotonic (or later commits would lose the max-CAS against the old
    /// ones), and the slot ids a previous scope used below the committed
    /// one are dead — quiescent between scopes — so they are recycled here
    /// rather than leaked. Renamed writers factory-reset their buffer, so
    /// reusing an id that held old data is safe.
    fn seeded(lineage: u64) -> Self {
        let slot = (lineage & 0xFFFF) as u32;
        let seq = lineage >> 16;
        HandleState {
            all: None,
            keys: HashMap::new(),
            ranges: Vec::new(),
            cur_slot: slot,
            next_slot: slot + 1,
            next_seq: seq + 1,
            free: (1..slot).collect(),
            live_slots: slot,
            pending: HashMap::new(),
        }
    }

    /// Can a fresh version slot be opened under `policy`?
    fn can_open_slot(&self, policy: &RenamePolicy) -> bool {
        !self.free.is_empty() || self.live_slots < policy.max_live_slots.min(MAX_SLOT)
    }

    /// Open a fresh (or recycled) version slot and make it current.
    fn open_slot(&mut self) -> (u32, u64) {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.live_slots += 1;
            let s = self.next_slot;
            self.next_slot += 1;
            s
        });
        // The slot this one supersedes may already be fully drained (its
        // recycling is otherwise triggered by the last completion).
        self.maybe_recycle(self.cur_slot, slot);
        self.cur_slot = slot;
        let seq = self.next_seq;
        self.next_seq += 1;
        (slot, seq)
    }

    /// Recycle `slot` if it is drained and superseded by `new_cur`.
    fn maybe_recycle(&mut self, slot: u32, new_cur: u32) {
        if slot != 0 && slot != new_cur && self.pending.get(&slot) == Some(&0) {
            self.pending.remove(&slot);
            self.free.push(slot);
        }
    }
}

/// Per-task record kept by the engine: two ranges into the engine's
/// append-only arenas. Binding a task appends to the arena tails instead
/// of boxing fresh per-task slices — the spawn path's allocation count no
/// longer grows with the task count (arenas amortize like a `Vec`).
struct TaskEntry {
    /// Range of `preds_arena` holding the predecessor task indices
    /// (sorted, deduplicated, all `< index`).
    preds_start: u32,
    preds_len: u32,
    /// Range of `holds_arena` holding `(handle, slot)` pairs with
    /// `slot > 0`, for slot reclamation.
    holds_start: u32,
    holds_len: u32,
    /// `complete` was called for this task.
    done: bool,
}

/// The versioned data-flow engine of one frame (or of a standalone probe).
///
/// Tasks are bound in program order; the engine records, per task, the
/// predecessor set and the slot routing. It is a plain data structure — the
/// frame layer provides the locking and maps engine indices to real tasks.
///
/// The engine is public so benchmarks and tests can measure scheduling
/// properties (e.g. ready-set width with renaming on vs off) without
/// running a scheduler:
///
/// ```
/// use xkaapi_core::dataflow::DataflowEngine;
/// use xkaapi_core::{RenamePolicy, Shared};
///
/// let h = Shared::renameable(0u64);
/// let policy = RenamePolicy::default();
/// let mut eng = DataflowEngine::new();
/// eng.bind(&[h.write()], &policy); // first version: no predecessors
/// eng.bind(&[h.read()], &policy); // waits for the writer
/// eng.bind(&[h.write()], &policy); // renamed: WAR edge eliminated
/// assert_eq!(eng.preds(1), &[0]);
/// assert_eq!(eng.preds(2), &[] as &[u32]);
/// // Before anything completes, a task is ready iff it has no predecessor.
/// let ready = (0..eng.len()).filter(|&i| eng.preds(i).is_empty()).count();
/// assert_eq!(ready, 2);
/// ```
#[derive(Default)]
pub struct DataflowEngine {
    handles: HashMap<HandleId, HandleState>,
    tasks: Vec<TaskEntry>,
    /// Arena backing every task's predecessor set (see [`TaskEntry`]).
    preds_arena: Vec<u32>,
    /// Arena backing every task's held `(handle, slot)` pairs.
    holds_arena: Vec<(HandleId, u32)>,
    /// Per-bind scratch for the slot routing; reused across binds so a
    /// task whose routing is all-default allocates nothing.
    slot_scratch: Vec<SlotBinding>,
}

impl DataflowEngine {
    /// Empty engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of bound tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// No task bound yet?
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Bind the next task (program order) with the given declared accesses.
    ///
    /// Returns the task's dense index, its per-access slot routing and how
    /// many accesses were renamed. Predecessors are queryable afterwards
    /// through [`DataflowEngine::preds`].
    pub fn bind(&mut self, accesses: &[Access], policy: &RenamePolicy) -> Binding {
        let Self {
            handles,
            tasks,
            preds_arena,
            holds_arena,
            slot_scratch,
        } = self;
        let index = tasks.len();
        debug_assert!(index < u32::MAX as usize, "frame task index overflow");
        let idx = index as u32;
        // Predecessors and held slots go straight onto the arena tails —
        // no per-task Vec, no boxed slice. Slot routing accumulates in the
        // reusable scratch and is only boxed when something is non-default.
        let preds_start = preds_arena.len();
        let holds_start = holds_arena.len();
        slot_scratch.clear();
        let preds = preds_arena;
        let mut renames = 0u32;

        for a in accesses {
            if a.region.is_empty() {
                slot_scratch.push(SlotBinding::default());
                continue;
            }
            let hs = handles
                .entry(a.handle)
                .or_insert_with(|| HandleState::seeded(a.lineage));

            // 1. Collect predecessor edges from every overlapping chain.
            let before = preds.len();
            match a.region {
                Region::All => {
                    if let Some(v) = &hs.all {
                        v.preds_into(idx, a.mode, preds);
                    }
                    for v in hs.keys.values() {
                        v.preds_into(idx, a.mode, preds);
                    }
                    for (_, _, v) in &hs.ranges {
                        v.preds_into(idx, a.mode, preds);
                    }
                }
                Region::Key(k) => {
                    if let Some(v) = &hs.all {
                        v.preds_into(idx, a.mode, preds);
                    }
                    if let Some(v) = hs.keys.get(&k) {
                        v.preds_into(idx, a.mode, preds);
                    }
                    // Mixed Key/Range on a handle aliases conservatively.
                    for (_, _, v) in &hs.ranges {
                        v.preds_into(idx, a.mode, preds);
                    }
                }
                Region::Range { start, end } => {
                    if let Some(v) = &hs.all {
                        v.preds_into(idx, a.mode, preds);
                    }
                    for v in hs.keys.values() {
                        v.preds_into(idx, a.mode, preds);
                    }
                    for (s, t, v) in &hs.ranges {
                        if *s < end && start < *t {
                            v.preds_into(idx, a.mode, preds);
                        }
                    }
                }
            }

            // 2. Renaming: a write-only access covering the whole object
            // reads nothing, so *all* its edges are WAR/WAW — eliminable by
            // giving the writer a fresh version slot. Skipped when there is
            // nothing to eliminate or the slot cap is reached. Every other
            // access routes to the current slot.
            let rename = policy.enabled
                && a.can_rename()
                && preds.len() > before
                && hs.can_open_slot(policy);
            let routed = if rename {
                renames += 1;
                preds.truncate(before);
                let (slot, seq) = hs.open_slot();
                slot_scratch.push(SlotBinding {
                    slot,
                    seq,
                    renamed: true,
                });
                slot
            } else {
                slot_scratch.push(SlotBinding {
                    slot: hs.cur_slot,
                    seq: 0,
                    renamed: false,
                });
                hs.cur_slot
            };
            if routed != 0 {
                *hs.pending.entry(routed).or_insert(0) += 1;
                holds_arena.push((a.handle, routed));
            }

            // 3. Record the access into its exact-shape chain: write-class
            // accesses open a new version, readers/cumuls attach.
            let head: &mut Version = match a.region {
                Region::All => hs.all.get_or_insert_with(Default::default),
                Region::Key(k) => hs.keys.entry(k).or_default(),
                Region::Range { start, end } => {
                    if let Some(pos) = hs
                        .ranges
                        .iter()
                        .position(|(s, t, _)| *s == start && *t == end)
                    {
                        &mut hs.ranges[pos].2
                    } else {
                        hs.ranges.push((start, end, Version::default()));
                        let last = hs.ranges.len() - 1;
                        &mut hs.ranges[last].2
                    }
                }
            };
            match a.mode {
                AccessMode::Read => head.readers.push(idx),
                AccessMode::Write | AccessMode::Exclusive => {
                    *head = Version {
                        writer: Some(idx),
                        readers: Vec::new(),
                        cumuls: Vec::new(),
                    };
                }
                AccessMode::CumulWrite => head.cumuls.push(idx),
            }
            // A whole-object write absorbs every finer-grained chain.
            if matches!(a.mode, AccessMode::Write | AccessMode::Exclusive)
                && matches!(a.region, Region::All)
            {
                hs.keys.clear();
                hs.ranges.clear();
            }
        }

        // Sort + dedup this task's tail of the arena in place.
        let tail = &mut preds[preds_start..];
        tail.sort_unstable();
        let mut uniq = 0usize;
        for i in 0..tail.len() {
            if uniq == 0 || tail[i] != tail[uniq - 1] {
                tail[uniq] = tail[i];
                uniq += 1;
            }
        }
        preds.truncate(preds_start + uniq);
        debug_assert!(preds[preds_start..].iter().all(|&p| p < idx));

        // All-default sentinel: when nothing renamed and every access
        // routes to slot 0, hand back an empty binding (`Box<[]>` does not
        // allocate) — readers reconstruct `SlotBinding::default()`.
        let slots_box: Box<[SlotBinding]> =
            if slot_scratch.iter().all(|b| *b == SlotBinding::default()) {
                Box::new([])
            } else {
                slot_scratch.as_slice().into()
            };
        tasks.push(TaskEntry {
            preds_start: preds_start as u32,
            preds_len: uniq as u32,
            holds_start: holds_start as u32,
            holds_len: (holds_arena.len() - holds_start) as u32,
            done: false,
        });
        Binding {
            index,
            slots: slots_box,
            renames,
        }
    }

    /// Predecessor set of task `idx` (sorted, deduplicated program-order
    /// indices, all smaller than `idx`).
    pub fn preds(&self, idx: usize) -> &[u32] {
        let t = &self.tasks[idx];
        let start = t.preds_start as usize;
        &self.preds_arena[start..start + t.preds_len as usize]
    }

    /// Record the completion of task `idx`: releases its hold on version
    /// slots (recycling drained, superseded ones) and updates readiness.
    /// Idempotent; unknown indices are ignored.
    pub fn complete(&mut self, idx: usize) {
        let Self {
            handles,
            tasks,
            holds_arena,
            ..
        } = self;
        let Some(entry) = tasks.get_mut(idx) else {
            return;
        };
        if entry.done {
            return;
        }
        entry.done = true;
        let start = entry.holds_start as usize;
        for (h, s) in &holds_arena[start..start + entry.holds_len as usize] {
            if let Some(hs) = handles.get_mut(h) {
                if let Some(p) = hs.pending.get_mut(s) {
                    *p -= 1;
                    if *p == 0 {
                        hs.maybe_recycle(*s, hs.cur_slot);
                    }
                }
            }
        }
    }

    /// Was `complete` called for task `idx`?
    pub fn is_done(&self, idx: usize) -> bool {
        self.tasks.get(idx).is_some_and(|t| t.done)
    }

    /// Drop all bindings and chains (frame reset / reuse). Keeps arena
    /// capacity: a recycled frame's next scope binds allocation-free once
    /// the arenas warmed up.
    pub fn clear(&mut self) {
        self.handles.clear();
        self.tasks.clear();
        self.preds_arena.clear();
        self.holds_arena.clear();
        self.slot_scratch.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(n: u64) -> HandleId {
        HandleId(n)
    }

    fn w(id: u64) -> Access {
        Access::new(h(id), Region::All, AccessMode::Write).with_renaming()
    }

    fn wx(id: u64) -> Access {
        Access::new(h(id), Region::All, AccessMode::Exclusive)
    }

    fn r(id: u64) -> Access {
        Access::new(h(id), Region::All, AccessMode::Read)
    }

    const ON: RenamePolicy = RenamePolicy {
        enabled: true,
        max_live_slots: 8,
    };
    const OFF: RenamePolicy = RenamePolicy {
        enabled: false,
        max_live_slots: 8,
    };

    #[test]
    fn raw_dependency_always_kept() {
        for pol in [ON, OFF] {
            let mut e = DataflowEngine::new();
            e.bind(&[w(1)], &pol);
            e.bind(&[r(1)], &pol);
            assert_eq!(e.preds(0), &[] as &[u32]);
            assert_eq!(e.preds(1), &[0], "RAW edge survives renaming");
        }
    }

    #[test]
    fn renaming_erases_war_waw() {
        let mut e = DataflowEngine::new();
        e.bind(&[w(1)], &ON); // v0 writer
        e.bind(&[r(1)], &ON); // reader of v0
        let b = e.bind(&[w(1)], &ON); // write-only again: renamed
        assert_eq!(b.renames, 1);
        assert!(b.slots[0].renamed);
        assert!(b.slots[0].slot > 0);
        assert_eq!(e.preds(2), &[] as &[u32], "WAR/WAW eliminated");
        // Reader of the renamed version depends only on its writer.
        e.bind(&[r(1)], &ON);
        assert_eq!(e.preds(3), &[2]);
    }

    #[test]
    fn renaming_off_serializes() {
        let mut e = DataflowEngine::new();
        e.bind(&[w(1)], &OFF);
        e.bind(&[r(1)], &OFF);
        let b = e.bind(&[w(1)], &OFF);
        assert_eq!(b.renames, 0);
        assert_eq!(b.slot(0).slot, 0);
        assert!(b.slots.is_empty(), "all-default binding takes the sentinel");
        assert_eq!(e.preds(2), &[0, 1]);
    }

    #[test]
    fn exclusive_never_renames() {
        let mut e = DataflowEngine::new();
        e.bind(&[wx(1)], &ON);
        e.bind(&[r(1)], &ON);
        let b = e.bind(&[wx(1)], &ON);
        assert_eq!(b.renames, 0);
        assert_eq!(e.preds(2), &[0, 1]);
    }

    #[test]
    fn first_write_needs_no_slot() {
        let mut e = DataflowEngine::new();
        let b = e.bind(&[w(1)], &ON);
        assert_eq!(b.renames, 0, "nothing to eliminate on the first version");
        assert_eq!(b.slot(0).slot, 0);
    }

    #[test]
    fn slot_cap_falls_back_to_serializing() {
        let pol = RenamePolicy {
            enabled: true,
            max_live_slots: 1,
        };
        let mut e = DataflowEngine::new();
        e.bind(&[w(1)], &pol); // slot 0
        let b1 = e.bind(&[w(1)], &pol); // renamed into the only extra slot
        assert_eq!(b1.renames, 1);
        let b2 = e.bind(&[w(1)], &pol); // cap reached: serializes
        assert_eq!(b2.renames, 0);
        assert_eq!(e.preds(2), &[1]);
    }

    #[test]
    fn slots_recycled_after_completion() {
        let pol = RenamePolicy {
            enabled: true,
            max_live_slots: 2,
        };
        let mut e = DataflowEngine::new();
        e.bind(&[w(1)], &pol); // slot 0
        let b1 = e.bind(&[w(1)], &pol); // renamed -> slot 1
        let b2 = e.bind(&[w(1)], &pol); // renamed -> slot 2 (supersedes 1)
        assert!(b1.slots[0].renamed && b2.slots[0].renamed);
        let s1 = b1.slots[0].slot;
        // Cap reached and nothing drained yet: the next write serializes.
        let b3 = e.bind(&[w(1)], &pol);
        assert_eq!(b3.renames, 0, "no slot available under the cap");
        // Slot 1 is superseded; once its writer completes it is recycled.
        e.complete(1);
        let b4 = e.bind(&[w(1)], &pol);
        assert_eq!(b4.renames, 1);
        assert_eq!(b4.slots[0].slot, s1, "drained superseded slot recycled");
    }

    #[test]
    fn initial_ready_set_grows_with_renaming() {
        let mk = |pol: &RenamePolicy| {
            let mut e = DataflowEngine::new();
            for _ in 0..6 {
                e.bind(&[w(1)], pol);
                e.bind(&[r(1)], pol);
                e.bind(&[r(1)], pol);
            }
            (0..e.len()).filter(|&i| e.preds(i).is_empty()).count()
        };
        let on = mk(&ON);
        let off = mk(&OFF);
        assert!(
            on > off,
            "renaming must widen the ready set ({on} vs {off})"
        );
        assert_eq!(off, 1, "serialized chain: only the first writer ready");
    }

    #[test]
    fn keyed_chains_are_independent() {
        let mut e = DataflowEngine::new();
        let p = |i, j, m| Access::new(h(7), Region::key2(i, j), m);
        e.bind(&[p(0, 0, AccessMode::Write)], &ON);
        e.bind(&[p(1, 1, AccessMode::Write)], &ON);
        e.bind(
            &[p(0, 0, AccessMode::Read), p(1, 1, AccessMode::Write)],
            &ON,
        );
        assert_eq!(e.preds(1), &[] as &[u32]);
        assert_eq!(e.preds(2), &[0, 1]);
    }

    #[test]
    fn whole_object_write_absorbs_tiles() {
        let mut e = DataflowEngine::new();
        let p = |i, j, m| Access::new(h(7), Region::key2(i, j), m);
        e.bind(&[p(0, 0, AccessMode::Write)], &ON);
        e.bind(
            &[Access::new(h(7), Region::All, AccessMode::Exclusive)],
            &ON,
        );
        e.bind(&[p(5, 5, AccessMode::Write)], &ON);
        assert_eq!(e.preds(1), &[0]);
        assert_eq!(e.preds(2), &[1], "later tile ordered after the All-write");
    }

    #[test]
    fn cross_shape_accesses_follow_slot_lineage() {
        // A renamed whole-object write moves the handle's data to a fresh
        // slot; a later keyed access must be routed to that slot and
        // ordered after the renamed writer.
        let mut e = DataflowEngine::new();
        e.bind(&[w(1)], &ON);
        e.bind(&[r(1)], &ON);
        let bw = e.bind(&[w(1)], &ON);
        assert!(bw.slots[0].renamed);
        let bk = e.bind(
            &[Access::new(h(1), Region::key2(0, 0), AccessMode::Write)],
            &ON,
        );
        assert_eq!(bk.slots[0].slot, bw.slots[0].slot);
        assert_eq!(e.preds(3), &[2]);
    }

    #[test]
    fn cumulative_writes_commute() {
        let mut e = DataflowEngine::new();
        let c = |id| Access::new(h(id), Region::All, AccessMode::CumulWrite);
        e.bind(&[c(3)], &ON);
        e.bind(&[c(3)], &ON);
        e.bind(&[r(3)], &ON);
        assert_eq!(e.preds(1), &[] as &[u32]);
        assert_eq!(e.preds(2), &[0, 1]);
    }

    #[test]
    fn seeds_chain_state_from_handle_lineage() {
        // A later scope's engine must pick up the slot and sequence the
        // previous scope committed (lineage = (seq << 16) | slot).
        let lineage = (5u64 << 16) | 2;
        let mut e = DataflowEngine::new();
        // Non-renamed first access binds the committed slot, not slot 0.
        let b0 = e.bind(&[wx(1).with_lineage(lineage)], &ON);
        assert_eq!(b0.slots[0].slot, 2);
        // A renamed write continues the committed sequence numbers.
        let b1 = e.bind(&[w(1).with_lineage(lineage)], &ON);
        assert!(b1.slots[0].renamed);
        assert_eq!(b1.slots[0].seq, 6, "seq monotonic across scopes");
        assert_ne!(b1.slots[0].slot, 2, "committed slot never reallocated");
        // Dead prior-scope slots (below the committed one) are recycled.
        assert_eq!(b1.slots[0].slot, 1);
    }

    fn tw(id: u64, i: usize, j: usize) -> Access {
        Access::new(h(id), Region::key2(i, j), AccessMode::Write).with_renaming()
    }

    fn tr(id: u64, i: usize, j: usize) -> Access {
        Access::new(h(id), Region::key2(i, j), AccessMode::Read)
    }

    #[test]
    fn keyed_writes_never_rename() {
        // A keyed write is partial: the other tiles must come from the
        // previous version, so even a flagged one keeps its WAR/WAW edges.
        let mut e = DataflowEngine::new();
        e.bind(&[tw(1, 0, 0)], &ON);
        e.bind(&[tr(1, 0, 0)], &ON);
        let b = e.bind(&[tw(1, 0, 0)], &ON);
        assert_eq!(b.renames, 0, "keyed writes serialize, never rename");
        assert_eq!(b.slot(0).slot, 0);
        assert_eq!(e.preds(2), &[0, 1]);
    }

    #[test]
    fn empty_regions_bind_to_nothing() {
        let mut e = DataflowEngine::new();
        let empty = Access::new(h(1), Region::Range { start: 3, end: 3 }, AccessMode::Write);
        e.bind(&[empty], &ON);
        e.bind(&[w(1)], &ON);
        assert_eq!(e.preds(1), &[] as &[u32]);
    }
}
