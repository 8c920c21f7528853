//! Access modes and memory regions for data-flow dependency computation.
//!
//! X-Kaapi tasks declare *how* they touch shared memory: the runtime derives
//! true (read-after-write) dependencies — and, for exclusive accesses, the
//! write-after-read / write-after-write orderings of the sequential program —
//! from these declarations. A *region* names the part of a handle a task
//! touches; two accesses conflict when their regions overlap and at least one
//! of the modes writes (cumulative writes commute among themselves).
//!
//! The WAR/WAW orderings of a *write-only* access on a renameable handle are
//! not hard conflicts: the versioned data-flow core ([`crate::dataflow`])
//! eliminates them by handing the writer a fresh version of the data
//! (*renaming*, see `DESIGN.md` §2). [`Access::conflicts_with`] stays
//! conservative — it reports the pairwise ordering a runtime without
//! renaming would enforce.

use std::fmt;

/// Unique identifier of a shared-data handle.
///
/// Allocated from a process-global counter; equality of two `HandleId`s means
/// the accesses may alias and must be checked for region overlap.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HandleId(pub(crate) u64);

impl fmt::Debug for HandleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

pub(crate) fn fresh_handle_id() -> HandleId {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    HandleId(NEXT.fetch_add(1, Ordering::Relaxed))
}

/// The mode with which a task accesses a memory region.
///
/// These are the four modes of the X-Kaapi model (read, write, exclusive and
/// reduction). `Write` and `Exclusive` differ semantically:
///
/// * `Write` is **write-only**: the task promises to fully overwrite the
///   region without reading it. On a renameable handle the runtime may
///   *rename* the access — hand the task a fresh version buffer — which
///   eliminates its WAR/WAW ordering edges (`DESIGN.md` §2). A task that
///   only partially writes a renamed region observes unspecified contents
///   in the untouched part.
/// * `Exclusive` is a read-write access: the task may read the previous
///   value, so it always serializes behind earlier readers and writers.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum AccessMode {
    /// Shared read access. Concurrent with other reads.
    Read,
    /// Write-only access (full overwrite; renameable, see `DESIGN.md` §2).
    Write,
    /// Exclusive read-write access (always serializing).
    Exclusive,
    /// Cumulative write (reduction). Commutes with other cumulative writes
    /// on the same region; ordered against reads and writes.
    CumulWrite,
}

impl AccessMode {
    /// Does this mode modify the region?
    #[inline]
    pub fn writes(self) -> bool {
        !matches!(self, AccessMode::Read)
    }

    /// Is this the write-only mode whose WAR/WAW edges renaming can erase?
    #[inline]
    pub fn is_write_only(self) -> bool {
        matches!(self, AccessMode::Write)
    }

    /// Do two accesses to the *same* region require an ordering edge?
    ///
    /// Read/Read never conflicts; CumulWrite/CumulWrite commutes (the merge
    /// is associative), every other pair involving a write conflicts.
    #[inline]
    pub fn conflicts_with(self, other: AccessMode) -> bool {
        use AccessMode::*;
        match (self, other) {
            (Read, Read) => false,
            (CumulWrite, CumulWrite) => false,
            (a, b) => a.writes() || b.writes(),
        }
    }
}

/// The part of a handle's data a task accesses.
///
/// X-Kaapi supports multi-dimensional regions; this reproduction provides the
/// three shapes its workloads need:
///
/// * [`Region::All`] — the whole object (scalar handles, whole arrays);
/// * [`Region::Range`] — a 1-D index interval (array slices);
/// * [`Region::Key`] — an opaque coordinate (e.g. a tile `(i, j)` packed into
///   a `u64`); two keyed regions overlap iff the keys are equal.
///
/// Mixing shapes on one handle is allowed and resolved conservatively (a
/// `Key` and a `Range` on the same handle are assumed to overlap).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Region {
    /// The entire object behind the handle.
    All,
    /// Elements `start..end` (1-D).
    Range {
        /// First element index.
        start: usize,
        /// One past the last element index.
        end: usize,
    },
    /// An opaque block coordinate; equal keys alias, distinct keys do not.
    Key(u64),
}

impl Region {
    /// Pack a 2-D block coordinate into a keyed region.
    #[inline]
    pub fn key2(i: usize, j: usize) -> Region {
        debug_assert!(i < u32::MAX as usize && j < u32::MAX as usize);
        Region::Key(((i as u64) << 32) | j as u64)
    }

    /// Conservative overlap test between two regions of the same handle.
    #[inline]
    pub fn overlaps(&self, other: &Region) -> bool {
        use Region::*;
        match (self, other) {
            (All, _) | (_, All) => true,
            (Range { start: a, end: b }, Range { start: c, end: d }) => a < d && c < b,
            (Key(a), Key(b)) => a == b,
            // Mixed shapes on one handle: assume aliasing.
            (Key(_), Range { .. }) | (Range { .. }, Key(_)) => true,
        }
    }

    /// An empty region never overlaps anything (including itself).
    #[inline]
    pub fn is_empty(&self) -> bool {
        matches!(self, Region::Range { start, end } if start >= end)
    }
}

/// One declared access of a task: which handle, which part, which mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    /// Handle whose data is accessed.
    pub handle: HandleId,
    /// Which part of the handle.
    pub region: Region,
    /// How it is accessed.
    pub mode: AccessMode,
    /// The handle can grow version slots, so a whole-object write-only
    /// access may be renamed. Set by the renameable handle constructors.
    renameable: bool,
    /// Snapshot of the handle's committed `(seq << 16) | slot` word, taken
    /// by the handle's access constructors. The data-flow engine seeds a
    /// handle's version-chain state from the first access it sees, so a
    /// fresh frame (a later scope) picks up the slot lineage and sequence
    /// numbers a previous scope committed. Zero for plain handles.
    pub(crate) lineage: u64,
    /// Snapshot of the handle's *home NUMA node* (`u32::MAX` = unknown),
    /// stamped by the handle's access constructors alongside `lineage`.
    /// [`Affinity::Auto`](crate::Affinity::Auto) derives a task's target
    /// node from these stamps. Homes come from an explicit
    /// [`Shared::set_home`](crate::Shared::set_home) or from first-touch
    /// (the node of the first worker that wrote through the handle).
    pub(crate) home: u32,
}

impl Access {
    /// Build an access descriptor.
    #[inline]
    pub fn new(handle: HandleId, region: Region, mode: AccessMode) -> Self {
        Access {
            handle,
            region,
            mode,
            renameable: false,
            lineage: 0,
            home: u32::MAX,
        }
    }

    /// Stamp the handle's committed-version snapshot (handle layer only).
    #[inline]
    pub(crate) fn with_lineage(mut self, lineage: u64) -> Self {
        self.lineage = lineage;
        self
    }

    /// Stamp the handle's home-node snapshot (handle layer only;
    /// `u32::MAX` = unknown).
    #[inline]
    pub(crate) fn with_home(mut self, home: u32) -> Self {
        self.home = home;
        self
    }

    /// NUMA node owning the handle's data, if known — the signal
    /// [`Affinity::Auto`](crate::Affinity::Auto) placement reads.
    #[inline]
    pub fn home_node(&self) -> Option<usize> {
        (self.home != u32::MAX).then_some(self.home as usize)
    }

    /// Mark this access as renameable: the handle it names supports version
    /// slots ([`Shared::renameable`](crate::Shared::renameable) /
    /// [`Partitioned::renameable_with`](crate::Partitioned::renameable_with)).
    ///
    /// The flag takes effect only on a whole-object write-only access (see
    /// [`Access::can_rename`]); on any other access it is ignored. Flagging
    /// an access whose handle has no slot table makes the granted task
    /// panic when it touches the data. Prefer the handle's own constructors
    /// ([`Shared::write`](crate::Shared::write),
    /// [`Partitioned::write_all`](crate::Partitioned::write_all)): they
    /// also stamp the committed-version snapshot that keeps slot routing
    /// correct across scopes.
    #[inline]
    pub fn with_renaming(mut self) -> Self {
        self.renameable = true;
        self
    }

    /// May the versioned data-flow core rename this access? Only a flagged
    /// write-only access to [`Region::All`] qualifies: a renamed writer
    /// gets a fresh buffer, so it must overwrite the whole object. A
    /// [`Region::Key`] or [`Region::Range`] write is partial — the
    /// untouched part must come from the previous version — so it always
    /// serializes.
    #[inline]
    pub fn can_rename(&self) -> bool {
        self.renameable && self.mode.is_write_only() && self.region == Region::All
    }

    /// Do two accesses require an ordering edge between their tasks?
    #[inline]
    pub fn conflicts_with(&self, other: &Access) -> bool {
        self.handle == other.handle
            && !self.region.is_empty()
            && !other.region.is_empty()
            && self.mode.conflicts_with(other.mode)
            && self.region.overlaps(&other.region)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(n: u64) -> HandleId {
        HandleId(n)
    }

    #[test]
    fn mode_conflicts() {
        use AccessMode::*;
        assert!(!Read.conflicts_with(Read));
        assert!(!CumulWrite.conflicts_with(CumulWrite));
        assert!(Read.conflicts_with(Write));
        assert!(Write.conflicts_with(Read));
        assert!(Write.conflicts_with(Write));
        assert!(Exclusive.conflicts_with(Exclusive));
        assert!(Read.conflicts_with(CumulWrite));
        assert!(CumulWrite.conflicts_with(Exclusive));
    }

    #[test]
    fn region_overlap_ranges() {
        let r = |a, b| Region::Range { start: a, end: b };
        assert!(r(0, 10).overlaps(&r(5, 15)));
        assert!(!r(0, 10).overlaps(&r(10, 20)));
        assert!(r(0, 10).overlaps(&Region::All));
        assert!(r(3, 3).is_empty());
        assert!(!r(3, 4).is_empty());
    }

    #[test]
    fn region_overlap_keys() {
        assert!(Region::key2(1, 2).overlaps(&Region::key2(1, 2)));
        assert!(!Region::key2(1, 2).overlaps(&Region::key2(2, 1)));
        assert!(Region::key2(1, 2).overlaps(&Region::All));
        // mixed shapes are conservative
        assert!(Region::Key(7).overlaps(&Region::Range { start: 0, end: 1 }));
    }

    #[test]
    fn access_conflicts_require_same_handle() {
        let a = Access::new(h(1), Region::All, AccessMode::Write);
        let b = Access::new(h(2), Region::All, AccessMode::Write);
        assert!(!a.conflicts_with(&b));
        let c = Access::new(h(1), Region::All, AccessMode::Read);
        assert!(a.conflicts_with(&c));
    }

    #[test]
    fn empty_regions_never_conflict() {
        let a = Access::new(h(1), Region::Range { start: 4, end: 4 }, AccessMode::Write);
        let b = Access::new(h(1), Region::All, AccessMode::Write);
        assert!(!a.conflicts_with(&b));
        assert!(!a.conflicts_with(&a));
    }

    #[test]
    fn task_conflicts_any_pair() {
        let conflict =
            |a: &[Access], b: &[Access]| a.iter().any(|x| b.iter().any(|y| x.conflicts_with(y)));
        let a = [
            Access::new(h(1), Region::key2(0, 0), AccessMode::Read),
            Access::new(h(1), Region::key2(0, 1), AccessMode::Write),
        ];
        let b = [Access::new(h(1), Region::key2(0, 0), AccessMode::Write)];
        let c = [Access::new(h(1), Region::key2(1, 1), AccessMode::Write)];
        assert!(conflict(&a, &b));
        assert!(!conflict(&a, &c));
    }

    #[test]
    fn rename_capability() {
        let w = Access::new(h(1), Region::All, AccessMode::Write);
        assert!(!w.can_rename(), "plain handles never rename");
        assert!(w.with_renaming().can_rename());
        // Only whole-object write-only accesses are candidates.
        let e = Access::new(h(1), Region::All, AccessMode::Exclusive);
        assert!(!e.with_renaming().can_rename());
        let r = Access::new(h(1), Region::All, AccessMode::Read);
        assert!(!r.with_renaming().can_rename());
        let part = Access::new(h(1), Region::Range { start: 0, end: 4 }, AccessMode::Write);
        assert!(!part.with_renaming().can_rename());
        // A single-tile write is partial too: never a candidate.
        let tile = Access::new(h(1), Region::key2(1, 2), AccessMode::Write);
        assert!(!tile.with_renaming().can_rename());
    }
}
