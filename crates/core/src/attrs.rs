//! Task scheduling attributes: the typed descriptor every front door
//! lowers to (`DESIGN.md` §5).
//!
//! Historically the runtime had several task front doors — `Ctx::spawn`,
//! `Ctx::join`, `Runtime::submit`, the QUARK insertion API — and none of
//! them could express *how* a task wants to be scheduled. [`TaskAttrs`] is
//! the one descriptor they all construct now: a [`Priority`] band consumed
//! by the queue layer (banded push/pop), the injection layer (per-priority
//! admission) and the dependency layer (banded ready lists), plus an
//! [`Affinity`] consumed by the injection layer (lane targeting) and the
//! steal layer (grab-to-thief matching).
//!
//! Users reach it through the builders — [`Ctx::task`](crate::Ctx::task)
//! for in-scope tasks, [`Runtime::task`](crate::Runtime::task) for root
//! jobs — while the legacy entry points delegate with
//! [`TaskAttrs::default`], which reproduces the pre-attribute behaviour
//! exactly (Normal band, no affinity).

use crate::access::Access;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Number of priority bands the scheduling layers maintain. Small and
/// fixed: every banded structure (queue lanes, ready lists, inject lanes)
/// holds one sub-queue per band.
pub const PRIORITY_BANDS: usize = 3;

/// Band index of [`Priority::Normal`] — the band whose behaviour is
/// exactly the pre-attribute scheduler (LIFO/FIFO order preserved).
pub(crate) const NORMAL_BAND: u8 = 1;

/// Scheduling priority of a task or root job.
///
/// Priorities are *bands*, not a total order over tasks: within one band
/// every queue keeps its historical order (owner LIFO / thief FIFO for the
/// distributed lanes, FIFO for the ready lists and inject lanes), and
/// higher bands are always drained before lower ones. The default
/// [`Priority::Normal`] band reproduces the pre-attribute behaviour
/// exactly.
///
/// At the injection admission cap, shedding is priority-ordered: [`Low`]
/// submissions are rejected while headroom is still reserved for the
/// higher bands, so a high-priority job is never shed before a
/// low-priority one (see
/// [`InjectPolicy`](crate::InjectPolicy)).
///
/// No `Ord` is exposed: declaration order is *band* order (High first),
/// which would make `High < Low` under a derived comparison — compare
/// [`Priority::band`] values explicitly instead.
///
/// [`Low`]: Priority::Low
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Priority {
    /// Drained before everything else (critical-path tasks).
    High,
    /// The default band: today's LIFO/FIFO behaviour, unchanged.
    #[default]
    Normal,
    /// Drained last; first to be shed under admission pressure.
    Low,
}

impl Priority {
    /// All priorities, highest first (band order).
    pub const ALL: [Priority; PRIORITY_BANDS] = [Priority::High, Priority::Normal, Priority::Low];

    /// Band index: 0 = high … [`PRIORITY_BANDS`]`- 1` = low. Banded
    /// structures are drained in ascending band order.
    #[inline]
    pub fn band(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }

    /// Table label (bench harnesses).
    pub fn label(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }
}

/// Data-affinity request of a task or root job: which NUMA node the work
/// would like to start on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Affinity {
    /// No placement preference (the default): root jobs hash to the
    /// submitter's lane, spawned tasks stay on the spawning worker.
    #[default]
    None,
    /// Derive the target node from the declared accesses' handles: the
    /// home node of the first *writing* access whose handle has a known
    /// home (explicit [`Shared::set_home`](crate::Shared::set_home) or
    /// first-touch), falling back to any access with a known home. When no
    /// access resolves, behaves like [`Affinity::None`].
    Auto,
    /// Target an explicit NUMA node (ignored when the node does not exist
    /// in the runtime's topology).
    Node(usize),
}

/// A shared cancellation flag, cooperatively checked by the scheduler.
///
/// Cloning a token shares the flag: cancelling any clone cancels them all.
/// Tokens ride in [`TaskAttrs`] and are inherited by every task spawned
/// inside a carrying scope, so cancelling the token at the root cancels the
/// whole dependency cone. Cancellation is *cooperative*: tasks already
/// running keep running (poll [`Ctx::is_cancelled`](crate::Ctx::is_cancelled)
/// to bail early), while tasks not yet started skip their body but still
/// satisfy every dataflow obligation — countdowns drain, joins return, and
/// nothing deadlocks (`DESIGN.md` §8).
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    inner: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cancel every task carrying (a clone of) this token. Idempotent;
    /// returns `true` the first time, `false` if already cancelled.
    pub fn cancel(&self) -> bool {
        !self.inner.swap(true, Ordering::Release)
    }

    /// Has this token been cancelled?
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.inner.load(Ordering::Acquire)
    }

    /// Same underlying flag? (Token identity, used by `TaskAttrs` equality.)
    pub(crate) fn same_as(&self, other: &CancelToken) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

/// The attribute block of one task: what the [`TaskBuilder`] and
/// [`JobBuilder`] accumulate and every scheduling layer consumes.
///
/// [`TaskBuilder`]: crate::TaskBuilder
/// [`JobBuilder`]: crate::JobBuilder
#[derive(Clone, Debug, Default)]
pub struct TaskAttrs {
    /// Priority band (queue pop order, ready-list order, inject drain
    /// order, admission shed order).
    pub priority: Priority,
    /// Data-affinity request (inject lane targeting, steal-serve
    /// grab-to-thief matching).
    pub affinity: Affinity,
    /// Cooperative cancellation token, if the task belongs to a cancellable
    /// cone. Inherited by child spawns (`DESIGN.md` §8).
    pub cancel: Option<CancelToken>,
}

impl PartialEq for TaskAttrs {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority
            && self.affinity == other.affinity
            && match (&self.cancel, &other.cancel) {
                (None, None) => true,
                (Some(a), Some(b)) => a.same_as(b),
                _ => false,
            }
    }
}

impl Eq for TaskAttrs {}

impl TaskAttrs {
    /// Band index shorthand.
    #[inline]
    pub(crate) fn band(&self) -> u8 {
        self.priority.band() as u8
    }

    /// True when every field is the default (Normal band, no affinity, no
    /// cancel token).
    ///
    /// The spawn path monomorphizes on this: a default spawn takes the
    /// `#[inline]` fast lowering identical to the pre-attribute runtime,
    /// while anything else falls to the `#[cold]` attributed path. Keeping
    /// the check a few flag comparisons keeps it free after inlining.
    #[inline]
    pub(crate) fn is_default(&self) -> bool {
        matches!(self.priority, Priority::Normal)
            && matches!(self.affinity, Affinity::None)
            && self.cancel.is_none()
    }

    /// Is this task's cancel token (if any) cancelled?
    #[inline]
    pub(crate) fn is_cancelled(&self) -> bool {
        match &self.cancel {
            None => false,
            Some(t) => t.is_cancelled(),
        }
    }

    /// Resolve the affinity against a set of declared accesses and a
    /// topology with `nodes` NUMA nodes. `None` means "no placement
    /// preference" (hash/stay local, as before).
    pub(crate) fn resolve_node(&self, accesses: &[Access], nodes: usize) -> Option<usize> {
        match self.affinity {
            Affinity::None => None,
            Affinity::Node(n) => (n < nodes).then_some(n),
            Affinity::Auto => {
                let home_of = |a: &Access| a.home_node().filter(|&n| n < nodes);
                accesses
                    .iter()
                    .filter(|a| a.mode.writes())
                    .find_map(home_of)
                    .or_else(|| accesses.iter().find_map(home_of))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{AccessMode, HandleId, Region};

    fn acc(h: u64, mode: AccessMode, home: Option<usize>) -> Access {
        let a = Access::new(HandleId(h), Region::All, mode);
        match home {
            Some(n) => a.with_home(n as u32),
            None => a,
        }
    }

    #[test]
    fn bands_are_ordered_high_first() {
        assert_eq!(Priority::High.band(), 0);
        assert_eq!(Priority::Normal.band(), 1);
        assert_eq!(Priority::Low.band(), 2);
        assert_eq!(Priority::default(), Priority::Normal);
        assert_eq!(Priority::ALL.map(Priority::band), [0, 1, 2]);
    }

    #[test]
    fn resolve_none_and_explicit_node() {
        let attrs = TaskAttrs::default();
        assert_eq!(attrs.resolve_node(&[], 4), None);
        let attrs = TaskAttrs {
            affinity: Affinity::Node(2),
            ..Default::default()
        };
        assert_eq!(attrs.resolve_node(&[], 4), Some(2));
        // A node outside the topology is ignored, not clamped.
        assert_eq!(attrs.resolve_node(&[], 2), None);
    }

    #[test]
    fn resolve_auto_prefers_writing_access() {
        let attrs = TaskAttrs {
            affinity: Affinity::Auto,
            ..Default::default()
        };
        let accs = [
            acc(1, AccessMode::Read, Some(0)),
            acc(2, AccessMode::Exclusive, Some(1)),
        ];
        assert_eq!(attrs.resolve_node(&accs, 2), Some(1), "writer wins");
        let readers_only = [acc(1, AccessMode::Read, Some(0))];
        assert_eq!(attrs.resolve_node(&readers_only, 2), Some(0));
        let unhomed = [acc(1, AccessMode::Write, None)];
        assert_eq!(attrs.resolve_node(&unhomed, 2), None);
        // A home outside the topology cannot be targeted.
        let far = [acc(1, AccessMode::Write, Some(7))];
        assert_eq!(attrs.resolve_node(&far, 2), None);
    }
}
