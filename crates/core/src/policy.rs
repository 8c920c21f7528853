//! The steal protocol's two settings ([`Steal`]) and the write-only
//! renaming knobs ([`RenamePolicy`]).
//!
//! Idle workers post request nodes onto a victim's Treiber stack and race
//! for its steal lock; the winner (the *elected combiner*) drains every
//! pending request and serves a batch of them in one pass over the
//! victim's work (`DESIGN.md` §3). The protocol is one; a [`Steal`] value
//! sets its two free parameters:
//!
//! * [`Steal::victim`] — which worker a thief probes: uniformly among all
//!   others, or ([`Victim::Hierarchical`]) on its own NUMA node first,
//!   machine-wide once its fail streak says the node is dry;
//! * [`Steal::max_batch`] — how many of the drained requests one combiner
//!   pass serves; the rest are re-queued for the next pass while the
//!   victim still has work. Unbounded is the paper's request aggregation
//!   ([`Steal::AGGREGATED`]), 1 its per-thief ablation
//!   ([`Steal::PER_THIEF`]).

use crate::topology::Topology;

/// Which worker a thief probes (see [`Steal::choose_victim`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Victim {
    /// Uniform over every other worker (classic randomized stealing).
    Uniform,
    /// Same-node victims while the thief's fail streak is below
    /// `escalate_after`, then the whole machine (counted as
    /// `victim_escalations`). A bounded batch serves near thieves first.
    /// `u32::MAX` never escalates: a thief then steals only on its own
    /// node, unless it is alone there.
    Hierarchical {
        /// Consecutive failed attempts before remote victims are probed.
        escalate_after: u32,
    },
}

/// The thief-side steal protocol: victim choice and combiner batch bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Steal {
    /// Victim selection.
    pub victim: Victim,
    /// Requests one combiner pass serves at most (values below 1 act as 1).
    pub max_batch: usize,
}

impl Steal {
    /// Flat combining, the paper's design and the default: uniform
    /// victims, every drained request served in one pass.
    pub const AGGREGATED: Steal = Steal {
        victim: Victim::Uniform,
        max_batch: usize::MAX,
    };

    /// The no-aggregation ablation: uniform victims, each combiner serves
    /// only itself.
    pub const PER_THIEF: Steal = Steal {
        victim: Victim::Uniform,
        max_batch: 1,
    };

    /// Same node first, escalating after 4 failed attempts; batches of at
    /// most 8 requests.
    pub const fn hierarchical() -> Steal {
        Steal {
            victim: Victim::Hierarchical { escalate_after: 4 },
            max_batch: 8,
        }
    }

    /// Short name (ablation tables).
    pub fn name(&self) -> &'static str {
        match self.victim {
            Victim::Hierarchical { .. } => "hierarchical",
            Victim::Uniform if self.max_batch == 1 => "per-thief",
            Victim::Uniform => "aggregated",
        }
    }

    /// Of `pending` drained requests, how many one combiner pass serves.
    pub(crate) fn batch(&self, pending: usize) -> usize {
        pending.min(self.max_batch).max(1)
    }

    /// Pick a victim for thief `me`, and whether the pick deliberately
    /// left the thief's node. `rng` is the thief's private xorshift
    /// stream; `fail_streak` counts its consecutive failed attempts. Needs
    /// at least two workers in `topo`; never returns `me`.
    pub fn choose_victim(
        &self,
        me: usize,
        rng: &mut impl FnMut() -> u64,
        topo: &Topology,
        fail_streak: u32,
    ) -> (usize, bool) {
        let Victim::Hierarchical { escalate_after } = self.victim else {
            return (uniform_victim(me, topo.workers(), rng), false);
        };
        let local = topo.workers_on_node(topo.node_of(me));
        if fail_streak < escalate_after {
            if let Some(v) = pick_excluding(local, me, rng) {
                return (v, false);
            }
        }
        // Machine-wide: an escalation only when a local alternative existed.
        (uniform_victim(me, topo.workers(), rng), local.len() > 1)
    }

    /// Whether thief `me` may ever steal from `victim`. A worker about to
    /// park probes every victim this allows (the park handshake in
    /// `crate::worker`), and wakes go only to workers that may reach the
    /// work.
    pub(crate) fn may_steal_from(&self, me: usize, victim: usize, topo: &Topology) -> bool {
        match self.victim {
            Victim::Uniform => true,
            Victim::Hierarchical { escalate_after } => {
                escalate_after < u32::MAX
                    || topo.same_node(me, victim)
                    || topo.workers_on_node(topo.node_of(me)).len() <= 1
            }
        }
    }
}

/// Uniform pick among all workers but `me` (needs two workers).
fn uniform_victim(me: usize, workers: usize, rng: &mut impl FnMut() -> u64) -> usize {
    debug_assert!(workers >= 2);
    let mut v = (rng() % (workers as u64 - 1)) as usize;
    if v >= me {
        v += 1;
    }
    v
}

/// Uniform pick from `cands` other than `me`, if there is one.
fn pick_excluding(cands: &[usize], me: usize, rng: &mut impl FnMut() -> u64) -> Option<usize> {
    let n = cands.len();
    if n == 0 || (n == 1 && cands[0] == me) {
        return None;
    }
    loop {
        let v = cands[(rng() % n as u64) as usize];
        if v != me {
            return Some(v);
        }
    }
}

/// Knobs for write-only **renaming** (WAR/WAW elimination, DESIGN.md §2).
///
/// A task declaring a write-only ([`AccessMode::Write`]) whole-object access
/// on a renameable handle would normally be ordered after every earlier
/// reader and writer of that object (the write-after-read / write-after-write
/// orderings of the sequential program). Renaming hands the writer a *fresh
/// version slot* of the data instead, so those ordering edges disappear and
/// repeated overwrites pipeline across workers. The policy bounds how many
/// uncommitted version buffers one handle may hold and provides the master
/// switch the ablation benchmarks A/B.
///
/// [`AccessMode::Write`]: crate::AccessMode::Write
#[derive(Clone, Copy, Debug)]
pub struct RenamePolicy {
    /// Master switch; `false` makes write-only behave like exclusive
    /// (serializing) even on renameable handles.
    pub enabled: bool,
    /// Maximum live (not yet reclaimed) version slots per handle beyond the
    /// original buffer. A write-only access that cannot get a slot under
    /// this cap falls back to serializing semantics. Capped internally at
    /// `u16::MAX - 1` (slot ids are packed into 16 bits).
    pub max_live_slots: u32,
}

impl Default for RenamePolicy {
    fn default() -> Self {
        RenamePolicy {
            enabled: true,
            max_live_slots: 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rename_defaults() {
        let p = RenamePolicy::default();
        assert!(p.enabled);
        assert!(p.max_live_slots >= 1);
    }
}
