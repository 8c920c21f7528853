//! Pluggable scheduler policies: the thief-side steal protocol
//! ([`StealPolicy`]) and the write-only renaming knobs ([`RenamePolicy`]).
//!
//! Idle workers post request nodes onto a victim's Treiber stack and race
//! for its steal lock; the winner (the *elected combiner*) drains every
//! pending request. The policy decides three things (DESIGN.md §3):
//!
//! * **victim selection** ([`StealPolicy::choose_victim`]) — which worker
//!   to probe, given the machine [`Topology`] and how long this thief has
//!   failed to find work;
//! * **batch sizing** ([`StealPolicy::serve_batch`]) — of the drained
//!   requests, how many the combiner serves in one traversal (the rest are
//!   re-queued for the next combiner pass);
//! * **service order** ([`StealPolicy::thief_priority`]) — when the batch
//!   is bounded, which thieves get the grabs first (near ones, under the
//!   locality-aware policies).
//!
//! Implementations:
//!
//! * [`AggregatedStealing`] — flat combining, the paper's design: uniform
//!   victims, the combiner serves **all** drained requests in a single
//!   traversal of the victim's work (N requests, one ready-task detection);
//! * [`PerThiefStealing`] — the ablation baseline: the combiner serves only
//!   itself (each thief pays its own traversal);
//! * [`HierarchicalVictim`] — prefer victims on the thief's own NUMA node,
//!   escalate outward as the fail streak grows; bounded, near-first batches;
//! * [`LocalityFirst`] — rank victims by topology distance and walk the
//!   distance rings outward probabilistically; bounded, near-first batches.
//!
//! Implementations are stateless value objects; per-thief state (the fail
//! streak) lives on the worker and is passed in.

use crate::topology::Topology;

/// A victim pick returned by [`StealPolicy::choose_victim`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VictimChoice {
    /// The worker to probe (never the thief itself).
    pub victim: usize,
    /// True when the policy deliberately left its preferred (nearest)
    /// victim set — counted as `victim_escalations` in the stats.
    pub escalated: bool,
}

impl VictimChoice {
    /// A pick inside the preferred set.
    pub fn near(victim: usize) -> VictimChoice {
        VictimChoice {
            victim,
            escalated: false,
        }
    }

    /// A pick outside the preferred set (escalation).
    pub fn far(victim: usize) -> VictimChoice {
        VictimChoice {
            victim,
            escalated: true,
        }
    }
}

/// Uniform victim over all workers except `me` (the classic randomized
/// work-stealing choice). Requires at least two workers.
pub fn uniform_victim(me: usize, workers: usize, rng: &mut dyn FnMut() -> u64) -> usize {
    debug_assert!(workers >= 2);
    let mut v = (rng() % (workers as u64 - 1)) as usize;
    if v >= me {
        v += 1;
    }
    v
}

/// Uniform pick from a candidate slice, skipping `me` (the caller
/// guarantees at least one candidate != me).
fn pick_excluding(cands: &[usize], me: usize, rng: &mut dyn FnMut() -> u64) -> Option<usize> {
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

/// Thief-side steal protocol of the engine: victim selection + combiner
/// batch policy.
pub trait StealPolicy: Send + Sync {
    /// Short human-readable name (ablation tables).
    fn name(&self) -> &'static str;

    /// Of `pending` drained requests, how many the elected combiner serves
    /// in this batch. The remainder are re-queued onto the victim's request
    /// stack (served by the next combiner pass) while the victim still has
    /// work. Must return at least 1 when `pending >= 1`.
    fn serve_batch(&self, pending: usize) -> usize;

    /// Pick a victim for thief `me`. `rng` is the thief's private xorshift
    /// stream; `fail_streak` counts this thief's consecutive failed steal
    /// attempts (reset on every successful work acquisition) — policies use
    /// it to escalate from near victims to far ones. Called with at least
    /// two workers in the topology. Default: uniform over everyone else.
    fn choose_victim(
        &self,
        me: usize,
        rng: &mut dyn FnMut() -> u64,
        topo: &Topology,
        fail_streak: u32,
    ) -> VictimChoice {
        let _ = fail_streak;
        VictimChoice::near(uniform_victim(me, topo.workers(), rng))
    }

    /// Service-priority key for a drained request when the combiner hands
    /// out a bounded batch: lower keys are served first (stable for ties,
    /// so the default constant preserves arrival order). Locality-aware
    /// policies return the victim→thief distance, handing grabs to near
    /// thieves before far ones.
    fn thief_priority(&self, victim: usize, thief: usize, topo: &Topology) -> u32 {
        let _ = (victim, thief, topo);
        0
    }
}

/// Flat-combining aggregation: one combiner serves every pending request;
/// victims chosen uniformly.
#[derive(Clone, Copy, Debug, Default)]
pub struct AggregatedStealing;

impl StealPolicy for AggregatedStealing {
    fn name(&self) -> &'static str {
        "aggregated"
    }

    fn serve_batch(&self, pending: usize) -> usize {
        pending
    }
}

/// Naive per-thief stealing: the combiner serves only itself; victims
/// chosen uniformly.
#[derive(Clone, Copy, Debug, Default)]
pub struct PerThiefStealing;

impl StealPolicy for PerThiefStealing {
    fn name(&self) -> &'static str {
        "per-thief"
    }

    fn serve_batch(&self, pending: usize) -> usize {
        pending.min(1)
    }
}

/// Hierarchical victim selection: probe victims on the thief's own NUMA
/// node until the fail streak says the node is dry, then escalate to the
/// whole machine. Batches are bounded (`max_batch`) and near thieves are
/// served first.
#[derive(Clone, Copy, Debug)]
pub struct HierarchicalVictim {
    /// Consecutive failed attempts before the thief starts probing remote
    /// nodes. Below this, only same-node victims are chosen.
    pub escalate_after: u32,
    /// Combiner batch bound: serve at most this many of the drained
    /// requests per pass (ROADMAP's bounded-batch spectrum point).
    pub max_batch: usize,
}

impl Default for HierarchicalVictim {
    fn default() -> Self {
        HierarchicalVictim {
            escalate_after: 4,
            max_batch: 8,
        }
    }
}

impl StealPolicy for HierarchicalVictim {
    fn name(&self) -> &'static str {
        "hierarchical"
    }

    fn serve_batch(&self, pending: usize) -> usize {
        pending.min(self.max_batch.max(1))
    }

    fn choose_victim(
        &self,
        me: usize,
        rng: &mut dyn FnMut() -> u64,
        topo: &Topology,
        fail_streak: u32,
    ) -> VictimChoice {
        let local = topo.workers_on_node(topo.node_of(me));
        if fail_streak < self.escalate_after {
            if let Some(v) = pick_excluding(local, me, rng) {
                return VictimChoice::near(v);
            }
        }
        // Escalate: the local node failed `escalate_after` times in a row
        // (or the thief is alone on it) — go machine-wide. Counted as an
        // escalation only when a local alternative existed.
        let v = uniform_victim(me, topo.workers(), rng);
        if local.len() > 1 {
            VictimChoice::far(v)
        } else {
            VictimChoice::near(v)
        }
    }

    fn thief_priority(&self, victim: usize, thief: usize, topo: &Topology) -> u32 {
        topo.distance(victim, thief)
    }
}

/// Locality-first victim selection: victims ranked by topology distance;
/// the thief walks the distance rings outward probabilistically (¾ of
/// picks stay in the nearest ring, each farther ring is 4× less likely),
/// shifted outward by the fail streak so a dry neighbourhood is abandoned.
/// Batches are bounded and near thieves are served first.
#[derive(Clone, Copy, Debug)]
pub struct LocalityFirst {
    /// Fail streak granting one extra starting ring (escalation speed).
    pub escalate_after: u32,
    /// Combiner batch bound (serve ≤ k of N drained requests).
    pub max_batch: usize,
}

impl Default for LocalityFirst {
    fn default() -> Self {
        LocalityFirst {
            escalate_after: 8,
            max_batch: 8,
        }
    }
}

impl StealPolicy for LocalityFirst {
    fn name(&self) -> &'static str {
        "locality-first"
    }

    fn serve_batch(&self, pending: usize) -> usize {
        pending.min(self.max_batch.max(1))
    }

    fn choose_victim(
        &self,
        me: usize,
        rng: &mut dyn FnMut() -> u64,
        topo: &Topology,
        fail_streak: u32,
    ) -> VictimChoice {
        if topo.is_flat() {
            return VictimChoice::near(uniform_victim(me, topo.workers(), rng));
        }
        let rings = topo.distance_rings(me);
        // Starting ring grows with the fail streak; a geometric coin walks
        // farther outward (probabilistic tie-break between equally-ranked
        // escape hatches).
        let mut ring = ((fail_streak / self.escalate_after.max(1)) as usize).min(rings.len() - 1);
        while ring + 1 < rings.len() && rng().is_multiple_of(4) {
            ring += 1;
        }
        let max_d = rings[ring];
        let my_node = topo.node_of(me);
        // Candidate nodes within the chosen radius, then a uniform pick
        // among their workers (weighted by node population).
        let mut cand_workers = 0usize;
        for n in 0..topo.nodes() {
            if topo.distances().get(my_node, n) <= max_d {
                cand_workers += topo.workers_on_node(n).len();
            }
        }
        if cand_workers <= 1 {
            // No near alternative existed within the radius, so the
            // machine-wide fallback is not a *deliberate* escalation
            // (mirrors HierarchicalVictim's lone-worker-on-a-node case).
            return VictimChoice::near(uniform_victim(me, topo.workers(), rng));
        }
        loop {
            let mut pick = (rng() % cand_workers as u64) as usize;
            for n in 0..topo.nodes() {
                if topo.distances().get(my_node, n) > max_d {
                    continue;
                }
                let ws = topo.workers_on_node(n);
                if pick < ws.len() {
                    let v = ws[pick];
                    if v == me {
                        break; // reroll
                    }
                    return if topo.same_node(me, v) {
                        VictimChoice::near(v)
                    } else {
                        VictimChoice::far(v)
                    };
                }
                pick -= ws.len();
            }
        }
    }

    fn thief_priority(&self, victim: usize, thief: usize, topo: &Topology) -> u32 {
        topo.distance(victim, thief)
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

    /// Seeded xorshift64* closure for deterministic policy tests.
    fn seeded_rng(mut x: u64) -> impl FnMut() -> u64 {
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    #[test]
    fn rename_defaults() {
        let p = RenamePolicy::default();
        assert!(p.enabled);
        assert!(p.max_live_slots >= 1);
    }

    #[test]
    fn batch_sizes() {
        assert_eq!(AggregatedStealing.serve_batch(7), 7);
        assert_eq!(AggregatedStealing.serve_batch(1), 1);
        assert_eq!(PerThiefStealing.serve_batch(7), 1);
        assert_eq!(PerThiefStealing.serve_batch(0), 0);
        let h = HierarchicalVictim {
            escalate_after: 4,
            max_batch: 3,
        };
        assert_eq!(h.serve_batch(7), 3);
        assert_eq!(h.serve_batch(2), 2);
        let l = LocalityFirst {
            escalate_after: 8,
            max_batch: 2,
        };
        assert_eq!(l.serve_batch(7), 2);
    }

    #[test]
    fn uniform_never_picks_me() {
        let mut rng = seeded_rng(42);
        for me in 0..4 {
            for _ in 0..100 {
                let v = uniform_victim(me, 4, &mut rng);
                assert_ne!(v, me);
                assert!(v < 4);
            }
        }
    }

    #[test]
    fn near_priorities_sort_first() {
        let topo = Topology::two_level(8, 4);
        let h = HierarchicalVictim::default();
        // Victim 0: same-node thief 1 outranks remote thief 5.
        assert!(h.thief_priority(0, 1, &topo) < h.thief_priority(0, 5, &topo));
        // The default policy is order-preserving (constant key).
        assert_eq!(AggregatedStealing.thief_priority(0, 5, &topo), 0);
    }
}
