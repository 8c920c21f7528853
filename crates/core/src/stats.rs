//! Runtime statistics: per-worker cache-padded counters, aggregated on demand.
//!
//! The counters exist for two reasons: tests assert scheduler behaviours
//! (e.g. "aggregation served several thieves in one combine", "the frame was
//! promoted"), and the figure harnesses report them next to
//! timings, mirroring the paper's discussion of steal-request counts.

use crossbeam_utils::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident),+ $(,)?) => {
        /// Per-worker counters (cache-padded, relaxed increments).
        #[derive(Default)]
        pub(crate) struct WorkerStats {
            $($(#[$doc])* pub(crate) $name: CachePadded<AtomicU64>,)+
        }

        impl WorkerStats {
            fn add_into(&self, snap: &mut StatsSnapshot) {
                $(snap.$name += self.$name.load(Ordering::Relaxed);)+
            }
            fn reset(&self) {
                $(self.$name.store(0, Ordering::Relaxed);)+
            }
        }

        /// Aggregated scheduler statistics across all workers.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $($(#[$doc])* pub $name: u64,)+
            /// Per-band latency quantiles from the telemetry histograms
            /// (`DESIGN.md` §9); all zeros while tracing is disabled.
            pub latency: crate::telemetry::LatencyBands,
        }

        impl StatsSnapshot {
            /// Every counter as a `(name, value)` pair, in declaration
            /// order — the single enumeration the
            /// [`MetricsRegistry`](crate::telemetry::MetricsRegistry) is built from, so the
            /// registry can never drift from the snapshot fields.
            pub fn pairs(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($name), self.$name),)+]
            }
        }
    };
}

counters! {
    /// Tasks pushed into frames.
    tasks_spawned,
    /// Tasks executed through the owner's FIFO fast path.
    tasks_executed_own,
    /// Tasks executed after being claimed by a steal.
    tasks_executed_stolen,
    /// Steal requests posted (one per victim probed).
    steal_attempts,
    /// Steal requests answered with work.
    steal_hits,
    /// Combine operations performed (one elected thief serving a batch).
    combine_batches,
    /// Total requests served across all combine operations.
    combine_served,
    /// Requests served in batches of size >= 2 (aggregation benefit).
    aggregated_requests,
    /// Adaptive-task splitter invocations that produced work.
    splits,
    /// Frames promoted to per-task readiness (ready-list acceleration),
    /// each at its first steal scan.
    promotions,
    /// Frames allocated because the worker's frame pool was empty. Flat
    /// once the pools are warm, as long as finished frames are recycled.
    frames_created,
    /// Write-only accesses renamed to a fresh version slot (WAR/WAW
    /// ordering edges eliminated).
    renames,
    /// Parallel-loop chunks executed.
    loop_chunks,
    /// Successful steals whose victim shared the thief's NUMA node.
    steals_local_node,
    /// Successful steals whose victim sat on a remote NUMA node.
    steals_remote_node,
    /// Victim choices where the policy deliberately left its preferred
    /// (nearest) victim set because the local fail streak grew too long.
    victim_escalations,
    /// Root jobs admitted through the injection layer (submit/scope, lanes
    /// or inline). Maintained globally by the inject lanes — submissions
    /// happen on external threads — and merged in by `Runtime::stats`.
    jobs_submitted,
    /// Submissions shed by the admission layer (`OnFull::Reject` at
    /// `max_pending`). Maintained globally, merged in by `Runtime::stats`.
    jobs_rejected,
    /// Injected root jobs a worker drained from its own NUMA node's lane.
    inject_own_lane,
    /// Injected root jobs a worker drained from a remote node's lane
    /// (its own lanes were empty). Counts as acquired work for the steal
    /// fail streak, exactly like an own-lane drain.
    inject_remote_lane,
    /// Served steal grabs whose task affinity resolved to a NUMA node and
    /// that were handed to a thief on that node (the combiner's
    /// data-affine grab matching, `DESIGN.md` §5).
    affine_placements,
    /// Tasks/jobs lowered through the `#[cold]` attribute-carrying slow
    /// path (non-default priority or affinity). Zero means every spawn in
    /// the program took the monomorphized default fast path.
    tasks_with_attrs,
    /// Inject-lane drains that had to walk the full band-major probe
    /// order because non-Normal jobs were pending. Maintained globally by
    /// the inject lanes, merged in by `Runtime::stats`; zero for
    /// Normal-only floods (the drain short-circuits to the Normal FIFO).
    inject_banded_drains,
    /// Tasks with declared accesses bound (`DataflowEngine::bind`), each
    /// once, on the worker that bound them: a frame binds only once a thief
    /// scans it, a push needs slot routing or a task fails (`crate::frame`),
    /// so a 1-worker pool running plain data flow counts none. Replays
    /// (`RecordedDag::replay`) push no tasks, so this counter stays flat
    /// across replay iterations, as the record-then-replay benchmarks assert.
    dataflow_pushes,
    /// Task bodies that panicked. The worker survives: the payload is
    /// captured, the frame is poisoned and the first payload re-raises at
    /// the enclosing `sync`/`scope`/`JoinHandle` (`DESIGN.md` §8).
    tasks_panicked,
    /// Tasks completed-as-failed without running because a dataflow
    /// predecessor in their cone panicked. Countdowns still drain, so the
    /// surviving graph never deadlocks.
    tasks_poisoned,
    /// Tasks (or queued jobs) whose body was skipped because their
    /// `CancelToken` was cancelled. Dataflow obligations are still
    /// satisfied — only the user body is elided.
    tasks_cancelled,
    /// `on_complete` callback panics caught and discarded by the inject
    /// layer. Counted on the runtime that owns the handle (callbacks may
    /// fire on external threads), merged in by `Runtime::stats`.
    callback_panics,
}

impl WorkerStats {
    #[inline]
    pub(crate) fn bump(counter: &CachePadded<AtomicU64>, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// [`WorkerStats::bump`] for a counter of the calling worker's own
    /// stats on the fork-join fast path: a relaxed load plus store, no
    /// locked read-modify-write. Only for `Ctx::join`'s two counters
    /// (`tasks_spawned`, `tasks_executed_own`); every other site keeps
    /// `fetch_add`, which no join pays for and which keeps a concurrent
    /// reset exact. The price is that these two counters have a second
    /// writer: [`Runtime::reset_stats`](crate::runtime::Runtime::reset_stats)
    /// stores 0 from another thread, and an owner that loaded before the
    /// reset stores its old count plus one after it, undoing the reset for
    /// this counter. Resets of these two are exact only at quiescence;
    /// only statistics go wrong, never scheduling.
    #[inline]
    pub(crate) fn bump_owned(counter: &CachePadded<AtomicU64>, n: u64) {
        counter.store(counter.load(Ordering::Relaxed) + n, Ordering::Relaxed);
    }
}

/// Aggregate the counters of all workers into one snapshot.
pub(crate) fn aggregate<'a>(workers: impl Iterator<Item = &'a WorkerStats>) -> StatsSnapshot {
    let mut snap = StatsSnapshot::default();
    for w in workers {
        w.add_into(&mut snap);
    }
    snap
}

/// Reset the counters of all workers.
pub(crate) fn reset_all<'a>(workers: impl Iterator<Item = &'a WorkerStats>) {
    for w in workers {
        w.reset();
    }
}

impl StatsSnapshot {
    /// Total tasks executed (own + stolen).
    pub fn tasks_executed(&self) -> u64 {
        self.tasks_executed_own + self.tasks_executed_stolen
    }

    /// Fraction of executed tasks that migrated to a thief.
    pub fn steal_ratio(&self) -> f64 {
        let t = self.tasks_executed();
        if t == 0 {
            0.0
        } else {
            self.tasks_executed_stolen as f64 / t as f64
        }
    }

    /// Fraction of locality-classified steals that stayed on the thief's
    /// NUMA node (`0.0` when no steal was classified — flat topologies
    /// classify every steal as local).
    pub fn steal_locality_ratio(&self) -> f64 {
        let t = self.steals_local_node + self.steals_remote_node;
        if t == 0 {
            0.0
        } else {
            self.steals_local_node as f64 / t as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_sums_workers() {
        let a = WorkerStats::default();
        let b = WorkerStats::default();
        WorkerStats::bump(&a.tasks_spawned, 3);
        WorkerStats::bump(&b.tasks_spawned, 4);
        WorkerStats::bump(&b.steal_hits, 1);
        let snap = aggregate([&a, &b].into_iter());
        assert_eq!(snap.tasks_spawned, 7);
        assert_eq!(snap.steal_hits, 1);
    }

    #[test]
    fn ratios() {
        let mut s = StatsSnapshot::default();
        assert_eq!(s.steal_ratio(), 0.0);
        s.tasks_executed_own = 3;
        s.tasks_executed_stolen = 1;
        assert_eq!(s.tasks_executed(), 4);
        assert!((s.steal_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn reset_zeroes() {
        let a = WorkerStats::default();
        WorkerStats::bump(&a.promotions, 5);
        reset_all([&a].into_iter());
        assert_eq!(aggregate([&a].into_iter()).promotions, 0);
    }
}
