//! One-flag scheduler configuration for ablations and tests.
//!
//! [`SchedPolicy`] enumerates the steal-layer protocols the engine
//! supports — aggregation on or off — so a benchmark or test sweeps them
//! from a single enum value. The libGOMP and QUARK baselines are runtimes
//! of their own (`xkaapi_omp::OmpPool`, `xkaapi_quark::central`).

use std::sync::Arc;
use xkaapi_core::{
    AggregatedStealing, HierarchicalVictim, LocalityFirst, PerThiefStealing, Runtime, StealPolicy,
    Topology,
};

/// Victim-selection dimension of the steal layer, swept by
/// `bench --bin ablation` (uniform × hierarchical × locality-first).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VictimPolicy {
    /// Uniform random victim, full aggregation (the paper's default).
    Uniform,
    /// Same-node victims first, machine-wide after the fail streak grows;
    /// bounded near-first combiner batches.
    Hierarchical,
    /// Victims ranked by topology distance with probabilistic ring
    /// escalation; bounded near-first combiner batches.
    LocalityFirst,
}

impl VictimPolicy {
    /// Every victim policy, for exhaustive sweeps.
    pub const ALL: [VictimPolicy; 3] = [
        VictimPolicy::Uniform,
        VictimPolicy::Hierarchical,
        VictimPolicy::LocalityFirst,
    ];

    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            VictimPolicy::Uniform => "uniform",
            VictimPolicy::Hierarchical => "hierarchical",
            VictimPolicy::LocalityFirst => "locality-first",
        }
    }

    /// The steal-layer policy object implementing this victim selection.
    pub fn steal_policy(self) -> Arc<dyn StealPolicy> {
        match self {
            VictimPolicy::Uniform => Arc::new(AggregatedStealing),
            VictimPolicy::Hierarchical => Arc::new(HierarchicalVictim::default()),
            VictimPolicy::LocalityFirst => Arc::new(LocalityFirst::default()),
        }
    }
}

/// Full scheduler configuration, selectable from one value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Per-worker T.H.E. deques + lazy frame scans, flat-combining
    /// aggregated steals — the X-Kaapi default.
    DistributedAggregated,
    /// Same distributed structure, but each thief pays its own steal
    /// (no request aggregation).
    DistributedPerThief,
}

impl SchedPolicy {
    /// Every configuration, for exhaustive sweeps.
    pub const ALL: [SchedPolicy; 2] = [
        SchedPolicy::DistributedAggregated,
        SchedPolicy::DistributedPerThief,
    ];

    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            SchedPolicy::DistributedAggregated => "distributed + aggregation",
            SchedPolicy::DistributedPerThief => "distributed, per-thief",
        }
    }

    /// Build a runtime with `workers` workers under this configuration.
    pub fn build_runtime(self, workers: usize) -> Runtime {
        self.builder(workers).build()
    }

    /// Build a runtime with an explicit victim-selection policy and
    /// machine topology — the victim-policy sweep surface. The victim
    /// policy replaces this configuration's steal layer.
    pub fn build_runtime_with(
        self,
        workers: usize,
        victim: VictimPolicy,
        topo: Topology,
    ) -> Runtime {
        self.builder(workers)
            .steal_policy(victim.steal_policy())
            .topology(topo)
            .build()
    }

    fn builder(self, workers: usize) -> xkaapi_core::Builder {
        let steal: Arc<dyn StealPolicy> = match self {
            SchedPolicy::DistributedAggregated => Arc::new(AggregatedStealing),
            SchedPolicy::DistributedPerThief => Arc::new(PerThiefStealing),
        };
        Runtime::builder().workers(workers).steal_policy(steal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use xkaapi_core::Shared;

    /// The acceptance gate of the engine refactor: the same mixed-paradigm
    /// program produces identical results under every scheduler policy.
    #[test]
    fn all_policies_produce_identical_results() {
        let mut outcomes = Vec::new();
        for pol in SchedPolicy::ALL {
            let rt = pol.build_runtime(4);
            // Data-flow chain with a read fan-out.
            let h = Shared::new(1u64);
            let sum = Shared::new(0u64);
            rt.scope(|ctx| {
                for _ in 0..40 {
                    let hw = h.clone();
                    ctx.spawn([h.exclusive()], move |t| *t.write(&hw) += 1);
                }
                let (hr, sw) = (h.clone(), sum.clone());
                ctx.spawn([h.read(), sum.write()], move |t| {
                    *t.write(&sw) = 2 * *t.read(&hr);
                });
            });
            // Fork-join fib.
            let f = rt.scope(|ctx| {
                fn fib(c: &mut xkaapi_core::Ctx<'_>, n: u64) -> u64 {
                    if n < 2 {
                        n
                    } else {
                        let (a, b) = c.join(|c| fib(c, n - 1), |c| fib(c, n - 2));
                        a + b
                    }
                }
                fib(ctx, 12)
            });
            // Adaptive loop.
            let hits = AtomicU64::new(0);
            rt.foreach(0..5000, |_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
            outcomes.push((*h.get(), *sum.get(), f, hits.load(Ordering::Relaxed)));
        }
        assert_eq!(outcomes[0], (41, 82, 144, 5000));
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(*o, outcomes[0], "policy {:?} diverged", SchedPolicy::ALL[i]);
        }
    }
}
