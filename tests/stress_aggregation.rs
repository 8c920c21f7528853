//! Contention stress test for steal-request aggregation (flat combining).
//!
//! Many fine-grained data-flow tasks are spawned from one producer scope on
//! a pool of ≥ 8 workers: every worker except the one running the producer
//! can only obtain work by stealing, so steal requests pile up — the regime
//! the paper's request aggregation targets. The test asserts that
//!
//! 1. results are identical with aggregation on and off (the policy changes
//!    only *who* serves requests, never the visible semantics), and
//! 2. the combiner actually served requests under both policies
//!    (`StatsSnapshot::combine_served` > 0), with batch aggregation
//!    (`aggregated_requests`, batches of ≥ 2) observed under the
//!    aggregating policy.
//!
//! Scheduling is timing-dependent, so the stats conditions are checked over
//! repeated rounds (stats accumulate across rounds) with a generous bound;
//! the *result* equality is asserted on every round unconditionally.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use xkaapi::core::{
    AggregatedStealing, HierarchicalVictim, LocalityFirst, PerThiefStealing, Runtime, Shared,
    StealPolicy, Topology,
};

const WORKERS: usize = 8;
const CHAINS: usize = 32;
const CHAIN_LEN: usize = 40;
const MAX_ROUNDS: usize = 25;

/// ~1 µs of un-optimizable work, so thieves can win claims from the owner.
#[inline]
fn busy(tag: u64) -> u64 {
    let mut acc = tag;
    for i in 0..400u64 {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
    }
    std::hint::black_box(acc)
}

/// Spawn `CHAINS` exclusive-access chains of `CHAIN_LEN` tasks each, plus a
/// wide layer of independent tasks. Returns (chain values, wide checksum).
fn run_workload(rt: &Runtime) -> (Vec<u64>, u64) {
    let cells: Vec<Shared<u64>> = (0..CHAINS).map(|_| Shared::new(0)).collect();
    let wide = AtomicU64::new(0);
    rt.scope(|ctx| {
        // Interleave chain links so consecutive spawns hit different
        // handles: plenty of simultaneously-ready tasks to fight over.
        for step in 0..CHAIN_LEN as u64 {
            for c in &cells {
                let cw = c.clone();
                ctx.spawn([c.exclusive()], move |t| {
                    busy(step);
                    let mut g = t.write(&cw);
                    *g = g.wrapping_mul(31).wrapping_add(step);
                });
            }
        }
        let wide_ref = &wide;
        for i in 0..512u64 {
            ctx.spawn([], move |_| {
                busy(i);
                wide_ref.fetch_add(i * i, Ordering::Relaxed);
            });
        }
    });
    let chains: Vec<u64> = cells.iter().map(|c| *c.get()).collect();
    (chains, wide.load(Ordering::Relaxed))
}

fn expected_chain() -> u64 {
    (0..CHAIN_LEN as u64).fold(0, |a, s| a.wrapping_mul(31).wrapping_add(s))
}

#[test]
fn aggregation_on_off_identical_results_with_combiner_activity() {
    let rt_on = Runtime::builder()
        .workers(WORKERS)
        .steal_policy(Arc::new(AggregatedStealing))
        .build();
    let rt_off = Runtime::builder()
        .workers(WORKERS)
        .steal_policy(Arc::new(PerThiefStealing))
        .build();
    assert_eq!(rt_on.steal_policy_name(), "aggregated");
    assert_eq!(rt_off.steal_policy_name(), "per-thief");
    rt_on.reset_stats();
    rt_off.reset_stats();

    let expect = expected_chain();
    for round in 0..MAX_ROUNDS {
        let (chains_on, wide_on) = run_workload(&rt_on);
        let (chains_off, wide_off) = run_workload(&rt_off);

        // Identical semantics, every round.
        assert!(
            chains_on.iter().all(|&c| c == expect),
            "round {round}: {chains_on:?}"
        );
        assert_eq!(
            chains_on, chains_off,
            "round {round}: aggregation changed results"
        );
        assert_eq!(
            wide_on, wide_off,
            "round {round}: independent tasks diverged"
        );

        // Stop as soon as both policies showed the combiner behaviour under
        // test (stats accumulate across rounds).
        let (s_on, s_off) = (rt_on.stats(), rt_off.stats());
        if s_on.combine_served > 0
            && s_on.aggregated_requests > 0
            && s_on.tasks_executed_stolen > 0
            && s_off.combine_served > 0
        {
            break;
        }
    }

    let s_on = rt_on.stats();
    let s_off = rt_off.stats();
    // 2. Combiners served steal requests under both policies.
    for (name, s) in [("on", &s_on), ("off", &s_off)] {
        assert!(
            s.combine_served > 0,
            "aggregation {name}: combiner never served: {s:?}"
        );
        assert!(
            s.combine_batches > 0,
            "aggregation {name}: no combine batches: {s:?}"
        );
        assert!(
            s.steal_attempts > 0,
            "aggregation {name}: no steal pressure: {s:?}"
        );
    }
    // 3. Aggregation served whole batches (requests of >= 2 thieves), and
    //    work genuinely migrated.
    assert!(
        s_on.aggregated_requests > 0,
        "aggregation on: no batch of >= 2 requests in {MAX_ROUNDS} rounds: {s_on:?}"
    );
    assert!(
        s_on.tasks_executed_stolen > 0,
        "no task ever migrated: {s_on:?}"
    );
    // Per-thief policy never serves more than one request per combine.
    assert_eq!(
        s_off.combine_served, s_off.combine_batches,
        "per-thief policy must serve exactly one request per combine"
    );
}

/// Topology-aware stealing preserves results on the aggregation stress
/// workload: the victim-selection policies (hierarchical escalation,
/// locality-first ring walk, bounded near-first combiner batches and the
/// overflow-request re-queue they exercise) change only *where* steals
/// land, never the visible semantics.
#[test]
fn topology_aware_stealing_preserves_results_under_stress() {
    let expect = expected_chain();
    let rt_ref = Runtime::builder().workers(WORKERS).build();
    let (reference, wide_ref) = run_workload(&rt_ref);
    assert!(reference.iter().all(|&c| c == expect));
    drop(rt_ref);

    // Tiny bounded batches (max_batch: 2 on 8 workers) force the overflow
    // re-queue path constantly; an aggressive escalation threshold forces
    // both the local-only and machine-wide victim regimes.
    let policies: [(&str, Arc<dyn StealPolicy>); 4] = [
        ("uniform", Arc::new(AggregatedStealing)),
        (
            "hierarchical",
            Arc::new(HierarchicalVictim {
                escalate_after: 2,
                max_batch: 2,
            }),
        ),
        (
            "locality-first",
            Arc::new(LocalityFirst {
                escalate_after: 2,
                max_batch: 2,
            }),
        ),
        (
            "hierarchical-wide",
            Arc::new(HierarchicalVictim {
                escalate_after: 64,
                max_batch: usize::MAX,
            }),
        ),
    ];
    for (label, pol) in policies {
        let rt = Runtime::builder()
            .workers(WORKERS)
            .steal_policy(pol)
            .topology(Topology::two_level(WORKERS, 4))
            .build();
        for round in 0..3 {
            let (chains, wide) = run_workload(&rt);
            assert_eq!(chains, reference, "{label} round {round}: chains diverged");
            assert_eq!(
                wide, wide_ref,
                "{label} round {round}: independent tasks diverged"
            );
        }
        let s = rt.stats();
        assert!(
            s.steal_attempts > 0,
            "{label}: no steal pressure at all: {s:?}"
        );
    }
}

/// The same stress shape through the engine's centralized queues: results
/// must match the distributed runs too (the cross-policy acceptance gate).
#[test]
fn centralized_queues_agree_under_stress() {
    let rt = Runtime::builder().workers(WORKERS).build();
    let (reference, wide_ref) = run_workload(&rt);
    assert!(reference.iter().all(|&c| c == expected_chain()));

    for (label, queue) in [
        (
            "omp",
            std::sync::Arc::new(xkaapi::omp::OmpCentralQueue::new())
                as std::sync::Arc<dyn xkaapi::core::TaskQueue>,
        ),
        (
            "quark",
            std::sync::Arc::new(xkaapi::quark::QuarkCentralQueue::new())
                as std::sync::Arc<dyn xkaapi::core::TaskQueue>,
        ),
    ] {
        let rt_c = Runtime::builder()
            .workers(WORKERS)
            .task_queue(queue)
            .build();
        let (chains, wide) = run_workload(&rt_c);
        assert_eq!(chains, reference, "central-{label} diverged on chains");
        assert_eq!(
            wide, wide_ref,
            "central-{label} diverged on independent tasks"
        );
    }
}
