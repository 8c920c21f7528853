//! Victim-selection layer tests (DESIGN.md §3).
//!
//! Two levels:
//!
//! 1. **Deterministic**: [`Steal::choose_victim`] is a pure function of
//!    `(me, rng, topology, fail_streak)`, so a seeded xorshift closure
//!    makes victim selection exactly checkable —
//!    [`Victim::Hierarchical`] stays on the thief's node below the
//!    escalation threshold and goes machine-wide (flagged `escalated`)
//!    above it; driven with the idle loop's fail-streak rule and a seeded
//!    hit coin, hierarchical selection lands a larger same-node steal
//!    share than uniform.
//! 2. **End-to-end**: a runtime built with a never-escalating
//!    hierarchical policy on a modelled 2-node topology lands every steal
//!    on the thief's own node, observed through the exact
//!    `steals_local_node` / `steals_remote_node` counters.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use xkaapi::core::{Affinity, EventKind, Runtime, Shared, Steal, Topology, TraceSession, Victim};

/// Seeded xorshift64* closure: the same seed replays the same choices.
fn seeded_rng(mut x: u64) -> impl FnMut() -> u64 {
    move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    }
}

#[test]
fn hierarchical_prefers_same_node_then_escalates() {
    let topo = Topology::two_level(8, 4); // nodes {0..3} and {4..7}
    let pol = Steal {
        victim: Victim::Hierarchical { escalate_after: 4 },
        max_batch: 8,
    };
    let me = 1usize;

    // Below the escalation threshold: every pick is a same-node sibling,
    // never me, never flagged as escalated.
    let mut rng = seeded_rng(0xDEAD_BEEF);
    for fail_streak in 0..4 {
        for _ in 0..200 {
            let (v, escalated) = pol.choose_victim(me, &mut rng, &topo, fail_streak);
            assert_ne!(v, me);
            assert!(
                topo.same_node(me, v),
                "streak {fail_streak}: picked remote victim {v} before escalation"
            );
            assert!(!escalated);
        }
    }

    // At the threshold: machine-wide picks, remote victims reachable and
    // flagged as escalations.
    let mut rng = seeded_rng(0xDEAD_BEEF);
    let mut saw_remote = false;
    for _ in 0..200 {
        let (v, escalated) = pol.choose_victim(me, &mut rng, &topo, 4);
        assert_ne!(v, me);
        assert!(escalated, "post-threshold picks must be escalations");
        saw_remote |= !topo.same_node(me, v);
    }
    assert!(saw_remote, "escalated picks must reach the remote node");

    // Same seed, same choices: the selection is deterministic in the rng.
    let replay = |seed| {
        let mut rng = seeded_rng(seed);
        (0..50)
            .map(|_| pol.choose_victim(me, &mut rng, &topo, 2).0)
            .collect::<Vec<_>>()
    };
    assert_eq!(replay(7), replay(7));
}

#[test]
fn hierarchical_alone_on_node_goes_machine_wide_unflagged() {
    // Worker 6 is alone on node 2: no local victim exists, so machine-wide
    // picks are not counted as escalations (nothing was skipped).
    let topo = Topology::two_level(7, 3);
    let pol = Steal::hierarchical();
    let mut rng = seeded_rng(99);
    for _ in 0..100 {
        let (v, escalated) = pol.choose_victim(6, &mut rng, &topo, 0);
        assert_ne!(v, 6);
        assert!(!escalated);
    }
}

/// Steal hits that landed on the thief's node and off it, until `hits`
/// steals hit: 8 thieves on `two_level(8, 4)` take turns choosing a victim
/// with `pol`, and each attempt hits on a seeded coin (1 in 4). As in the
/// idle loop, a miss adds 1 to the thief's fail streak and a hit resets
/// it to 0.
fn seeded_steal_sample(pol: Steal, seed: u64, hits: u64) -> (u64, u64) {
    let topo = Topology::two_level(8, 4);
    let mut rng = seeded_rng(seed);
    let mut coin = seeded_rng(seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut streak = [0u32; 8];
    let (mut local, mut remote) = (0u64, 0u64);
    for me in (0..8).cycle() {
        if local + remote == hits {
            break;
        }
        let (v, _) = pol.choose_victim(me, &mut rng, &topo, streak[me]);
        assert_ne!(v, me);
        if !coin().is_multiple_of(4) {
            streak[me] += 1;
        } else if topo.same_node(me, v) {
            streak[me] = 0;
            local += 1;
        } else {
            streak[me] = 0;
            remote += 1;
        }
    }
    (local, remote)
}

/// The locality property the `ablation` binary measures at run time:
/// hierarchical victim selection lands strictly more same-node steals,
/// and a strictly higher same-node share, than uniform selection. Seeded,
/// so the outcome does not depend on how the OS schedules the workers;
/// 400 hits per policy, as `ablation` accumulates.
#[test]
fn hierarchical_steals_same_node_more_than_uniform() {
    let share = |(local, remote): (u64, u64)| local as f64 / (local + remote) as f64;
    for seed in [1, 0x5EED, 0xDEAD_BEEF] {
        let uni = seeded_steal_sample(Steal::AGGREGATED, seed, 400);
        let hier = seeded_steal_sample(Steal::hierarchical(), seed, 400);
        assert!(
            hier.0 > uni.0,
            "seed {seed}: hierarchical must steal same-node strictly more than uniform \
             (hier {}/{} vs uniform {}/{})",
            hier.0,
            hier.1,
            uni.0,
            uni.1
        );
        assert!(
            share(hier) > share(uni),
            "seed {seed}: hierarchical same-node share must beat uniform: {:.3} vs {:.3}",
            share(hier),
            share(uni)
        );
    }
}

#[test]
fn uniform_covers_all_victims_without_escalating() {
    let topo = Topology::two_level(8, 4);
    let mut rng = seeded_rng(3);
    let mut seen = [false; 8];
    for _ in 0..500 {
        let (v, escalated) = Steal::AGGREGATED.choose_victim(2, &mut rng, &topo, 10);
        assert_ne!(v, 2);
        assert!(!escalated);
        seen[v] = true;
    }
    let covered = seen.iter().filter(|&&s| s).count();
    assert_eq!(covered, 7, "uniform must reach every other worker");
}

/// The steal-heavy workload: one producer scope of busy data-flow chains
/// (thieves can win claims from the owner) plus an adaptive reduction
/// whose on-demand splits hand slices to requesting thieves. Checksum is
/// schedule-independent.
fn chain_workload(rt: &Runtime) -> u64 {
    let cells: Vec<Shared<u64>> = (0..16).map(|_| Shared::new(1)).collect();
    rt.scope(|ctx| {
        for round in 0..25u64 {
            for (i, c) in cells.iter().enumerate() {
                let cw = c.clone();
                ctx.spawn([c.exclusive()], move |t| {
                    let mut acc = round;
                    for k in 0..400u64 {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
                    }
                    std::hint::black_box(acc);
                    *t.write(&cw) += round + i as u64;
                });
            }
        }
    });
    let chain_sum: u64 = cells.iter().map(|c| *c.get()).sum();
    let loop_sum = rt.foreach_reduce(
        0..10_000,
        None,
        || 0u64,
        |a, i| {
            let mut acc = i as u64;
            for k in 0..20u64 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            std::hint::black_box(acc);
            *a += i as u64;
        },
        |a, b| a + b,
    );
    chain_sum.wrapping_add(loop_sum)
}

/// The steal path classifies a steal by the node of the victim the request
/// was posted to, and that victim comes only from `choose_victim`. A
/// hierarchical policy that never escalates therefore never lands a remote
/// steal, whatever the interleaving: the count is exact, not sampled.
#[test]
fn hierarchical_without_escalation_never_steals_off_node() {
    let workers = 8;
    let rt = Runtime::builder()
        .workers(workers)
        .steal(Steal {
            victim: Victim::Hierarchical {
                escalate_after: u32::MAX,
            },
            ..Steal::hierarchical()
        })
        .topology(Topology::two_level(workers, 4))
        .build();
    let expect = chain_workload(&Runtime::new(1));

    // Loop until at least one steal is classified (results checked every
    // round); a handful of rounds suffices even on one timesliced core.
    for _ in 0..400 {
        assert_eq!(chain_workload(&rt), expect);
        if rt.stats().steals_local_node > 0 {
            break;
        }
    }

    let s = rt.stats();
    assert_eq!(
        s.steals_remote_node, 0,
        "a steal left the thief's node: {s:?}"
    );
    assert!(s.steals_local_node > 0, "no steal was classified: {s:?}");
    assert_eq!(s.victim_escalations, 0, "the policy never escalates: {s:?}");
}

/// Remember each worker's last event in `trace`: `Park` means the worker
/// finished its re-checks and is committed to block, so only a wake starts
/// it again. A worker with no event in `trace` keeps its earlier one.
fn note_last_events(trace: &TraceSession, last: &mut [Option<EventKind>]) {
    for (w, kind) in last.iter_mut().enumerate() {
        if let Some(e) = trace.events(w).last() {
            *kind = Some(e.kind);
        }
    }
}

/// A wake goes to a worker that may take the work (`crates/core/src/worker.rs`,
/// `Near`). With a never-escalating hierarchical policy on two nodes, only
/// node-1 workers may steal a node-1 worker's spawn, and node-1 workers
/// drain node 1's inject lane first. So when the only work in the pool is
/// a root job homed on node 1 that spawns a child and waits for a thief,
/// every wake lands on node 1: no node-0 worker ever unparks. Read from
/// the trace's per-worker `Unpark` events.
#[test]
fn wakes_for_node_1_work_land_on_node_1() {
    let workers = 8;
    let topo = Topology::two_level(workers, 4); // nodes {0..3} and {4..7}
    let rt = Runtime::builder()
        .workers(workers)
        .steal(Steal {
            victim: Victim::Hierarchical {
                escalate_after: u32::MAX,
            },
            ..Steal::hierarchical()
        })
        .topology(topo.clone())
        .tracing(true)
        .build();
    let mut last = vec![None; workers];
    for round in 0..20 {
        // Wait until every worker is parked: an awake node-0 worker may
        // drain node 1's inject lane, and a wake may then go to node 0.
        let t0 = Instant::now();
        loop {
            note_last_events(&rt.take_trace(), &mut last);
            if last.iter().all(|k| *k == Some(EventKind::Park)) {
                break;
            }
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "round {round}: workers not all parked after 10 s: {last:?}"
            );
            std::thread::sleep(Duration::from_micros(200));
        }
        let (owner, thief) = rt
            .task()
            .affinity(Affinity::Node(1))
            .submit(|c| {
                let thief = std::sync::Arc::new(AtomicUsize::new(usize::MAX));
                let slot = std::sync::Arc::clone(&thief);
                c.spawn([], move |t| slot.store(t.worker_index(), Ordering::Release));
                // A push on this worker: only a woken same-node worker
                // can start it while the owner waits here.
                let t0 = Instant::now();
                while thief.load(Ordering::Acquire) == usize::MAX
                    && t0.elapsed() < Duration::from_millis(100)
                {
                    std::thread::yield_now();
                }
                (c.worker_index(), thief.load(Ordering::Acquire))
            })
            .unwrap()
            .wait();
        let trace = rt.take_trace();
        note_last_events(&trace, &mut last);
        for w in topo.workers_on_node(0) {
            let unparks = trace
                .events(*w)
                .iter()
                .filter(|e| e.kind == EventKind::Unpark)
                .count();
            assert_eq!(
                unparks, 0,
                "round {round}: node-0 worker {w} was woken for node-1 work \
                 (job ran on {owner}, child on {thief})"
            );
        }
        assert_eq!(topo.node_of(owner), 1, "round {round}: job left node 1");
        assert_eq!(topo.node_of(thief), 1, "round {round}: child left node 1");
    }
}
