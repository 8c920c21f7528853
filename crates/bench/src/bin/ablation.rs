//! Ablation study of the scheduler optimisations the paper singles out
//! (§II-C): steal-request **aggregation**, the **ready-list** (graph mode)
//! acceleration and write-only **renaming** (WAR/WAW elimination) — plus
//! the adaptive-loop grain and the **victim-selection** sweep (uniform ×
//! hierarchical × locality-first over the queue layers, with the
//! same-node-steal locality property asserted on a modelled 2-node
//! machine), and the **injection subsystem** sweep: scope-via-submit
//! checksums across every queue/steal policy plus the own-lane-drain
//! dominance property of the sharded inject lanes.
//!
//! Three parts:
//! 1. real-machine ablations on this host (multi-worker, 1 core —
//!    correctness-preserving, contention-visible);
//! 2. a deterministic data-flow probe (ready-set width of the war-chain
//!    workload straight from the versioned dependency engine);
//! 3. simulator ablations on the 48-core model, where the idle-thief
//!    population that aggregation helps with actually exists.
//!
//! Usage: `ablation`

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use xkaapi_bench::{
    busy_work, measure_ns, print_table, steal_heavy_workload, SchedPolicy, VictimPolicy,
};
use xkaapi_core::dataflow::DataflowEngine;
use xkaapi_core::{
    AggregatedStealing, PerThiefStealing, PromotionPolicy, RenamePolicy, Runtime, Shared,
    StealPolicy, Topology,
};
use xkaapi_linalg::{cholesky_seq, cholesky_xkaapi, RecordedCholesky, TiledMatrix};
use xkaapi_sim::{simulate_dag, DagPolicy, Platform, SimTask, TaskDag};

/// One mixed data-flow workload every scheduler policy must agree on:
/// 16 exclusive chains of length 25 plus a read fan-in. Returns the final
/// checksum (identical across policies by the sequential semantics).
fn policy_workload(rt: &Runtime) -> u64 {
    let cells: Vec<Shared<u64>> = (0..16).map(|_| Shared::new(1)).collect();
    rt.scope(|ctx| {
        for round in 0..25u64 {
            for (i, c) in cells.iter().enumerate() {
                let cw = c.clone();
                ctx.spawn([c.exclusive()], move |t| {
                    *t.write(&cw) += round + i as u64;
                });
            }
        }
    });
    cells.iter().map(|c| *c.get()).sum()
}

/// The identical workload spawned through the attribute-carrying task
/// builder at default attributes (`ctx.task().…spawn`). Under `Priority`
/// defaults and no affinity the builder lowers to exactly the legacy spawn
/// path, so its checksum must equal [`policy_workload`]'s on every
/// queue × steal policy — the ISSUE 5 acceptance gate.
fn policy_workload_builder(rt: &Runtime) -> u64 {
    let cells: Vec<Shared<u64>> = (0..16).map(|_| Shared::new(1)).collect();
    rt.scope(|ctx| {
        for round in 0..25u64 {
            for (i, c) in cells.iter().enumerate() {
                let cw = c.clone();
                ctx.task().exclusive(c).spawn(move |t| {
                    *t.write(&cw) += round + i as u64;
                });
            }
        }
    });
    cells.iter().map(|c| *c.get()).sum()
}

/// The identical workload again, this time with non-default attributes on
/// every spawn (alternating High/Low bands + `Affinity::Auto`), so each
/// task takes the `#[cold]` attributed lowering and activates the banded
/// side structures. Attributes are scheduling hints, never semantics: the
/// checksum must equal the defaulted runs' — and the time delta against
/// [`policy_workload_builder`] is the measured cost of carrying
/// attributes (the PR 6 defaulted-vs-attributed ablation).
fn policy_workload_attributed(rt: &Runtime) -> u64 {
    use xkaapi_core::{Affinity, Priority};
    let cells: Vec<Shared<u64>> = (0..16).map(|_| Shared::new(1)).collect();
    rt.scope(|ctx| {
        for round in 0..25u64 {
            for (i, c) in cells.iter().enumerate() {
                let cw = c.clone();
                ctx.task()
                    .exclusive(c)
                    .priority(if i % 2 == 0 {
                        Priority::High
                    } else {
                        Priority::Low
                    })
                    .affinity(Affinity::Auto)
                    .spawn(move |t| {
                        *t.write(&cw) += round + i as u64;
                    });
            }
        }
    });
    cells.iter().map(|c| *c.get()).sum()
}

/// The war-chain workload: `rounds` repeated whole-object overwrites of one
/// renameable handle, each feeding `readers` readers. Renaming eliminates
/// the WAR edges from round `r`'s readers to round `r+1`'s writer, so the
/// rounds pipeline. Returns a checksum that must be identical under every
/// renaming setting (readers accumulate order-independently).
fn war_chain(rt: &Runtime, rounds: u64, readers: usize, len: usize) -> u64 {
    let h = Shared::renameable_with(vec![0u64; len], move || vec![0u64; len]);
    let sum = AtomicU64::new(0);
    rt.scope(|ctx| {
        let sum = &sum;
        for round in 0..rounds {
            let hw = h.clone();
            ctx.spawn([h.write()], move |t| {
                let mut g = t.write(&hw);
                for (i, x) in g.iter_mut().enumerate() {
                    *x = round * 31 + i as u64;
                }
            });
            for _ in 0..readers {
                let hr = h.clone();
                ctx.spawn([h.read()], move |t| {
                    let v: u64 = t.read(&hr).iter().sum();
                    sum.fetch_add(v, Ordering::Relaxed);
                });
            }
        }
    });
    let tail: u64 = h.get().iter().sum();
    sum.load(Ordering::Relaxed).wrapping_add(tail)
}

/// The policy workload driven through the non-blocking front door instead
/// of scope: 4 submitter threads push root jobs (each a self-contained
/// data-flow chain over its own cells) through [`Runtime::submit`] and
/// join the handles. The checksum is schedule-independent, so it must be
/// identical across every queue/steal policy — and equal to what the same
/// per-job chains sum to under scope.
fn submit_workload(rt: &Arc<Runtime>) -> u64 {
    let submitters = 4usize;
    let per = 25u64;
    let threads: Vec<_> = (0..submitters as u64)
        .map(|s| {
            let rt = Arc::clone(rt);
            std::thread::spawn(move || {
                let handles: Vec<_> = (0..per)
                    .map(|i| {
                        rt.submit(move |ctx| {
                            let cell = Shared::new(1u64);
                            for round in 0..8u64 {
                                let cw = cell.clone();
                                ctx.spawn([cell.exclusive()], move |t| {
                                    *t.write(&cw) += busy_work(s * 31 + i + round, 200) & 0xff;
                                });
                            }
                            ctx.sync();
                            *cell.get()
                        })
                        .expect("Block admission never rejects")
                    })
                    .collect();
                handles.into_iter().map(|h| h.wait()).sum::<u64>()
            })
        })
        .collect();
    threads.into_iter().map(|t| t.join().unwrap()).sum()
}

fn main() {
    println!("# Ablations: scheduler policy matrix, aggregation, ready-list & renaming");

    // --- the engine's policy matrix: one enum flips queue & steal layer --
    // Each configuration runs the workload twice: once through the legacy
    // `Ctx::spawn` front door and once through the attribute-carrying
    // builder at default attributes. The two must agree with each other
    // and across every queue × steal policy (ISSUE 5 acceptance gate).
    let mut rows = Vec::new();
    let mut checksums = Vec::new();
    for pol in SchedPolicy::ALL {
        let rt = pol.build_runtime(4);
        let mut sum = 0;
        let t = measure_ns(5, || sum = policy_workload(&rt));
        let built = policy_workload_builder(&rt);
        assert_eq!(
            sum,
            built,
            "builder-vs-legacy checksum mismatch under {}",
            pol.label()
        );
        checksums.push(sum);
        let s = rt.stats();
        rows.push(vec![
            pol.label().into(),
            format!("{}/{}", rt.queue_name(), rt.steal_policy_name()),
            format!("{:.2}", t as f64 / 1e6),
            s.tasks_executed_stolen.to_string(),
            s.combine_served.to_string(),
            format!("{sum} (= builder)"),
        ]);
    }
    assert!(
        checksums.iter().all(|&c| c == checksums[0]),
        "scheduler policies disagree on the workload result: {checksums:?}"
    );
    print_table(
        "Engine policy matrix: 16 chains x 25 exclusive writers, 4 workers \
         (identical checksums, legacy spawn == builder)",
        &[
            "policy",
            "queue/steal",
            "time (ms)",
            "stolen",
            "combine served",
            "checksum",
        ],
        &rows,
    );

    // --- the spawn fast path: defaulted vs attributed lowering -----------
    // The same chains workload through the builder, once at default
    // attributes (monomorphized `#[inline]` path, banded structures stay
    // dormant) and once fully attributed (`#[cold]` path, bands + Auto
    // affinity active). Identical checksums are asserted; the time gap is
    // what attribute-carrying actually costs per configuration, and the
    // `tasks_with_attrs` counter proves which path ran.
    let mut rows = Vec::new();
    for pol in SchedPolicy::ALL {
        let rt = pol.build_runtime(4);
        let mut fast = 0;
        let t_fast = measure_ns(5, || fast = policy_workload_builder(&rt));
        let fast_attr_tasks = rt.stats().tasks_with_attrs;
        assert_eq!(
            fast_attr_tasks,
            0,
            "defaulted builder spawns took the attributed path under {}",
            pol.label()
        );
        let mut slow = 0;
        let t_slow = measure_ns(5, || slow = policy_workload_attributed(&rt));
        assert_eq!(
            fast,
            slow,
            "attributes changed the workload result under {}",
            pol.label()
        );
        let slow_attr_tasks = rt.stats().tasks_with_attrs;
        assert!(
            slow_attr_tasks >= 16 * 25,
            "attributed spawns must be counted under {} (got {slow_attr_tasks})",
            pol.label()
        );
        rows.push(vec![
            pol.label().into(),
            format!("{:.2}", t_fast as f64 / 1e6),
            format!("{:.2}", t_slow as f64 / 1e6),
            format!("{:+.1}%", (t_slow as f64 / t_fast as f64 - 1.0) * 100.0),
            slow_attr_tasks.to_string(),
        ]);
    }
    print_table(
        "Spawn lowering: defaulted (#[inline]) vs attributed (#[cold]) builder, \
         4 workers (identical checksums)",
        &[
            "policy",
            "defaulted (ms)",
            "attributed (ms)",
            "delta",
            "tasks_with_attrs",
        ],
        &rows,
    );

    // --- injection subsystem: submit-path checksums across policies ------
    // scope is now submit + wait, so the matrix above already runs through
    // the inject lanes; this sweep drives the same engine through the
    // *non-blocking* front door (4 concurrent submitters, join handles)
    // and must agree across every queue/steal policy too.
    let mut rows = Vec::new();
    let mut checksums = Vec::new();
    for pol in SchedPolicy::ALL {
        let rt = Arc::new(pol.build_runtime(4));
        let mut sum = 0;
        let t = measure_ns(3, || sum = submit_workload(&rt));
        checksums.push(sum);
        let s = rt.stats();
        rows.push(vec![
            pol.label().into(),
            format!("{:.2}", t as f64 / 1e6),
            s.jobs_submitted.to_string(),
            (s.inject_own_lane + s.inject_remote_lane).to_string(),
            sum.to_string(),
        ]);
    }
    assert!(
        checksums.iter().all(|&c| c == checksums[0]),
        "submit-path checksums disagree across scheduler policies: {checksums:?}"
    );
    print_table(
        "Injection: 4 submitters x 25 root jobs via Runtime::submit, 4 workers \
         (identical checksums)",
        &[
            "policy",
            "time (ms)",
            "submitted",
            "lane drains",
            "checksum",
        ],
        &rows,
    );

    // --- injection locality: per-lane drains on a modelled 2-node machine -
    // 8 workers / 2 nodes / 2 inject lanes, 4 submitter threads hashed
    // across the lanes, jobs heavy enough that a backlog builds: workers
    // visit their own node's lane first, so own-lane drains must dominate
    // remote-lane drains (the injection-side locality property, the
    // analogue of the same-node-steal assertion below).
    {
        let vp_workers = 8usize;
        let rt = Arc::new(
            Runtime::builder()
                .workers(vp_workers)
                .topology(Topology::two_level(vp_workers, 4))
                .max_pending(100_000)
                .build(),
        );
        let flood = |jobs_per_submitter: u64| {
            let threads: Vec<_> = (0..4u64)
                .map(|s| {
                    let rt = Arc::clone(&rt);
                    std::thread::spawn(move || {
                        let handles: Vec<_> = (0..jobs_per_submitter)
                            .map(|i| {
                                rt.submit(move |_ctx| busy_work(s * 7919 + i, 4000))
                                    .expect("Block admission never rejects")
                            })
                            .collect();
                        let mut joined = 0usize;
                        for h in handles {
                            h.wait();
                            joined += 1;
                        }
                        joined
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().unwrap())
                .sum::<usize>()
        };
        // On a time-sliced 1-core host the OS can starve one node's
        // workers for a whole round, which degenerates the split to an
        // exact lane-total tie — accumulate rounds until both nodes'
        // workers participated and the strict dominance shows (the same
        // accumulate-until-solid-sample treatment the steal-locality
        // assertions below get).
        let mut joined = 0usize;
        for _round in 0..20 {
            joined += flood(1500);
            let s = rt.stats();
            if s.inject_own_lane > s.inject_remote_lane {
                break;
            }
        }
        assert_eq!(joined % 6000, 0);
        let s = rt.stats();
        let lanes = rt.inject_lane_stats();
        assert_eq!(lanes.len(), 2, "2 modelled nodes must shard into 2 lanes");
        assert_eq!(
            lanes.iter().map(|l| l.drained).sum::<u64>(),
            s.inject_own_lane + s.inject_remote_lane,
            "per-lane drains must reconcile with the worker-side counters"
        );
        assert!(
            s.inject_own_lane > s.inject_remote_lane,
            "workers must drain their own node's lane more often than remote \
             lanes (own {} vs remote {})",
            s.inject_own_lane,
            s.inject_remote_lane
        );
        print_table(
            &format!(
                "Injection locality: {joined} submitted jobs, 8 workers on 2 modelled nodes \
                 (asserted)"
            ),
            &["lane", "submitted", "drained"],
            &lanes
                .iter()
                .enumerate()
                .map(|(n, l)| {
                    vec![
                        format!("node {n}"),
                        l.submitted.to_string(),
                        l.drained.to_string(),
                    ]
                })
                .chain(std::iter::once(vec![
                    "own/remote drains".into(),
                    s.inject_own_lane.to_string(),
                    s.inject_remote_lane.to_string(),
                ]))
                .collect::<Vec<_>>(),
        );
    }

    // --- victim-selection sweep: queue layers × victim policies on a ------
    // modelled 2-node machine (8 workers, 4 per node). Victim selection is
    // orthogonal to the queue layer, so centralized queues sweep it too;
    // the steal-locality counters show where the grabs came from.
    let vp_workers = 8usize;
    let two_node = || Topology::two_level(vp_workers, 4);
    let mut rows = Vec::new();
    let mut checksums = Vec::new();
    for queue in [
        SchedPolicy::DistributedAggregated,
        SchedPolicy::CentralOmp,
        SchedPolicy::CentralQuark,
    ] {
        for victim in VictimPolicy::ALL {
            let rt = queue.build_runtime_with(vp_workers, victim, two_node());
            let mut sum = 0;
            let t = measure_ns(3, || sum = steal_heavy_workload(&rt));
            checksums.push(sum);
            // Accumulate steals beyond the timed rounds so the locality
            // counters show a real sample, not 3-round noise. Centralized
            // queues are skipped: their workers drain the shared pool
            // instead of stealing, so the counters legitimately stay ~0.
            if queue == SchedPolicy::DistributedAggregated {
                for _ in 0..300 {
                    let s = rt.stats();
                    if s.steals_local_node + s.steals_remote_node >= 100 {
                        break;
                    }
                    assert_eq!(
                        steal_heavy_workload(&rt),
                        sum,
                        "checksum drifted across rounds"
                    );
                }
            }
            let s = rt.stats();
            rows.push(vec![
                queue.label().into(),
                victim.label().into(),
                format!("{:.2}", t as f64 / 1e6),
                s.steals_local_node.to_string(),
                s.steals_remote_node.to_string(),
                s.victim_escalations.to_string(),
                sum.to_string(),
            ]);
        }
    }
    assert!(
        checksums.iter().all(|&c| c == checksums[0]),
        "victim policies disagree on the workload result: {checksums:?}"
    );
    print_table(
        "Victim-policy sweep: 3 queue layers x 3 victim policies, 8 workers on 2 modelled nodes \
         (identical checksums)",
        &[
            "queue layer",
            "victim policy",
            "time (ms)",
            "local steals",
            "remote steals",
            "escalations",
            "checksum",
        ],
        &rows,
    );

    // --- locality property: on the 2-node model, hierarchical victim ------
    // selection must land strictly more same-node steals than uniform.
    // Stats accumulate across rounds until both policies have a solid
    // sample, washing out scheduling noise.
    let accumulate = |victim: VictimPolicy| {
        let rt =
            SchedPolicy::DistributedAggregated.build_runtime_with(vp_workers, victim, two_node());
        for _ in 0..2000 {
            steal_heavy_workload(&rt);
            let s = rt.stats();
            if s.steals_local_node + s.steals_remote_node >= 400 {
                break;
            }
        }
        rt.stats()
    };
    let uni = accumulate(VictimPolicy::Uniform);
    let hier = accumulate(VictimPolicy::Hierarchical);
    assert!(
        hier.steals_local_node > uni.steals_local_node,
        "hierarchical must steal same-node strictly more than uniform \
         (hier {}/{} vs uniform {}/{})",
        hier.steals_local_node,
        hier.steals_remote_node,
        uni.steals_local_node,
        uni.steals_remote_node
    );
    assert!(
        hier.steal_locality_ratio() > uni.steal_locality_ratio(),
        "hierarchical locality ratio must beat uniform: {:.3} vs {:.3}",
        hier.steal_locality_ratio(),
        uni.steal_locality_ratio()
    );
    print_table(
        "Locality property: same-node steal share on 2 modelled nodes (asserted)",
        &["victim policy", "local", "remote", "local share"],
        &[
            vec![
                "uniform".into(),
                uni.steals_local_node.to_string(),
                uni.steals_remote_node.to_string(),
                format!("{:.3}", uni.steal_locality_ratio()),
            ],
            vec![
                "hierarchical".into(),
                hier.steals_local_node.to_string(),
                hier.steals_remote_node.to_string(),
                format!("{:.3}", hier.steal_locality_ratio()),
            ],
        ],
    );

    // --- real: ready-list on/off on a wide data-flow frame --------------
    let mut rows = Vec::new();
    for (label, enabled) in [("ready-list ON", true), ("ready-list OFF", false)] {
        let rt = Runtime::builder()
            .workers(4)
            .promotion(PromotionPolicy {
                enabled,
                promote_len: 16,
                promote_scans: 2,
            })
            .build();
        let t = measure_ns(5, || {
            let handles: Vec<Shared<u64>> = (0..512).map(|_| Shared::new(0)).collect();
            rt.scope(|ctx| {
                for h in &handles {
                    let hw = h.clone();
                    ctx.spawn([h.write()], move |t| {
                        *t.write(&hw) += 1;
                        std::hint::black_box((0..500).sum::<u64>());
                    });
                }
            });
        });
        let s = rt.stats();
        rows.push(vec![
            label.into(),
            format!("{:.2}", t as f64 / 1e6),
            s.promotions.to_string(),
            s.tasks_executed_stolen.to_string(),
        ]);
    }
    print_table(
        "Real: 512 independent writers, 4 workers (this host)",
        &["variant", "time (ms)", "promotions", "stolen"],
        &rows,
    );

    // --- real: aggregation on/off under thief pressure ------------------
    let mut rows = Vec::new();
    let policies: [(&str, Arc<dyn StealPolicy>); 2] = [
        ("aggregation ON", Arc::new(AggregatedStealing)),
        ("aggregation OFF", Arc::new(PerThiefStealing)),
    ];
    for (label, steal) in policies {
        let rt = Runtime::builder().workers(4).steal_policy(steal).build();
        let t = measure_ns(5, || {
            let sum = AtomicUsize::new(0);
            rt.scope(|ctx| {
                let sum = &sum;
                for _ in 0..2000 {
                    ctx.spawn([], move |_| {
                        sum.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            assert_eq!(sum.load(Ordering::Relaxed), 2000);
        });
        let s = rt.stats();
        rows.push(vec![
            label.into(),
            format!("{:.2}", t as f64 / 1e6),
            s.combine_batches.to_string(),
            s.aggregated_requests.to_string(),
        ]);
    }
    print_table(
        "Real: 2000 fine tasks, 4 workers (this host)",
        &["variant", "time (ms)", "combines", "aggregated reqs"],
        &rows,
    );

    // --- real: renaming on/off on the war-chain workload -----------------
    // Repeated whole-object overwrites feeding readers: without renaming
    // every round serializes behind the previous round's readers (WAR) and
    // writer (WAW); with renaming the writers get fresh version slots and
    // the rounds pipeline across workers.
    let (rounds, readers, len) = (64u64, 3usize, 512usize);
    let mut rows = Vec::new();
    let mut checksums = Vec::new();
    for (label, renaming) in [("renaming ON", true), ("renaming OFF", false)] {
        let rt = Runtime::builder().workers(4).renaming(renaming).build();
        let mut sum = 0;
        let t = measure_ns(5, || sum = war_chain(&rt, rounds, readers, len));
        checksums.push(sum);
        let s = rt.stats();
        rows.push(vec![
            label.into(),
            format!("{:.2}", t as f64 / 1e6),
            s.renames.to_string(),
            s.tasks_executed_stolen.to_string(),
            sum.to_string(),
        ]);
    }
    assert!(
        checksums.iter().all(|&c| c == checksums[0]),
        "renaming changed the war-chain result: {checksums:?}"
    );
    print_table(
        &format!(
            "Real: war-chain, {rounds} overwrite rounds x {readers} readers, 4 workers \
             (identical checksums)"
        ),
        &["variant", "time (ms)", "renames", "stolen", "checksum"],
        &rows,
    );

    // --- real: recorded replay vs online scheduling (PR 7) ---------------
    // The tiled Cholesky both ways on the same runtime: online re-spawns
    // and re-analyzes the full DAG every iteration; the recorded path pays
    // dependency analysis once at record time and replays the optimized
    // DAG (critical-path bands, fused chains, continuation spawning).
    // Asserted: per-replay dependency-analysis cost is exactly zero (the
    // `dataflow_pushes` counter stays flat across replays), and from
    // iteration 2 on the replay beats online scheduling.
    {
        let (cn, cnb, iters) = (512usize, 64usize, 8usize);
        let rt = Runtime::builder().workers(4).build();
        let orig = TiledMatrix::spd_random(cn, cnb, 42);
        let mut reference = orig.clone_matrix();
        cholesky_seq(&mut reference).unwrap();

        rt.reset_stats();
        let online_ns = measure_ns(iters, || {
            let a = cholesky_xkaapi(&rt, orig.clone_matrix()).unwrap();
            assert_eq!(a.max_abs_diff_lower(&reference), 0.0);
        });
        let online_pushes = rt.stats().dataflow_pushes / iters as u64;

        let mut rec = RecordedCholesky::record(&rt, orig.clone_matrix());
        let rs = rec.dag().stats();
        rec.replay(&rt).unwrap(); // iteration 1: first replay
        rt.reset_stats();
        let replay_ns = measure_ns(iters, || {
            // Iterations >= 2: reload input, re-execute the recorded DAG.
            rec.load(&orig);
            rec.replay(&rt).unwrap();
        });
        let replay_pushes = rt.stats().dataflow_pushes;
        assert_eq!(rec.result().max_abs_diff_lower(&reference), 0.0);
        assert_eq!(
            replay_pushes, 0,
            "replay must not re-run dependency analysis \
             ({replay_pushes} pushes across {iters} replays)"
        );
        assert!(
            replay_ns <= online_ns,
            "recorded replay (iterations >= 2) must beat online scheduling: \
             replay {:.2} ms vs online {:.2} ms",
            replay_ns as f64 / 1e6,
            online_ns as f64 / 1e6
        );
        print_table(
            &format!(
                "Real: recorded replay vs online, cholesky n={cn} nb={cnb}, \
                 median of {iters} iterations, 4 workers (asserted: replay wins, 0 pushes)"
            ),
            &[
                "variant",
                "time (ms)",
                "pushes/iter",
                "tasks",
                "groups (fused)",
                "critical path",
            ],
            &[
                vec![
                    "online data-flow".into(),
                    format!("{:.2}", online_ns as f64 / 1e6),
                    online_pushes.to_string(),
                    rs.tasks.to_string(),
                    "-".into(),
                    "-".into(),
                ],
                vec![
                    "recorded replay".into(),
                    format!("{:.2}", replay_ns as f64 / 1e6),
                    "0".into(),
                    rs.tasks.to_string(),
                    format!("{} ({} tasks fused)", rs.groups, rs.fused_tasks),
                    rs.critical_path_len.to_string(),
                ],
            ],
        );
    }

    // --- deterministic: ready-set width straight from the dataflow core --
    // Bind the war-chain access sequence into a standalone engine and
    // measure how many tasks are concurrently ready before anything runs.
    let h = Shared::renameable(0u64);
    let width = |enabled: bool| {
        let pol = RenamePolicy {
            enabled,
            ..Default::default()
        };
        let mut eng = DataflowEngine::new();
        for _ in 0..rounds {
            eng.bind(&[h.write()], &pol);
            for _ in 0..readers {
                eng.bind(&[h.read()], &pol);
            }
        }
        eng.ready_width()
    };
    let (w_on, w_off) = (width(true), width(false));
    assert!(
        w_on > w_off,
        "renaming must widen the war-chain ready set ({w_on} vs {w_off})"
    );
    print_table(
        "Deterministic: initial ready-set width of the war-chain DAG",
        &["variant", "ready width"],
        &[
            vec!["renaming ON".into(), w_on.to_string()],
            vec!["renaming OFF".into(), w_off.to_string()],
        ],
    );

    // --- real: park-threshold sweep (idle spin rounds before blocking) ---
    let mut rows = Vec::new();
    for park_rounds in [1u32, 32, 1024] {
        let rt = Runtime::builder()
            .workers(4)
            .steal_rounds_before_park(park_rounds)
            .build();
        let t = measure_ns(5, || {
            let s = rt.foreach_reduce(
                0..200_000,
                None,
                || 0u64,
                |a, i| *a += i as u64,
                |a, b| a + b,
            );
            assert_eq!(s, 199_999u64 * 100_000);
        });
        rows.push(vec![
            park_rounds.to_string(),
            format!("{:.2}", t as f64 / 1e6),
        ]);
    }
    print_table(
        "Real: park-threshold sweep, 200k-iteration reduction, 4 workers",
        &["steal rounds before park", "time (ms)"],
        &rows,
    );

    // --- simulated: aggregation at 48 cores ------------------------------
    // Spine + fan-out workload: many simultaneously idle thieves hammer one
    // victim, the regime the paper's aggregation targets.
    let mut tasks = Vec::new();
    let mut acc: Vec<Vec<(u64, bool)>> = Vec::new();
    for g in 0..60u64 {
        tasks.push(SimTask {
            work_ns: 25_000,
            bytes: 0,
        });
        acc.push(vec![(0, true)]);
        for j in 0..47u64 {
            tasks.push(SimTask {
                work_ns: 5_000,
                bytes: 0,
            });
            acc.push(vec![(0, false), (1_000 + g * 64 + j, true)]);
        }
    }
    let dag = TaskDag::from_accesses(tasks, &acc);
    let p48 = Platform::magny_cours(48);
    let mut rows = Vec::new();
    for (label, aggregation) in [("aggregation ON", true), ("aggregation OFF", false)] {
        let pol = DagPolicy::WorkStealing {
            steal_ns: 400,
            task_overhead_ns: 50,
            aggregation,
            spawn_ns: 0,
        };
        let r = simulate_dag(&p48, &dag, &pol, 7);
        rows.push(vec![
            label.into(),
            format!("{:.3}", r.makespan_ns as f64 / 1e6),
            r.steals.to_string(),
        ]);
    }
    print_table(
        "Simulated: spine + 47-wide fan-out, 48 virtual cores",
        &["variant", "makespan (ms)", "steals"],
        &rows,
    );

    // --- simulated: loop grain sweep (adaptive foreach) ------------------
    use xkaapi_sim::{simulate_loop, LoopPolicy, LoopWorkload};
    let w = LoopWorkload::jittered(100_000, 2_000, 0.4, 0, 3);
    let mut rows = Vec::new();
    for grain in [1usize, 8, 64, 512, 4096] {
        let r = simulate_loop(
            &p48,
            &w,
            &LoopPolicy::KaapiAdaptive {
                grain,
                steal_ns: 400,
            },
        );
        rows.push(vec![
            grain.to_string(),
            format!("{:.3}", r.makespan_ns as f64 / 1e6),
            r.chunks.to_string(),
            r.steals.to_string(),
        ]);
    }
    print_table(
        "Simulated: adaptive-loop grain sweep, 100k jittered iterations, 48 cores",
        &["grain", "makespan (ms)", "chunks", "steals"],
        &rows,
    );
    println!("\n(too-fine grains pay per-chunk costs; too-coarse grains lose balance —");
    println!(" the on-demand splitting keeps the middle flat, the paper's §II-D point)");

    // --- simulated: which paradigm feeds an offload engine best ----------
    // Three DAG shapes of identical per-task grain under the batched-launch
    // offload track: the engine amortizes its launch latency only when the
    // ready set stays wide enough to fill batches.
    let work = 5_000u64;
    // Fork-join: divide-and-conquer spawn tree — width doubles each phase
    // down to 2048 leaves, then the joins fold back up.
    let mut fj_tasks = Vec::new();
    let mut fj_phase: Vec<u32> = Vec::new();
    for (ph, level) in (0..=11u32).chain((0..11u32).rev()).enumerate() {
        for _ in 0..(1u64 << level) {
            fj_tasks.push(SimTask {
                work_ns: work,
                bytes: 0,
            });
            fj_phase.push(ph as u32);
        }
    }
    let fj = TaskDag::from_phases(fj_tasks, &fj_phase);
    // Data-flow: 64×64 wavefront — task (i,j) reads (i−1,j) and (i,j−1).
    let nw = 64usize;
    let mut wf_tasks = Vec::new();
    let mut wf_acc: Vec<Vec<(u64, bool)>> = Vec::new();
    for i in 0..nw {
        for j in 0..nw {
            let mut a = vec![((i * nw + j) as u64, true)];
            if i > 0 {
                a.push((((i - 1) * nw + j) as u64, false));
            }
            if j > 0 {
                a.push(((i * nw + j - 1) as u64, false));
            }
            wf_tasks.push(SimTask {
                work_ns: work,
                bytes: 0,
            });
            wf_acc.push(a);
        }
    }
    let wf = TaskDag::from_accesses(wf_tasks, &wf_acc);
    // Loop: 4096 fully independent iterations.
    let ind_tasks = vec![
        SimTask {
            work_ns: work,
            bytes: 0
        };
        4_096
    ];
    let ind_acc: Vec<Vec<(u64, bool)>> = (0..4_096).map(|i| vec![(i as u64, true)]).collect();
    let ind = TaskDag::from_accesses(ind_tasks, &ind_acc);
    let mut rows = Vec::new();
    for (label, dag) in [
        ("fork-join tree", &fj),
        ("data-flow wavefront", &wf),
        ("independent loop", &ind),
    ] {
        let pol = DagPolicy::Offload {
            launch_ns: 5_000,
            batch: 32,
            transfer_ns: 200,
        };
        let r = simulate_dag(&p48, dag, &pol, 11);
        let n = dag.len() as f64;
        rows.push(vec![
            label.into(),
            dag.len().to_string(),
            format!("{:.3}", r.makespan_ns as f64 / 1e6),
            r.launches.to_string(),
            format!("{:.1}", n / r.launches.max(1) as f64),
            format!(
                "{:.1}",
                100.0 * dag.total_work_ns() as f64 / (48.0 * r.makespan_ns as f64)
            ),
        ]);
    }
    print_table(
        "Simulated: feeding the offload track (batch 32, 5 µs launch), 48 lanes",
        &[
            "paradigm",
            "tasks",
            "makespan (ms)",
            "launches",
            "tasks/launch",
            "efficiency %",
        ],
        &rows,
    );
    println!("\n(the loop paradigm keeps the ready set wide and feeds every batch");
    println!(" at once; the wavefront's ready set is one diagonal — too narrow to");
    println!(" cover launch latency; the fork-join tree sits between: its middle");
    println!(" phases are wide but the narrow top and join barriers drain lanes)");
}
