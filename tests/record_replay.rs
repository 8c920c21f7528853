//! Recorded-replay equivalence suite (ISSUE 7): a DAG captured by
//! `rt.record(...)` and replayed must be indistinguishable — result-wise —
//! from spawning the same tasks online, on **every** scheduler
//! configuration; repeated replays must be deterministic; and a replay
//! after mutating the input must observe the new values (handles are
//! re-read, not snapshotted).
//!
//! The tests after `replay_runs_zero_dependency_analysis` check the
//! replay executor itself: where groups run, how they are counted, the
//! order one worker picks them in, children spawned by recorded bodies,
//! nesting and panics. Each runs on a spawned thread and fails through a
//! 60 s `recv_timeout` instead of hanging on a lost wake-up.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};
use xkaapi::{Priority, RecordedDag, Runtime, Shared, Steal};
use xkaapi_linalg::{cholesky_seq, RecordedCholesky, TiledMatrix};

/// A mixed DAG over several handles: exclusive chains, cross reads, and a
/// final join — enough structure for WAR/WAW edges, fusion and the
/// critical-path pass to all engage. Returns a schedule-independent
/// checksum.
fn spawn_online(rt: &Runtime, chains: usize, links: usize) -> u64 {
    let cells: Vec<Shared<u64>> = (0..chains).map(|i| Shared::new(i as u64 + 1)).collect();
    let sum = Shared::new(0u64);
    rt.scope(|ctx| {
        for (i, c) in cells.iter().enumerate() {
            for l in 0..links {
                let w = c.clone();
                let r = cells[(i + 1) % chains].clone();
                ctx.spawn([w.exclusive(), r.read()], move |t| {
                    let add = *t.read(&r) % 7 + l as u64;
                    let mut g = t.write(&w);
                    *g = g.wrapping_mul(3).wrapping_add(add);
                });
            }
        }
        let s = sum.clone();
        let all: Vec<_> = cells.to_vec();
        let accs: Vec<_> = cells
            .iter()
            .map(|c| c.read())
            .chain([s.exclusive()])
            .collect();
        ctx.spawn(accs, move |t| {
            let mut acc = 0u64;
            for c in &all {
                acc = acc.wrapping_mul(31).wrapping_add(*t.read(c));
            }
            *t.write(&s) = acc;
        });
    });
    *sum.get()
}

/// The same DAG captured with `rt.record`. Returns the DAG plus handles to
/// reset inputs and read the checksum between replays.
fn record_dag(
    rt: &Runtime,
    chains: usize,
    links: usize,
) -> (RecordedDag, Vec<Shared<u64>>, Shared<u64>) {
    let cells: Vec<Shared<u64>> = (0..chains).map(|i| Shared::new(i as u64 + 1)).collect();
    let sum = Shared::new(0u64);
    let dag = rt.record(|rec| {
        for (i, c) in cells.iter().enumerate() {
            for l in 0..links {
                let w = c.clone();
                let r = cells[(i + 1) % chains].clone();
                rec.spawn([w.exclusive(), r.read()], move |t| {
                    let add = *t.read(&r) % 7 + l as u64;
                    let mut g = t.write(&w);
                    *g = g.wrapping_mul(3).wrapping_add(add);
                });
            }
        }
        let s = sum.clone();
        let all: Vec<_> = cells.to_vec();
        let accs: Vec<_> = cells
            .iter()
            .map(|c| c.read())
            .chain([s.exclusive()])
            .collect();
        rec.spawn(accs, move |t| {
            let mut acc = 0u64;
            for c in &all {
                acc = acc.wrapping_mul(31).wrapping_add(*t.read(c));
            }
            *t.write(&s) = acc;
        });
    });
    (dag, cells, sum)
}

fn reset_cells(cells: &[Shared<u64>], base: u64) {
    // Quiescence contract: called between replays only.
    let rt = Runtime::new(1);
    rt.scope(|ctx| {
        for (i, c) in cells.iter().enumerate() {
            let w = c.clone();
            ctx.spawn([w.exclusive()], move |t| *t.write(&w) = i as u64 + base);
        }
    });
}

const CHAINS: usize = 6;
const LINKS: usize = 5;

#[test]
fn record_matches_online_on_every_scheduler_policy() {
    for policy in [Steal::AGGREGATED, Steal::PER_THIEF] {
        let rt = Runtime::builder().workers(4).steal(policy).build();
        let online = spawn_online(&rt, CHAINS, LINKS);
        let (dag, _cells, sum) = record_dag(&rt, CHAINS, LINKS);
        dag.replay(&rt);
        assert_eq!(
            *sum.get(),
            online,
            "recorded replay diverged from online scheduling under {}",
            policy.name()
        );
    }
}

#[test]
fn repeated_replays_are_deterministic() {
    let rt = Runtime::new(4);
    let (dag, cells, sum) = record_dag(&rt, CHAINS, LINKS);
    dag.replay(&rt);
    let first = *sum.get();
    for round in 0..5 {
        reset_cells(&cells, 1);
        dag.replay(&rt);
        assert_eq!(*sum.get(), first, "replay round {round} diverged");
    }
}

#[test]
fn replay_observes_mutated_input() {
    let rt = Runtime::new(4);
    let (dag, cells, sum) = record_dag(&rt, CHAINS, LINKS);
    dag.replay(&rt);
    let with_base_1 = *sum.get();
    reset_cells(&cells, 100);
    dag.replay(&rt);
    let with_base_100 = *sum.get();
    assert_ne!(
        with_base_1, with_base_100,
        "replay must re-read current handle data, not a snapshot"
    );
    // And it matches what online scheduling computes from the same inputs.
    let rt2 = Runtime::new(4);
    let cells2: Vec<Shared<u64>> = (0..CHAINS).map(|i| Shared::new(i as u64 + 100)).collect();
    let sum2 = Shared::new(0u64);
    rt2.scope(|ctx| {
        for (i, c) in cells2.iter().enumerate() {
            for l in 0..LINKS {
                let w = c.clone();
                let r = cells2[(i + 1) % CHAINS].clone();
                ctx.spawn([w.exclusive(), r.read()], move |t| {
                    let add = *t.read(&r) % 7 + l as u64;
                    let mut g = t.write(&w);
                    *g = g.wrapping_mul(3).wrapping_add(add);
                });
            }
        }
        let s = sum2.clone();
        let all: Vec<_> = cells2.to_vec();
        let accs: Vec<_> = cells2
            .iter()
            .map(|c| c.read())
            .chain([s.exclusive()])
            .collect();
        ctx.spawn(accs, move |t| {
            let mut acc = 0u64;
            for c in &all {
                acc = acc.wrapping_mul(31).wrapping_add(*t.read(c));
            }
            *t.write(&s) = acc;
        });
    });
    assert_eq!(*sum2.get(), with_base_100);
}

#[test]
fn recorded_cholesky_matches_online_on_every_scheduler_policy() {
    let orig = TiledMatrix::spd_random(96, 16, 7);
    let mut reference = orig.clone_matrix();
    cholesky_seq(&mut reference).unwrap();
    for policy in [Steal::AGGREGATED, Steal::PER_THIEF] {
        let rt = Runtime::builder().workers(4).steal(policy).build();
        let mut rec = RecordedCholesky::record(&rt, orig.clone_matrix());
        rec.replay(&rt).unwrap();
        assert_eq!(
            rec.result().max_abs_diff_lower(&reference),
            0.0,
            "recorded Cholesky diverged under {}",
            policy.name()
        );
        // Reload-and-replay: still bit-identical, and no replay binds a
        // single task into the data-flow engine.
        rt.reset_stats();
        for _ in 0..3 {
            rec.load(&orig);
            rec.replay(&rt).unwrap();
            assert_eq!(
                rec.result().max_abs_diff_lower(&reference),
                0.0,
                "reloaded replay diverged under {}",
                policy.name()
            );
        }
        assert_eq!(rt.stats().dataflow_pushes, 0, "under {}", policy.name());
    }
}

#[test]
fn replay_runs_zero_dependency_analysis() {
    let rt = Runtime::new(4);
    let (dag, cells, _sum) = record_dag(&rt, CHAINS, LINKS);
    dag.replay(&rt); // warm-up
    reset_cells(&cells, 1); // scopes above push analyzed tasks; reset after
    rt.reset_stats();
    for _ in 0..4 {
        dag.replay(&rt);
    }
    let stats = rt.stats();
    assert_eq!(
        stats.dataflow_pushes, 0,
        "replay re-ran dependency analysis"
    );
    assert!(stats.tasks_spawned > 0, "replay did execute tasks");
}

/// Run `body` on its own thread; fail if it does not finish in 60 s.
fn within_deadline(what: &str, body: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let worker = thread::spawn(move || {
        body();
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(60)) {
        Ok(()) => worker.join().unwrap(),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            if let Err(p) = worker.join() {
                std::panic::resume_unwind(p);
            }
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("{what}: no progress in 60 s (lost wake-up?)")
        }
    }
}

/// Wait until a scope of `rt` runs its root on this thread: a worker has
/// parked, so the next scope takes its seat.
fn until_a_seat_is_free(rt: &Runtime) {
    let me = thread::current().id();
    let t0 = Instant::now();
    while rt.scope(|_| thread::current().id()) != me {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "no worker of an idle pool parked in 30 s"
        );
        thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn one_worker_replay_runs_on_the_caller_and_counts_each_group_once() {
    within_deadline("W=1 replay on the caller", || {
        let rt = Runtime::new(1);
        let ran_on = Arc::new(Mutex::new(Vec::new()));
        let cells: Vec<Shared<u64>> = (0..4).map(Shared::new).collect();
        let dag = rt.record(|rec| {
            for i in 0..40 {
                let c = cells[i % 4].clone();
                let log = Arc::clone(&ran_on);
                rec.spawn([c.exclusive()], move |t| {
                    log.lock().unwrap().push(thread::current().id());
                    *t.write(&c) += 1;
                });
            }
        });
        let groups = dag.stats().groups as u64;
        assert!(groups > 4, "the DAG must have several groups");
        until_a_seat_is_free(&rt);
        rt.reset_stats();
        dag.replay(&rt);
        let me = thread::current().id();
        let ran_on = ran_on.lock().unwrap();
        assert_eq!(ran_on.len(), 40);
        assert!(
            ran_on.iter().all(|&t| t == me),
            "a group ran off the caller"
        );
        let s = rt.stats();
        assert_eq!(s.tasks_spawned, groups, "one spawn per replayed group");
        assert_eq!(s.tasks_executed_own + s.tasks_executed_stolen, groups);
        assert_eq!(s.dataflow_pushes, 0);
    });
}

#[test]
fn children_of_a_recorded_body_finish_before_its_successors_start() {
    within_deadline("children before successors", || {
        for policy in [Steal::AGGREGATED, Steal::PER_THIEF] {
            let rt = Runtime::builder().workers(4).steal(policy).build();
            let h = Shared::new(0u64);
            let spawned = Shared::new(0u64);
            let joined = Arc::new(AtomicU64::new(0));
            let looped = Arc::new(AtomicU64::new(0));
            let seen = Arc::new(Mutex::new(Vec::new()));
            let dag = rt.record(|rec| {
                let (hw, sw) = (h.clone(), spawned.clone());
                let (j, l) = (Arc::clone(&joined), Arc::clone(&looped));
                rec.task()
                    .exclusive(&h)
                    .exclusive(&spawned)
                    .spawn(move |t| {
                        *t.write(&hw) += 1;
                        *t.write(&sw) = 0;
                        j.store(0, Ordering::SeqCst);
                        l.store(0, Ordering::SeqCst);
                        let s = sw.clone();
                        t.task().exclusive(&sw).spawn(move |c| {
                            thread::sleep(Duration::from_millis(2));
                            *c.write(&s) = 7;
                        });
                        t.join(
                            |_| {
                                j.fetch_add(1, Ordering::SeqCst);
                            },
                            |_| {
                                thread::sleep(Duration::from_millis(1));
                                j.fetch_add(2, Ordering::SeqCst);
                            },
                        );
                        t.foreach_chunks(0..1000, Some(10), &|r: std::ops::Range<usize>| {
                            l.fetch_add(r.len() as u64, Ordering::SeqCst);
                        });
                    });
                // Two readers: the writer has two successors, so it is a
                // group of its own and each reader starts another group.
                for _ in 0..2 {
                    let (hr, sr) = (h.clone(), spawned.clone());
                    let (j, l, seen) =
                        (Arc::clone(&joined), Arc::clone(&looped), Arc::clone(&seen));
                    rec.task().reads(&h).reads(&spawned).spawn(move |t| {
                        let _ = *t.read(&hr);
                        let got = (
                            *t.read(&sr),
                            j.load(Ordering::SeqCst),
                            l.load(Ordering::SeqCst),
                        );
                        seen.lock().unwrap().push(got);
                    });
                }
            });
            assert_eq!(
                dag.stats().groups,
                3,
                "writer and readers are separate groups"
            );
            for _ in 0..10 {
                dag.replay(&rt);
            }
            let seen = seen.lock().unwrap();
            assert_eq!(seen.len(), 20);
            for &got in seen.iter() {
                assert_eq!(
                    got,
                    (7, 3, 1000),
                    "a successor started early under {}",
                    policy.name()
                );
            }
        }
    });
}

#[test]
fn one_worker_runs_the_critical_chain_before_slack_groups() {
    within_deadline("band-first pick", || {
        let rt = Runtime::new(1);
        let order = Arc::new(Mutex::new(Vec::new()));
        let chain = Shared::new(0u64);
        let fan: Vec<Shared<u64>> = (0..50).map(|_| Shared::new(0u64)).collect();
        // Fan first in program order: index order alone would run it first.
        let dag = rt.record(|rec| {
            for (i, f) in fan.iter().enumerate() {
                let (f, log) = (f.clone(), Arc::clone(&order));
                rec.spawn([f.exclusive()], move |t| {
                    log.lock().unwrap().push(100 + i);
                    *t.write(&f) += 1;
                });
            }
            for i in 0..20 {
                let (c, log) = (chain.clone(), Arc::clone(&order));
                rec.spawn([c.exclusive()], move |t| {
                    log.lock().unwrap().push(i);
                    *t.write(&c) += 1;
                });
            }
        });
        assert_eq!(dag.band_of(0), Priority::Low.band() as u8, "fan is slack");
        assert_eq!(
            dag.band_of(50),
            Priority::High.band() as u8,
            "chain is critical"
        );
        assert!(dag.stats().groups >= 53, "the chain spans several groups");
        dag.replay(&rt);
        let order = order.lock().unwrap();
        assert_eq!(order.len(), 70);
        let second_group = order.iter().position(|&e| e == 8).unwrap();
        let first_low = order.iter().position(|&e| e >= 100).unwrap();
        assert!(
            second_group < first_low,
            "a Low group ran before the chain's second group: {order:?}"
        );
        assert_eq!(*chain.get(), 20);
    });
}

#[test]
fn replay_from_inside_a_task_of_the_same_runtime_completes() {
    within_deadline("nested replay", || {
        let rt = Runtime::new(2);
        let (dag, cells, sum) = record_dag(&rt, CHAINS, LINKS);
        dag.replay(&rt);
        let expected = *sum.get();
        reset_cells(&cells, 1);
        rt.scope(|ctx| {
            let (dag, rt) = (&dag, &rt);
            ctx.spawn([], move |_| dag.replay(rt));
        });
        assert_eq!(*sum.get(), expected);
        reset_cells(&cells, 1);
        let sums = rt.scope(|ctx| {
            ctx.join(
                |_| {
                    dag.replay(&rt);
                    *sum.get()
                },
                |_| 0,
            )
        });
        assert_eq!(sums.0, expected);
    });
}

#[test]
fn a_member_panic_on_a_wide_fan_reraises_once_and_the_dag_replays_clean() {
    within_deadline("panic on a fan", || {
        let rt = Runtime::new(4);
        let src = Shared::new(0u64);
        let outs: Vec<Shared<u64>> = (0..200).map(|_| Shared::new(0u64)).collect();
        let boom = Arc::new(AtomicBool::new(true));
        let dag = rt.record(|rec| {
            let s = src.clone();
            rec.spawn([s.exclusive()], move |t| *t.write(&s) += 1);
            for (i, o) in outs.iter().enumerate() {
                let (s, o, b) = (src.clone(), o.clone(), Arc::clone(&boom));
                rec.spawn([s.read(), o.exclusive()], move |t| {
                    if i == 100 && b.load(Ordering::SeqCst) {
                        panic!("fan member panic");
                    }
                    *t.write(&o) = *t.read(&s);
                });
            }
        });
        let groups = dag.stats().groups as u64;
        assert_eq!(groups, 201);
        rt.reset_stats();
        let err = catch_unwind(AssertUnwindSafe(|| dag.replay(&rt)))
            .expect_err("the member panic must re-raise at replay");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"fan member panic"));
        let s = rt.stats();
        assert_eq!(s.tasks_panicked, 1, "one member panicked");
        assert_eq!(s.tasks_spawned, groups, "skipped groups still count once");
        assert_eq!(s.tasks_executed_own + s.tasks_executed_stolen, groups);
        boom.store(false, Ordering::SeqCst);
        dag.replay(&rt);
        assert_eq!(*src.get(), 2);
        assert!(
            outs.iter().all(|o| *o.get() == 2),
            "clean replay after a poisoned one"
        );
    });
}
