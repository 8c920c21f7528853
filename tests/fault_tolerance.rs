//! Fault-tolerant task lifecycle (DESIGN.md §8): panic isolation and
//! cooperative cancellation.
//!
//! A task-body panic under every steal policy neither kills a
//! worker nor hangs any join; a panicked frame poisons exactly its
//! dataflow cone (successors complete as failed, countdowns drain);
//! `JoinHandle::cancel` skips every body past the cancel point on a
//! single-worker determinism run; a cancelled queued job is shed at
//! drain time.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xkaapi::core::{CancelToken, Runtime, Shared, Steal, SubmitError};

/// Spin-wait (with yields) until `cond` holds, panicking after `secs`.
fn wait_until(secs: u64, what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

/// The two steal protocols.
fn all_policies(workers: usize) -> Vec<(&'static str, Runtime)> {
    let combos = [
        ("dist+agg", Steal::AGGREGATED),
        ("dist+perthief", Steal::PER_THIEF),
    ];
    combos
        .into_iter()
        .map(|(name, s)| (name, Runtime::builder().workers(workers).steal(s).build()))
        .collect()
}

/// A task-body panic under every steal policy: the panic re-raises
/// at the scope, no worker dies, no join hangs, and the pool does real
/// work afterwards.
#[test]
fn task_panic_survives_every_policy() {
    for (name, rt) in all_policies(4) {
        let err = catch_unwind(AssertUnwindSafe(|| {
            rt.scope(|ctx| {
                let h = Shared::new(0u64);
                let h1 = h.clone();
                ctx.spawn([h.write()], move |t| {
                    *t.write(&h1) = 1;
                    panic!("planned task panic");
                });
                for _ in 0..16 {
                    let hr = h.clone();
                    ctx.spawn([h.read()], move |t| {
                        let _ = *t.read(&hr);
                    });
                }
            });
        }))
        .expect_err("the task panic must re-raise at the scope");
        assert!(
            err.downcast_ref::<&str>()
                .is_some_and(|m| m.contains("planned task panic")),
            "[{name}] unexpected payload"
        );
        let snap = rt.stats();
        assert_eq!(snap.tasks_panicked, 1, "[{name}] panic not counted");
        // Workers alive: a full fork-join + dataflow round still completes.
        assert_eq!(rt.scope(|ctx| ctx.join(|_| 6, |_| 7)), (6, 7), "[{name}]");
        let sum = rt.foreach_reduce(0..1000, None, || 0u64, |s, i| *s += i as u64, |a, b| a + b);
        assert_eq!(sum, 499_500, "[{name}]");
    }
}

/// A submit flood where every 100th job panics, then a cancel wave that
/// sheds what is still queued, on the same pool. Each payload re-raises
/// at exactly its own handle (never a neighbour's), every other handle
/// returns its own value, no handle of the wave is lost, and the workers
/// still run a fork-join tree afterwards.
#[test]
fn panic_storm_cancel_wave_and_shed_leave_the_pool_serving() {
    let rt = Runtime::new(4);
    let jobs = 2_000u64;
    let handles: Vec<_> = (0..jobs)
        .map(|i| {
            rt.submit(move |_ctx| {
                if i % 100 == 7 {
                    panic!("planned panic in job {i}");
                }
                i * 3
            })
            .unwrap()
        })
        .collect();
    let mut caught = 0u64;
    for (i, h) in (0..jobs).zip(handles) {
        match catch_unwind(AssertUnwindSafe(|| h.wait())) {
            Ok(v) => assert_eq!(v, i * 3, "job {i} returned a neighbour's value"),
            Err(p) => {
                let msg = p.downcast_ref::<String>().cloned().unwrap_or_default();
                assert_eq!(msg, format!("planned panic in job {i}"), "wrong join");
                caught += 1;
            }
        }
    }
    assert_eq!(caught, jobs / 100, "every planned panic re-raised once");

    // Cancel wave: one shared token over a second flood, cancelled while
    // it drains. Every handle resolves, either run or cancelled.
    let tok = CancelToken::new();
    let wave: Vec<_> = (0..jobs)
        .map(|i| rt.task().cancel_token(&tok).submit(move |_ctx| i).unwrap())
        .collect();
    tok.cancel();
    let (mut ran, mut cancelled) = (0u64, 0u64);
    for (i, h) in (0..jobs).zip(wave) {
        match h.join() {
            Ok(v) => {
                assert_eq!(v, i);
                ran += 1;
            }
            Err(SubmitError::Cancelled) => cancelled += 1,
            Err(e) => panic!("unexpected lifecycle exit: {e}"),
        }
    }
    assert_eq!(ran + cancelled, jobs, "no handle lost in the wave");

    fn fib(c: &mut xkaapi::core::Ctx<'_>, n: u64) -> u64 {
        if n < 2 {
            n
        } else {
            let (a, b) = c.join(|c| fib(c, n - 1), |c| fib(c, n - 2));
            a + b
        }
    }
    assert_eq!(rt.scope(|c| fib(c, 10)), 55, "pool alive after the storm");
}

/// Poisoning follows the dataflow cone exactly: in a chain a → b → c where
/// a panics, b and c complete as failed without running, while an
/// independent task still executes. Single worker keeps the counts exact.
#[test]
fn panic_poisons_exactly_the_dataflow_cone() {
    let rt = Runtime::new(1);
    let ran = Arc::new(AtomicU64::new(0));
    let err = catch_unwind(AssertUnwindSafe(|| {
        rt.scope(|ctx| {
            let h = Shared::new(0u64);
            let other = Shared::new(0u64);
            ctx.spawn([h.write()], |_| panic!("a failed"));
            let r = Arc::clone(&ran);
            ctx.spawn([h.write()], move |_| {
                r.fetch_add(1, Ordering::SeqCst);
            });
            let r = Arc::clone(&ran);
            ctx.spawn([h.read()], move |_| {
                r.fetch_add(1, Ordering::SeqCst);
            });
            let r = Arc::clone(&ran);
            ctx.spawn([other.write()], move |_| {
                r.fetch_add(100, Ordering::SeqCst);
            });
        });
    }))
    .expect_err("the cone's panic must re-raise");
    assert!(err.downcast_ref::<&str>().is_some_and(|m| *m == "a failed"));
    assert_eq!(
        ran.load(Ordering::SeqCst),
        100,
        "successors of the panicked task must not run; independent tasks must"
    );
    let snap = rt.stats();
    assert_eq!(snap.tasks_panicked, 1);
    assert_eq!(snap.tasks_poisoned, 2, "b and c completed-as-failed");
}

/// A panic inside a `foreach` chunk: the loop drains, the panic re-raises
/// at the caller, and the pool stays usable.
#[test]
fn foreach_chunk_panic_is_contained() {
    let rt = Runtime::new(4);
    let err = catch_unwind(AssertUnwindSafe(|| {
        rt.foreach(0..10_000, |i| {
            if i == 4321 {
                panic!("chunk panic at {i}");
            }
        });
    }))
    .expect_err("the chunk panic must re-raise");
    assert!(err
        .downcast_ref::<String>()
        .is_some_and(|m| m.contains("chunk panic at 4321")));
    let sum = rt.foreach_reduce(0..100, None, || 0u64, |s, i| *s += i as u64, |a, b| a + b);
    assert_eq!(sum, 4950);
}

/// A panic inside a recorded-replay group body: the replay's countdown
/// protocol still drains (no hang), the payload re-raises, and the same
/// DAG replays cleanly afterwards (poisoning is per-run state).
#[test]
fn replay_group_panic_drains_and_rethrows() {
    let rt = Runtime::new(2);
    let h = Shared::new(0u64);
    let boom = Arc::new(AtomicBool::new(true));
    let dag = {
        let (h1, h2, h3) = (h.clone(), h.clone(), h.clone());
        let b = Arc::clone(&boom);
        rt.record(|rec| {
            rec.spawn([h1.write()], move |t| {
                *t.write(&h1) = 1;
                if b.load(Ordering::SeqCst) {
                    panic!("replay member panic");
                }
            });
            let h2c = h2.clone();
            rec.spawn([h2.read(), h2.write()], move |t| *t.write(&h2c) += 10);
            let h3c = h3.clone();
            rec.spawn([h3.read(), h3.write()], move |t| *t.write(&h3c) += 100);
        })
    };
    let err = catch_unwind(AssertUnwindSafe(|| dag.replay(&rt)))
        .expect_err("the member panic must re-raise at replay");
    assert!(err
        .downcast_ref::<&str>()
        .is_some_and(|m| m.contains("replay member panic")));
    assert!(rt.stats().tasks_panicked >= 1);
    // Per-run poisoning: the same DAG replays cleanly once the fault is gone.
    boom.store(false, Ordering::SeqCst);
    dag.replay(&rt);
    assert_eq!(*h.get(), 111, "clean replay after a poisoned one");
}

/// Double consumption after a panic: the first `try_result` re-raises, the
/// second returns `None` (not a hang, not a second unwind), and the pool
/// keeps working.
#[test]
fn double_wait_after_panic_stays_usable() {
    let rt = Runtime::new(2);
    let mut handle = rt.submit(|_ctx| -> u32 { panic!("job boom") }).unwrap();
    wait_until(20, "panicked job to finish", || handle.is_done());
    let err = catch_unwind(AssertUnwindSafe(|| handle.try_result()))
        .expect_err("first poll re-raises the panic");
    assert!(err.downcast_ref::<&str>().is_some_and(|m| *m == "job boom"));
    assert_eq!(
        handle.try_result(),
        None,
        "second poll after the payload was taken must be a calm None"
    );
    assert_eq!(rt.scope(|ctx| ctx.join(|_| 2, |_| 3)), (2, 3));
}

/// Cancel a queued job before any worker drains it: the body never runs
/// and the handle reports `Err(Cancelled)`.
#[test]
fn cancel_before_drain_skips_the_body() {
    let rt = Runtime::new(1);
    // Pin the only worker so the next submission stays queued.
    let gate = Arc::new(AtomicBool::new(false));
    let g = Arc::clone(&gate);
    let busy = rt
        .submit(move |_ctx| {
            while !g.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        })
        .unwrap();
    let ran = Arc::new(AtomicBool::new(false));
    let r = Arc::clone(&ran);
    let handle = rt
        .submit(move |_ctx| {
            r.store(true, Ordering::SeqCst);
            7u32
        })
        .unwrap();
    assert!(handle.cancel(), "first cancel returns true");
    assert!(!handle.cancel(), "cancel is idempotent");
    gate.store(true, Ordering::Release);
    busy.wait();
    assert_eq!(handle.join(), Err(SubmitError::Cancelled));
    assert!(!ran.load(Ordering::SeqCst), "cancelled body must not run");
    assert_eq!(rt.stats().tasks_cancelled, 1);
}

/// The single-worker cancellation determinism gate: a deep cone of 50
/// tasks whose 10th body cancels the shared token. Every body asserts the
/// token was still live when it started — so *zero* bodies execute after
/// the cancel point — yet the scope returns (countdowns drained) and
/// executed + cancelled accounts for the whole cone.
#[test]
fn cancel_mid_cone_skips_every_later_body() {
    let rt = Runtime::new(1);
    let tok = CancelToken::new();
    let executed = Arc::new(AtomicU64::new(0));
    const N: u64 = 50;
    const CANCEL_AT: u64 = 10;
    let (t, ex) = (tok.clone(), Arc::clone(&executed));
    let handle = rt
        .task()
        .cancel_token(&tok)
        .submit(move |ctx| {
            for i in 0..N {
                let (t, ex) = (t.clone(), Arc::clone(&ex));
                let h = Shared::new(0u8);
                ctx.spawn([h.write()], move |_| {
                    assert!(
                        !t.is_cancelled(),
                        "task {i}: body ran after the cancel point"
                    );
                    ex.fetch_add(1, Ordering::SeqCst);
                    if i == CANCEL_AT {
                        t.cancel();
                    }
                });
            }
        })
        .unwrap();
    handle.join().expect("the root job itself is not cancelled");
    let ran = executed.load(Ordering::SeqCst);
    assert_eq!(
        ran,
        CANCEL_AT + 1,
        "single worker runs the cone in program order up to the cancel point"
    );
    assert_eq!(
        rt.stats().tasks_cancelled,
        N - ran,
        "every skipped task is accounted as cancelled"
    );
}

/// `Ctx::is_cancelled` exposes the inherited token inside task bodies.
#[test]
fn ctx_observes_inherited_cancellation() {
    let rt = Runtime::new(1);
    let tok = CancelToken::new();
    let t = tok.clone();
    let handle = rt
        .task()
        .cancel_token(&tok)
        .submit(move |ctx| {
            assert!(!ctx.is_cancelled());
            t.cancel();
            assert!(ctx.is_cancelled(), "cancel is visible mid-body");
            ctx.cancel_token().expect("token must be inherited")
        })
        .unwrap();
    let inner = handle.join().expect("root body already started");
    assert!(inner.is_cancelled());
}

/// A cancelled cone's parallel loop drains without executing chunks.
#[test]
fn cancelled_cone_skips_foreach_chunks() {
    let rt = Runtime::new(2);
    let tok = CancelToken::new();
    tok.cancel();
    let hits = Arc::new(AtomicU64::new(0));
    let hs = Arc::clone(&hits);
    let handle = rt
        .task()
        .cancel_token(&tok)
        .submit(move |ctx| {
            ctx.foreach(0..10_000, &|_| {
                hs.fetch_add(1, Ordering::SeqCst);
            });
        })
        .unwrap();
    assert_eq!(handle.join(), Err(SubmitError::Cancelled));
    assert_eq!(hits.load(Ordering::SeqCst), 0);
}

/// A token cancelled before the spawn and attached through the task
/// builder skips every body; the scope still drains and the pool serves
/// the next scope.
#[test]
fn cancelled_builder_token_skips_spawned_bodies() {
    for (name, rt) in all_policies(2) {
        let tok = CancelToken::new();
        tok.cancel();
        let h = Shared::new(0u64);
        rt.scope(|ctx| {
            for _ in 0..8 {
                let hw = h.clone();
                ctx.task()
                    .access(h.exclusive())
                    .cancel_token(&tok)
                    .spawn(move |t| *t.write(&hw) += 1);
            }
        });
        assert_eq!(*h.get(), 0, "[{name}] cancelled bodies must not run");
        assert_eq!(rt.stats().tasks_cancelled, 8, "[{name}]");
        assert_eq!(rt.scope(|c| c.join(|_| 2, |_| 3)), (2, 3), "[{name}]");
    }
}

/// `on_complete` callback panics are contained *and counted*.
#[test]
fn callback_panics_are_counted() {
    let rt = Runtime::new(1);
    let h = rt.submit(|_ctx| 1u32).unwrap();
    wait_until(20, "job to finish", || h.is_done());
    h.on_complete(|| panic!("reactor wake failed"));
    assert_eq!(rt.stats().callback_panics, 1);
    rt.reset_stats();
    assert_eq!(rt.stats().callback_panics, 0);
}

/// Callback panics count on the runtime that owns the handle, on both
/// paths that run a callback: the worker completing the job, and
/// `on_complete` on an already finished handle. Another runtime neither
/// sees them nor resets them. A handle that outlives its runtime still
/// contains the panic.
#[test]
fn callback_panics_are_counted_per_runtime() {
    let (a, b) = (Runtime::new(1), Runtime::new(1));
    let gate = Arc::new(AtomicBool::new(false));
    let g = Arc::clone(&gate);
    let h = b
        .submit(move |_ctx| {
            while !g.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        })
        .unwrap();
    h.on_complete(|| panic!("reactor wake failed on the worker"));
    gate.store(true, Ordering::Release);
    wait_until(20, "the worker-side callback", || {
        b.stats().callback_panics == 1
    });
    h.on_complete(|| panic!("reactor wake failed on the caller"));
    assert_eq!(b.stats().callback_panics, 2);
    assert_eq!(a.stats().callback_panics, 0, "B's panics leaked into A");
    a.reset_stats();
    assert_eq!(b.stats().callback_panics, 2, "A's reset zeroed B's count");
    b.reset_stats();
    assert_eq!(b.stats().callback_panics, 0);

    // A handle may outlive its runtime: the panic is still contained, with
    // no stats left to count it in.
    drop(b);
    h.on_complete(|| panic!("reactor wake failed after shutdown"));
}

/// Graceful shutdown: queued jobs drain inside the window (`true`), and a
/// zero window on a saturated pool gives up honestly (`false`).
#[test]
fn shutdown_timeout_drains_queued_jobs() {
    let rt = Runtime::new(2);
    let done = Arc::new(AtomicU64::new(0));
    for _ in 0..64 {
        let d = Arc::clone(&done);
        rt.submit(move |_ctx| {
            d.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
    }
    assert!(
        rt.shutdown_timeout(Duration::from_secs(20)),
        "64 trivial jobs must drain inside the window"
    );
    assert_eq!(done.load(Ordering::SeqCst), 64, "no queued job abandoned");

    // A pinned 1-worker pool cannot drain: the zero window reports failure.
    let rt = Runtime::new(1);
    let gate = Arc::new(AtomicBool::new(true));
    let g = Arc::clone(&gate);
    rt.submit(move |_ctx| {
        while g.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
    })
    .unwrap();
    wait_until(20, "busy job to start", || {
        rt.inject_lane_stats()
            .iter()
            .map(|l| l.drained)
            .sum::<u64>()
            == 1
    });
    rt.submit(|_ctx| ()).unwrap();
    gate.store(false, Ordering::Release); // unpin so drop() can join workers
    let _ = rt.shutdown_timeout(Duration::ZERO);
}
