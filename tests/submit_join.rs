//! Integration tests of the injection subsystem (DESIGN.md §4):
//! [`Runtime::submit`] join handles, sharded inject lanes and the
//! admission/backpressure layer.
//!
//! The acceptance gates of ISSUE 4 live here: submit returns before the
//! job runs, concurrent submitters all get their results, a dropped handle
//! does not cancel (or leak) its job, panics propagate at `wait`,
//! `OnFull::Reject` actually rejects at `max_pending`, and submitting from
//! inside a worker runs inline without deadlocking the pool.
//!
//! [`Runtime::submit`]: xkaapi::core::Runtime::submit

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use xkaapi::core::{InjectPolicy, OnFull, Priority, Runtime, Topology};

/// Spin-wait (with yields) until `cond` holds, panicking after `secs`.
fn wait_until(secs: u64, what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

/// The ISSUE 4 acceptance gate: `submit` must return *before* the job
/// runs. The job blocks on a gate only the submitting thread opens — and
/// it opens it strictly after `submit` returned, so if submit ran the job
/// synchronously this test would deadlock (caught by the timeout).
#[test]
fn submit_returns_before_the_job_runs() {
    let rt = Runtime::new(2);
    let gate = Arc::new(AtomicBool::new(false));
    let ran = Arc::new(AtomicBool::new(false));
    let (g, r) = (Arc::clone(&gate), Arc::clone(&ran));
    let handle = rt
        .submit(move |_ctx| {
            let deadline = Instant::now() + Duration::from_secs(20);
            while !g.load(Ordering::Acquire) {
                assert!(Instant::now() < deadline, "gate never opened");
                std::thread::yield_now();
            }
            r.store(true, Ordering::Release);
            21u32
        })
        .unwrap();
    // We got here with the job provably not finished: it spins on the gate.
    assert!(!handle.is_done(), "submit must not wait for the job");
    assert!(!ran.load(Ordering::Acquire));
    gate.store(true, Ordering::Release);
    assert_eq!(handle.wait(), 21);
    assert!(ran.load(Ordering::Acquire));
    assert_eq!(rt.stats().jobs_submitted, 1);
}

#[test]
fn try_result_and_is_done_poll_without_blocking() {
    let rt = Runtime::new(2);
    let gate = Arc::new(AtomicBool::new(false));
    let g = Arc::clone(&gate);
    let mut handle = rt
        .submit(move |ctx| {
            while !g.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            ctx.join(|_| 6u64, |_| 7u64)
        })
        .unwrap();
    assert!(!handle.is_done());
    assert_eq!(handle.try_result(), None, "poll while running is None");
    gate.store(true, Ordering::Release);
    wait_until(20, "job completion", || handle.is_done());
    assert_eq!(handle.try_result(), Some((6, 7)));
}

#[test]
fn on_complete_fires_without_any_waiter() {
    let rt = Runtime::new(2);
    let fired = Arc::new(AtomicU64::new(0));
    // Registered before completion: fires from the completing worker.
    let gate = Arc::new(AtomicBool::new(false));
    let g = Arc::clone(&gate);
    let handle = rt
        .submit(move |_ctx| {
            while !g.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            5u32
        })
        .unwrap();
    let f = Arc::clone(&fired);
    handle.on_complete(move || {
        f.fetch_add(1, Ordering::SeqCst);
    });
    gate.store(true, Ordering::Release);
    wait_until(20, "on_complete callback", || {
        fired.load(Ordering::SeqCst) == 1
    });
    // Registered after completion: fires immediately on this thread.
    let f = Arc::clone(&fired);
    handle.on_complete(move || {
        f.fetch_add(10, Ordering::SeqCst);
    });
    assert_eq!(fired.load(Ordering::SeqCst), 11);
    assert_eq!(handle.wait(), 5, "callbacks do not consume the result");
}

/// A panicking `on_complete` callback is contained: it must not unwind
/// through (and kill) the completing worker — the pool stays fully
/// functional afterwards, and later callbacks still fire.
#[test]
fn panicking_on_complete_callback_does_not_kill_the_worker() {
    let rt = Runtime::new(1);
    let gate = Arc::new(AtomicBool::new(false));
    let g = Arc::clone(&gate);
    let handle = rt
        .submit(move |_ctx| {
            while !g.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        })
        .unwrap();
    handle.on_complete(|| panic!("reactor wake failed"));
    let fired = Arc::new(AtomicBool::new(false));
    let f = Arc::clone(&fired);
    handle.on_complete(move || f.store(true, Ordering::SeqCst));
    gate.store(true, Ordering::Release);
    wait_until(20, "callbacks after the panicking one", || {
        fired.load(Ordering::SeqCst)
    });
    // The 1-worker pool survived the callback panic: external scopes (which
    // need a live worker to drain the lane) still complete.
    assert_eq!(rt.scope(|ctx| ctx.join(|_| 3, |_| 4)), (3, 4));
    // Immediate-run path (already-done handle) is contained too.
    handle.on_complete(|| panic!("late wake failed"));
    assert_eq!(rt.submit(|_ctx| 1u32).unwrap().wait(), 1);
}

/// Concurrent submitters on a 2-node modelled topology: every handle
/// resolves to its own submitter's value (no cross-wiring through the
/// sharded lanes), and the per-lane counters account for every queued job.
#[test]
fn concurrent_submitters_all_join() {
    let workers = 4;
    let rt = Arc::new(
        Runtime::builder()
            .workers(workers)
            .topology(Topology::two_level(workers, 2))
            .build(),
    );
    assert_eq!(rt.inject_lane_count(), 2);
    let submitters = 4;
    let per = 64u64;
    let start = Arc::new(Barrier::new(submitters));
    let done: Vec<_> = (0..submitters)
        .map(|s| {
            let rt = Arc::clone(&rt);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                let mut sum = 0u64;
                let mut handles = Vec::new();
                for i in 0..per {
                    let tag = (s as u64) << 32 | i;
                    handles.push(rt.submit(move |ctx| {
                        let (a, b) = ctx.join(move |_| tag, |_| 1u64);
                        a + b
                    }));
                }
                for h in handles {
                    sum += h.unwrap().wait();
                }
                sum
            })
        })
        .collect();
    let expect = |s: u64| -> u64 { (0..per).map(|i| (s << 32 | i) + 1).sum() };
    for (s, t) in done.into_iter().enumerate() {
        assert_eq!(t.join().unwrap(), expect(s as u64));
    }
    let snap = rt.stats();
    assert_eq!(snap.jobs_submitted, submitters as u64 * per);
    assert_eq!(snap.jobs_rejected, 0);
    // Every queued job was drained from some lane, and the drain counters
    // agree with the inject_own_lane/inject_remote_lane classification.
    let lanes = rt.inject_lane_stats();
    let queued: u64 = lanes.iter().map(|l| l.submitted).sum();
    let drained: u64 = lanes.iter().map(|l| l.drained).sum();
    assert_eq!(queued, drained);
    assert_eq!(snap.inject_own_lane + snap.inject_remote_lane, drained);
}

/// Dropping the handle detaches the job: it still runs (the side effect
/// lands) and nothing waits on it.
#[test]
fn dropped_handle_does_not_cancel_the_job() {
    let rt = Runtime::new(2);
    let ran = Arc::new(AtomicU64::new(0));
    for _ in 0..32 {
        let r = Arc::clone(&ran);
        let handle = rt
            .submit(move |_ctx| {
                r.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        drop(handle);
    }
    wait_until(20, "detached jobs to run", || {
        ran.load(Ordering::SeqCst) == 32
    });
    assert_eq!(rt.stats().jobs_submitted, 32);
}

#[test]
fn panic_propagates_at_wait() {
    let rt = Runtime::new(2);
    let handle = rt
        .submit(|_ctx| -> u32 { panic!("boom from a submitted job") })
        .unwrap();
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || handle.wait()))
        .expect_err("the job's panic must re-raise at wait");
    let msg = err
        .downcast_ref::<&str>()
        .copied()
        .map(String::from)
        .or_else(|| err.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(msg.contains("boom"), "unexpected payload: {msg:?}");
    // The pool survives a panicked root job.
    assert_eq!(rt.scope(|ctx| ctx.join(|_| 1, |_| 2)), (1, 2));
}

#[test]
fn panic_propagates_at_try_result() {
    let rt = Runtime::new(2);
    let mut handle = rt.submit(|_ctx| -> u32 { panic!("poll boom") }).unwrap();
    wait_until(20, "panicked job to finish", || handle.is_done());
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || handle.try_result()))
        .expect_err("try_result must re-raise the panic");
    assert!(err
        .downcast_ref::<&str>()
        .is_some_and(|m| m.contains("poll boom")));
}

/// `OnFull::Reject` sheds load at exactly `max_pending` queued jobs, and
/// drains reopen admission.
#[test]
fn reject_policy_rejects_at_max_pending() {
    let cap = 4usize;
    let rt = Runtime::builder()
        .workers(1)
        .inject_policy(InjectPolicy {
            max_pending: cap,
            on_full: OnFull::Reject,
        })
        .build();
    assert_eq!(rt.tunables().inject.max_pending, cap);
    // Occupy the only worker so queued jobs stay pending.
    let gate = Arc::new(AtomicBool::new(false));
    let g = Arc::clone(&gate);
    let busy = rt
        .submit(move |_ctx| {
            while !g.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        })
        .unwrap();
    // The busy job may or may not have been drained from the lane yet;
    // wait until the worker picked it up so `pending` is exactly 0.
    wait_until(20, "busy job to start", || {
        rt.inject_lane_stats()
            .iter()
            .map(|l| l.drained)
            .sum::<u64>()
            == 1
    });
    // Fill the admission window…
    let fillers: Vec<_> = (0..cap)
        .map(|i| rt.submit(move |_ctx| i as u64).unwrap())
        .collect();
    // …and the next submission must be shed, closure dropped, counted.
    for _ in 0..3 {
        assert!(rt.submit(|_ctx| 0u64).is_err(), "cap reached: must reject");
    }
    assert_eq!(rt.stats().jobs_rejected, 3);
    gate.store(true, Ordering::Release);
    busy.wait();
    for (i, h) in fillers.into_iter().enumerate() {
        assert_eq!(h.wait(), i as u64);
    }
    // With the lanes drained, admission is open again.
    assert_eq!(rt.submit(|_ctx| 9u64).unwrap().wait(), 9);
}

/// `OnFull::Block` throttles instead of shedding: a submitter at the cap
/// parks until a worker drains a lane, then proceeds — nothing is lost.
#[test]
fn block_policy_throttles_submitters() {
    let cap = 2usize;
    let rt = Arc::new(
        Runtime::builder()
            .workers(1)
            .inject_policy(InjectPolicy {
                max_pending: cap,
                on_full: OnFull::Block,
            })
            .build(),
    );
    let gate = Arc::new(AtomicBool::new(false));
    let g = Arc::clone(&gate);
    let busy = rt
        .submit(move |_ctx| {
            while !g.load(Ordering::Acquire) {
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
    let done = Arc::new(AtomicU64::new(0));
    let submitter = {
        let (rt, done) = (Arc::clone(&rt), Arc::clone(&done));
        std::thread::spawn(move || {
            let mut handles = Vec::new();
            for i in 0..(cap as u64 + 3) {
                // Beyond the cap this blocks until the worker drains.
                handles.push(rt.submit(move |_ctx| i).unwrap());
                done.fetch_add(1, Ordering::SeqCst);
            }
            handles.into_iter().map(|h| h.wait()).sum::<u64>()
        })
    };
    // The submitter must stall at the cap while the worker is pinned.
    wait_until(20, "submitter to reach the cap", || {
        done.load(Ordering::SeqCst) == cap as u64
    });
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(
        done.load(Ordering::SeqCst),
        cap as u64,
        "submitter got past max_pending while the pool was saturated"
    );
    gate.store(true, Ordering::Release);
    busy.wait();
    assert_eq!(submitter.join().unwrap(), (0..cap as u64 + 3).sum::<u64>());
    assert_eq!(rt.stats().jobs_rejected, 0, "Block never sheds");
}

/// Submitting from inside a worker runs the job inline (like a nested
/// scope): even a 1-worker pool — whose only worker could never both wait
/// on the handle and execute a queued job — cannot deadlock.
#[test]
fn submit_from_inside_a_worker_runs_inline() {
    let rt = Runtime::new(1);
    let out = rt.scope(|_outer| {
        let h = with_current_runtime_submit(&rt);
        assert!(h.is_done(), "worker-context submit completes inline");
        h.wait()
    });
    assert_eq!(out, 720);
    // Inline submissions are still counted (the enclosing scope is the
    // other submission: scope rides the same machinery).
    assert_eq!(rt.stats().jobs_submitted, 2);
}

/// Helper: a worker-context submit of a small fork-join factorial.
fn with_current_runtime_submit(rt: &Runtime) -> xkaapi::core::JoinHandle<u64> {
    rt.submit(|ctx| {
        fn fact(c: &mut xkaapi::core::Ctx<'_>, n: u64) -> u64 {
            if n <= 1 {
                1
            } else {
                let (a, b) = c.join(move |c| fact(c, n - 1), move |_| n);
                a * b
            }
        }
        fact(ctx, 6)
    })
    .unwrap()
}

/// A handle can be waited from inside a worker (passed into a task): the
/// worker helps the pool instead of parking, so this completes even with
/// one worker.
#[test]
fn wait_inside_a_worker_helps_instead_of_parking() {
    let rt = Runtime::new(1);
    let handle = rt.submit(|ctx| ctx.join(|_| 20u64, |_| 22u64)).unwrap();
    let sum = rt.scope(move |_ctx| {
        let (a, b) = handle.wait();
        a + b
    });
    assert_eq!(sum, 42);
}

/// Scope still works through the submit machinery under every admission
/// policy — including `Reject`, where scope admission blocks instead.
#[test]
fn scope_is_never_rejected() {
    let rt = Runtime::builder()
        .workers(2)
        .inject_policy(InjectPolicy {
            max_pending: 1,
            on_full: OnFull::Reject,
        })
        .build();
    for round in 0..64u64 {
        let got = rt.scope(|ctx| ctx.join(move |_| round, |_| 1u64));
        assert_eq!(got, (round, 1));
    }
    assert_eq!(rt.stats().jobs_rejected, 0);
}

/// PR 6 regression gate for the inject fast path: a flood of plain
/// Normal-band submits must never pay the band-major drain walk.
/// `pop_for` short-circuits to the Normal FIFOs while the lanes' pending
/// non-default-band counter is zero; `inject_banded_drains` counts the
/// drains that took the full banded walk, so it must stay at exactly 0
/// for a Normal-only flood, grow while a High or Low job is pending, and
/// stop growing once that job drained (the non-default-band counter is a
/// hint that every non-Normal pop must take back down).
#[test]
fn normal_only_flood_skips_the_banded_drain_walk() {
    let rt = Runtime::new(2);
    let handles: Vec<_> = (0..256u64)
        .map(|i| rt.submit(move |_| i).expect("admission"))
        .collect();
    let sum: u64 = handles.into_iter().map(|h| h.wait()).sum();
    assert_eq!(sum, 255 * 256 / 2);
    assert_eq!(
        rt.stats().inject_banded_drains,
        0,
        "a Normal-only flood paid the banded drain walk"
    );

    for band in [Priority::High, Priority::Low] {
        // One non-Normal job forces the slow path at least once…
        let before = rt.stats().inject_banded_drains;
        let h = rt
            .task()
            .priority(band)
            .submit(move |_| 7u64)
            .expect("admission");
        assert_eq!(h.wait(), 7);
        let after = rt.stats().inject_banded_drains;
        assert!(
            after > before,
            "a pending {band:?} job must route drains through the banded walk"
        );

        // …and once it drained, Normal-only traffic is back on the fast path.
        let handles: Vec<_> = (0..64u64)
            .map(|i| rt.submit(move |_| i).expect("admission"))
            .collect();
        let sum: u64 = handles.into_iter().map(|h| h.wait()).sum();
        assert_eq!(sum, 63 * 64 / 2);
        assert_eq!(
            rt.stats().inject_banded_drains,
            after,
            "banded drains kept accruing after the {band:?} job drained"
        );
    }
}
