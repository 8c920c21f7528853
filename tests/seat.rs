//! The seat (`crates/core/src/worker.rs`): a thread outside the pool that
//! calls `Runtime::scope` while a worker is parked runs the root itself,
//! as that worker, and hands the seat back when the root returns.
//!
//! Each test runs on a spawned thread and reports back over a channel, so
//! a lost wake-up fails through `recv_timeout` instead of hanging CI.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};
use xkaapi::core::{Ctx, Runtime};

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
            // The body panicked: surface its message.
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
/// parked, so the next scope takes its seat. A freshly built pool searches
/// for a while before it parks, and a loaded host may be slow to let it.
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

fn fib(c: &mut Ctx<'_>, n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = c.join(|c| fib(c, n - 1), |c| fib(c, n - 2));
    a + b
}

/// Joins in a `fib(n)` join tree: one per call with `n >= 2`.
fn joins(n: u64) -> u64 {
    if n < 2 {
        0
    } else {
        1 + joins(n - 1) + joins(n - 2)
    }
}

#[test]
fn an_external_scope_runs_its_root_on_the_calling_thread() {
    for workers in [1, 4] {
        within_deadline(&format!("seat at W={workers}"), move || {
            let rt = Runtime::new(workers);
            until_a_seat_is_free(&rt);
            let me = thread::current().id();
            // Back to back: each hand-back parks its worker again, so the
            // next scope always finds a seat, even when the root's joins
            // woke the other workers.
            for i in 0..1_000u64 {
                let (on, v) = rt.scope(|c| (thread::current().id(), fib(c, i % 8)));
                assert_eq!(on, me, "scope {i} at W={workers} ran its root elsewhere");
                assert_eq!(v, [0, 1, 1, 2, 3, 5, 8, 13][(i % 8) as usize]);
            }
            // The seat path counts each scope as a submission.
            assert!(rt.stats().jobs_submitted >= 1_000);
        });
    }
}

thread_local! {
    /// How deep this thread is inside `gauged_fib` bodies.
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// Threads running task bodies right now, and the most ever seen.
#[derive(Default)]
struct Gauge {
    running: AtomicUsize,
    max: AtomicUsize,
}

/// Counts this thread in the gauge while any `gauged_fib` body runs on it.
struct InBody<'a>(&'a Gauge);

impl<'a> InBody<'a> {
    fn enter(g: &'a Gauge) -> InBody<'a> {
        if DEPTH.replace(DEPTH.get() + 1) == 0 {
            let now = g.running.fetch_add(1, Ordering::SeqCst) + 1;
            g.max.fetch_max(now, Ordering::SeqCst);
        }
        InBody(g)
    }
}

impl Drop for InBody<'_> {
    fn drop(&mut self) {
        DEPTH.set(DEPTH.get() - 1);
        if DEPTH.get() == 0 {
            self.0.running.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

fn gauged_fib(c: &mut Ctx<'_>, g: &Gauge, n: u64) -> u64 {
    let _in = InBody::enter(g);
    if n < 2 {
        return n;
    }
    let (a, b) = c.join(|c| gauged_fib(c, g, n - 1), |c| gauged_fib(c, g, n - 2));
    a + b
}

/// Four callers race for two seats: a caller either takes a parked
/// worker's seat (and that worker sleeps) or blocks on the inject path
/// (and a worker runs its root), so no more than W threads ever run task
/// bodies at once.
#[test]
fn concurrent_callers_never_run_more_than_w_executors() {
    within_deadline("4 callers on W=2", || {
        let rt = Runtime::new(2);
        let gauge = Gauge::default();
        thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..500 {
                        assert_eq!(rt.scope(|c| gauged_fib(c, &gauge, 12)), 144);
                    }
                });
            }
        });
        let max = gauge.max.load(Ordering::SeqCst);
        assert!(max <= 2, "{max} threads ran task bodies at once on W=2");
        assert!(max >= 1);
        assert_eq!(rt.stats().jobs_submitted, 2_000);
    });
}

/// Seat rule: the seat changes hands with Acquire/Release, so the
/// owner-only join counters, bumped by whichever thread holds the one
/// seat of a W=1 pool (a caller, or the worker thread running an inject
/// fallback or a submitted job), lose no update.
#[test]
fn owner_only_counters_stay_exact_across_seat_hand_overs() {
    within_deadline("hand-overs at W=1", || {
        let rt = Runtime::new(1);
        thread::scope(|s| {
            for t in 0..4u64 {
                let rt = &rt;
                s.spawn(move || {
                    for i in 0..200u64 {
                        if (t + i) % 4 == 0 {
                            let h = rt.submit(|c| fib(c, 10)).expect("blocking admission");
                            assert_eq!(h.wait(), 55);
                        } else {
                            assert_eq!(rt.scope(|c| fib(c, 10)), 55);
                        }
                    }
                });
            }
        });
        let s = rt.stats();
        assert_eq!(s.jobs_submitted, 800);
        assert_eq!(
            s.tasks_spawned,
            800 * joins(10),
            "a tasks_spawned bump was lost"
        );
        assert_eq!(
            s.tasks_executed_own,
            800 * joins(10),
            "a tasks_executed_own bump was lost"
        );
    });
}

#[test]
fn a_root_panic_unwinds_on_the_caller_and_the_pool_keeps_serving() {
    within_deadline("root panic", || {
        let rt = Runtime::new(2);
        until_a_seat_is_free(&rt);
        let me = thread::current().id();
        let on = std::sync::Mutex::new(None);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.scope(|c| {
                *on.lock().unwrap() = Some(thread::current().id());
                c.spawn([], |_| {});
                panic!("root boom")
            })
        }))
        .expect_err("the root's panic reaches the caller");
        assert_eq!(
            *on.lock().unwrap(),
            Some(me),
            "the panicking root ran on the caller"
        );
        assert_eq!(err.downcast_ref::<&str>(), Some(&"root boom"));
        // The seat was handed back: the next scope takes a seat again,
        // and a submitted job finds a worker.
        assert_eq!(rt.scope(|c| (thread::current().id(), fib(c, 10))), (me, 55));
        assert_eq!(rt.submit(|c| fib(c, 12)).unwrap().wait(), 144);
    });
}

/// `CURRENT` is saved and restored around a seat: a seat holder of A that
/// calls B's scope is B's worker there and *not* A's (A's submit injects,
/// and another A worker runs the job), then A's again once B returns.
#[test]
fn a_seat_holder_calling_another_runtime_keeps_both_identities() {
    within_deadline("nested runtimes", || {
        let a = Runtime::new(2);
        let b = Runtime::new(2);
        until_a_seat_is_free(&a);
        until_a_seat_is_free(&b);
        let me = thread::current().id();
        a.scope(|_| {
            assert_eq!(thread::current().id(), me, "A's root runs on the caller");
            b.scope(|_| {
                assert_eq!(thread::current().id(), me, "B's root runs on the caller");
                let h = a.submit(|_| thread::current().id()).unwrap();
                assert_ne!(h.wait(), me, "A's job ran inline inside B's root");
            });
            let (h, on) = a.scope(|_| {
                let h = a.submit(|_| thread::current().id()).unwrap();
                (h, thread::current().id())
            });
            assert_eq!(on, me, "a nested A scope after B runs inline");
            assert!(h.is_done(), "a submit on A's seat runs inline");
            assert_eq!(h.wait(), me);
        });
    });
}

/// Seat rules: a lent worker is out of the idle set (no wake reaches it),
/// and the hand-back re-checks the inject lanes. A job submitted while
/// the caller holds the only seat and spins in user code does not start
/// during the scope, and runs once the scope returns.
#[test]
fn a_job_submitted_while_the_only_seat_is_lent_runs_after_the_hand_back() {
    within_deadline("hand-back re-check at W=1", || {
        let rt = Runtime::new(1);
        until_a_seat_is_free(&rt);
        let me = thread::current().id();
        let handle = rt.scope(|_| {
            assert_eq!(thread::current().id(), me);
            let rt = &rt;
            let h = thread::scope(|s| {
                s.spawn(|| {
                    rt.submit(|_| thread::current().id())
                        .expect("blocking admission")
                })
                .join()
                .unwrap()
            });
            // The job is queued and its submit woke no one: the only
            // worker is lent. Spin in user code for a while.
            let t0 = Instant::now();
            while t0.elapsed() < Duration::from_millis(30) {
                assert!(!h.is_done(), "a job ran while the only seat was lent");
                std::hint::spin_loop();
            }
            h
        });
        let ran_on = handle.wait();
        assert_ne!(ran_on, me, "the caller ran the queued job");
    });
}
