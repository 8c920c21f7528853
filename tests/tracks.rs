//! Execution-track integration suite (DESIGN.md §10): the io thread set
//! behind [`Track`] routing.
//!
//! * **equivalence** — routing every task of a dataflow wavefront to the
//!   io track changes *where* bodies run and *when* successors are
//!   released (the io thread's publish, not an inline return), but never
//!   the result: checksums match the CPU track across all four
//!   queue×steal policy combinations, every task ran on an io thread, and
//!   the traced run has one lane per worker plus one per io thread;
//! * **the owner waits** — on one worker, a successor of an io task only
//!   runs after the io thread published the task, although the owner's
//!   FIFO walk would otherwise run it inline at once;
//! * **io isolation** — `.wait_external()` work blocked on an external
//!   event holds an io thread, never a CPU worker: a full CPU scope
//!   completes while the blockers sit parked, and the `tasks_io` counter
//!   proves where they ran; and io work never steals from the pool: a
//!   loop inside it runs inline beside a join-heavy CPU scope;
//! * **lifecycle across the boundary** — a panic in an io body poisons
//!   its dataflow cone exactly like a CPU panic, and a cancelled token
//!   skips io bodies without losing the scope.
//!
//! [`Track`]: xkaapi::core::Track

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::{self, ThreadId};
use std::time::Duration;
use xkaapi::core::{
    AggregatedStealing, CancelToken, Ctx, PerThiefStealing, Runtime, Shared, StealPolicy,
    TaskQueue, Track,
};
use xkaapi::omp::OmpCentralQueue;

const COMBO_NAMES: [&str; 4] = [
    "dist+agg",
    "dist+perthief",
    "central+agg",
    "central+perthief",
];

/// One of the four queue×steal policy combinations.
fn build_rt(combo: usize, workers: usize) -> Runtime {
    let steal: Arc<dyn StealPolicy> = if combo.is_multiple_of(2) {
        Arc::new(AggregatedStealing)
    } else {
        Arc::new(PerThiefStealing)
    };
    let mut b = Runtime::builder().workers(workers).steal_policy(steal);
    if combo >= 2 {
        let q: Arc<dyn TaskQueue> = Arc::new(OmpCentralQueue::new());
        b = b.task_queue(q);
    }
    b.build()
}

/// Dataflow wavefront with every task routed to `track`: an n×n grid
/// where (i,j) reads (i−1,j) and (i,j−1). Returns the last tile.
fn wavefront(rt: &Runtime, n: usize, track: Track) -> u64 {
    let tiles: Vec<Shared<u64>> = (0..n * n).map(|_| Shared::new(0u64)).collect();
    rt.scope(|ctx| {
        for i in 0..n {
            for j in 0..n {
                let me = tiles[i * n + j].clone();
                let up = (i > 0).then(|| tiles[(i - 1) * n + j].clone());
                let left = (j > 0).then(|| tiles[i * n + j - 1].clone());
                let mut accs = vec![me.write()];
                accs.extend(up.as_ref().map(|h| h.read()));
                accs.extend(left.as_ref().map(|h| h.read()));
                ctx.task().accesses(accs).track(track).spawn(move |t| {
                    let u = up.as_ref().map_or(1, |h| *t.read(h));
                    let l = left.as_ref().map_or(1, |h| *t.read(h));
                    *t.write(&me) = u.wrapping_add(l).wrapping_mul(2654435761);
                });
            }
        }
    });
    *tiles[n * n - 1].get()
}

/// Io track on vs off: identical checksums across all four scheduler
/// policy combinations, and the io run really went through the io
/// threads (counted there, traced on their lanes).
#[test]
fn io_checksum_equivalence_across_policies() {
    let (n, workers) = (8usize, 4usize);
    for (combo, name) in COMBO_NAMES.iter().enumerate() {
        let rt_cpu = build_rt(combo, workers);
        let cpu = wavefront(&rt_cpu, n, Track::Cpu);
        assert_eq!(
            rt_cpu.stats().tasks_io,
            0,
            "[{name}] the CPU run must not touch the io threads"
        );
        let rt_io = build_rt(combo, workers);
        rt_io.set_tracing(true);
        let io = wavefront(&rt_io, n, Track::Io);
        assert_eq!(
            cpu, io,
            "[{name}] the io track changed the wavefront result"
        );
        assert_eq!(
            rt_io.stats().tasks_io,
            (n * n) as u64,
            "[{name}] every task ran on an io thread"
        );
        let trace = rt_io.take_trace();
        assert!(
            trace.total_events() > 0,
            "[{name}] traced io run recorded no events"
        );
        assert_eq!(
            trace.worker_count(),
            workers + 2,
            "[{name}] one lane per worker, then io-0 and io-1"
        );
        assert_eq!(trace.lane_name(workers), "io-0");
        assert_eq!(trace.lane_name(workers + 1), "io-1");
    }
}

/// On a single worker there is no second CPU to run the successor: the
/// owner claims A (io track), hands it to an io thread, and its FIFO walk
/// would run B (CPU track, reads what A wrote) inline at once. A sleeps
/// before writing, so only the owner-wait rule in `sync` keeps B behind
/// A: B runs after the io thread published A's completion.
#[test]
fn completion_feeds_readiness_on_one_worker() {
    let rt = Runtime::new(1);
    let h = Shared::new(0u64);
    let order: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
    rt.scope(|ctx| {
        let (hw, ord) = (h.clone(), Arc::clone(&order));
        ctx.task()
            .access(h.exclusive())
            .track(Track::Io)
            .spawn(move |t| {
                let me = thread::current();
                assert!(me.name().unwrap_or("").starts_with("xkaapi-io-"));
                thread::sleep(Duration::from_millis(20));
                ord.lock().unwrap().push("io");
                *t.write(&hw) = 7;
            });
        let (hw, ord) = (h.clone(), Arc::clone(&order));
        ctx.task().access(h.exclusive()).spawn(move |t| {
            ord.lock().unwrap().push("successor");
            *t.write(&hw) += 1;
        });
    });
    assert_eq!(*h.get(), 8, "successor saw the io write");
    assert_eq!(*order.lock().unwrap(), ["io", "successor"]);
    assert_eq!(rt.stats().tasks_io, 1);
}

/// Blocking io work never occupies a CPU worker: park `wait_external`
/// jobs behind a gate, run a whole CPU scope to completion while they
/// sit blocked, then release them. The `tasks_io` counter pins down where
/// every body ran.
#[test]
fn io_track_never_occupies_a_cpu_worker() {
    let workers = 2usize;
    let rt = Arc::new(Runtime::new(workers));
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    // One blocker per CPU worker — if these held CPU workers, the scope
    // below would have no worker left to run on.
    let blockers: Vec<_> = (0..workers)
        .map(|_| {
            let gate = Arc::clone(&gate);
            rt.task()
                .wait_external()
                .submit(move |_ctx| {
                    let (mx, cv) = &*gate;
                    let mut open = mx.lock().unwrap();
                    while !*open {
                        open = cv.wait(open).unwrap();
                    }
                    11u64
                })
                .expect("io admission is unbounded")
        })
        .collect();
    // The whole CPU pool is still available while the blockers wait.
    let sum = rt.foreach_reduce(
        0..10_000,
        None,
        || 0u64,
        |a, i| *a += i as u64,
        |a, b| a + b,
    );
    assert_eq!(sum, 49_995_000, "CPU scope completed alongside blockers");
    {
        let (mx, cv) = &*gate;
        *mx.lock().unwrap() = true;
        cv.notify_all();
    }
    for b in blockers {
        assert_eq!(b.wait(), 11);
    }
    let s = rt.stats();
    assert_eq!(
        s.tasks_io, workers as u64,
        "every blocker ran on the io thread set"
    );

    // An io *task* inside a dataflow scope: the io body's write releases
    // a CPU successor — readiness crosses the track boundary both ways.
    let h = Shared::new(0u64);
    rt.scope(|ctx| {
        let hw = h.clone();
        ctx.task()
            .access(h.exclusive())
            .wait_external()
            .spawn(move |t| *t.write(&hw) = 5);
        let hw = h.clone();
        ctx.task()
            .access(h.exclusive())
            .spawn(move |t| *t.write(&hw) *= 3);
    });
    assert_eq!(*h.get(), 15);
    assert_eq!(rt.stats().tasks_io, workers as u64 + 1);
}

/// Io work never acts as a pool thief. A loop inside a `wait_external` job
/// runs inline on its io thread — publishing it and helping until it
/// drained would make the io thread steal on a worker's behalf — while a
/// join-heavy CPU scope keeps both workers busy: no loop chunk leaves the
/// io thread, and no fork-join branch of the scope lands on it.
#[test]
fn io_loop_runs_inline_beside_cpu_joins() {
    const ROUNDS: u64 = 200;
    const N: usize = 4096;
    let rt = Runtime::new(2);
    let io_thread: Arc<OnceLock<ThreadId>> = Arc::new(OnceLock::new());
    let cpu_busy = Arc::new(AtomicBool::new(false));
    let loops = {
        let (io_thread, cpu_busy) = (Arc::clone(&io_thread), Arc::clone(&cpu_busy));
        rt.task()
            .wait_external()
            .submit(move |ctx| {
                let me = thread::current().id();
                io_thread.set(me).unwrap();
                while !cpu_busy.load(Ordering::Acquire) {
                    thread::yield_now();
                }
                let (foreign, sum) = (AtomicUsize::new(0), AtomicU64::new(0));
                for _ in 0..ROUNDS {
                    ctx.foreach_chunks(0..N, Some(64), &|r: Range<usize>| {
                        if thread::current().id() != me {
                            foreign.fetch_add(1, Ordering::Relaxed);
                            // Hold the io thread in its help loop, where it
                            // would meet the scope's root jobs and branches.
                            thread::sleep(Duration::from_micros(200));
                        }
                        sum.fetch_add(r.map(|i| i as u64).sum(), Ordering::Relaxed);
                    });
                }
                (foreign.into_inner(), sum.into_inner())
            })
            .expect("io admission is unbounded")
    };
    fn fib(ctx: &mut Ctx<'_>, n: u64, io: &OnceLock<ThreadId>, on_io: &AtomicUsize) -> u64 {
        if n < 2 {
            if io.get() == Some(&thread::current().id()) {
                on_io.fetch_add(1, Ordering::Relaxed);
            }
            return n;
        }
        let (a, b) = ctx.join(|c| fib(c, n - 1, io, on_io), |c| fib(c, n - 2, io, on_io));
        a + b
    }
    let on_io = AtomicUsize::new(0);
    cpu_busy.store(true, Ordering::Release);
    while !loops.is_done() {
        assert_eq!(rt.scope(|ctx| fib(ctx, 18, &io_thread, &on_io)), 2584);
    }
    let (foreign, sum) = loops.wait();
    assert_eq!(sum, ROUNDS * (N as u64 * (N as u64 - 1) / 2));
    assert_eq!(foreign, 0, "an io loop's chunks ran on a CPU worker");
    assert_eq!(
        on_io.into_inner(),
        0,
        "a fork-join branch ran on the io thread"
    );
}

/// A panic in an io body re-raises at the scope and poisons its
/// dataflow cone — the same lifecycle contract as a CPU panic, across
/// the track boundary. The pool and the io threads stay alive after.
#[test]
fn io_panic_poisons_cone_across_boundary() {
    let rt = build_rt(0, 2);
    let h = Shared::new(0u64);
    let res = catch_unwind(AssertUnwindSafe(|| {
        rt.scope(|ctx| {
            let hw = h.clone();
            ctx.task()
                .access(h.exclusive())
                .track(Track::Io)
                .spawn(move |t| {
                    *t.write(&hw) = 1;
                    panic!("io body panic");
                });
            for _ in 0..4 {
                let hw = h.clone();
                ctx.task()
                    .access(h.exclusive())
                    .track(Track::Io)
                    .spawn(move |t| *t.write(&hw) += 100);
            }
        });
    }));
    let payload = res.expect_err("the panic must re-raise at the scope");
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(msg.contains("io body panic"), "wrong payload: {msg:?}");
    let s = rt.stats();
    assert_eq!(s.tasks_panicked, 1);
    assert_eq!(s.tasks_poisoned, 4, "the whole downstream cone is poisoned");
    assert_eq!(*h.get(), 1, "no poisoned body ran");
    // Io threads and pool both alive: a clean io round still works.
    let clean = wavefront(&rt, 4, Track::Io);
    assert_eq!(clean, wavefront(&rt, 4, Track::Cpu));
}

/// A cancelled token skips io bodies exactly like CPU bodies: the scope
/// drains, nothing runs, and the skipped tasks never reach an io thread.
#[test]
fn cancellation_skips_io_bodies() {
    let rt = build_rt(1, 2);
    let tok = CancelToken::new();
    tok.cancel();
    let h = Shared::new(0u64);
    rt.scope(|ctx| {
        for _ in 0..8 {
            let hw = h.clone();
            ctx.task()
                .access(h.exclusive())
                .track(Track::Io)
                .cancel_token(&tok)
                .spawn(move |t| *t.write(&hw) += 1);
        }
    });
    assert_eq!(*h.get(), 0, "cancelled bodies must not run");
    let s = rt.stats();
    assert_eq!(s.tasks_cancelled, 8);
    assert_eq!(s.tasks_io, 0, "skipped before dispatch");
    assert_eq!(rt.scope(|c| c.join(|_| 2, |_| 3)), (2, 3));
}
