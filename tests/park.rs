//! Lost-wake regression tests of the park handshake (`crates/core/src/worker.rs`).
//!
//! Parked workers block with no timeout, so a wake-up lost between a
//! producer and a parking worker is a permanent hang, not a delay. Each
//! pattern below runs on a spawned thread and reports back over a
//! channel; the test fails through `recv_timeout` instead of hanging CI.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use xkaapi::core::{Ctx, Runtime};

/// Run `body` on its own thread; fail if it does not finish in 60 s.
fn within_deadline(what: &str, body: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
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

/// The hand-off pattern: the owner spawns one task and waits in user code
/// until a thief starts it, so only a woken worker can make progress. The
/// wait yields so that a thief timesliced on the same core gets to run.
/// Every other round starts after a pause longer than the search budget,
/// so the thief is parked, not searching, when the task appears.
#[test]
fn handoff_always_wakes_a_thief() {
    for workers in [2, 8] {
        within_deadline(&format!("hand-off at W={workers}"), move || {
            let rt = Runtime::new(workers);
            for i in 0..10_000 {
                if i % 2 == 0 {
                    std::thread::sleep(Duration::from_micros(100));
                }
                let started = AtomicBool::new(false);
                rt.scope(|c| {
                    c.spawn([], |_| started.store(true, Ordering::Release));
                    while !started.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                });
            }
        });
    }
}

/// Submit one job, wait for it, pause, repeat. The pauses straddle the
/// searching budget: 0 finds the workers searching, 200 µs finds them
/// parked, 20 µs lands near the transition.
#[test]
fn submit_wait_ping_pong_across_the_search_budget() {
    for workers in [1, 4] {
        within_deadline(&format!("ping-pong at W={workers}"), move || {
            let rt = Runtime::new(workers);
            for gap_us in [0u64, 20, 200] {
                let gap = Duration::from_micros(gap_us);
                for i in 0..2_000u64 {
                    let h = rt.submit(move |_| i * 3).expect("default admission blocks");
                    assert_eq!(h.wait(), i * 3);
                    let t0 = Instant::now();
                    while t0.elapsed() < gap {
                        std::hint::spin_loop();
                    }
                }
            }
        });
    }
}

fn fib(c: &mut Ctx<'_>, n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = c.join(|c| fib(c, n - 1), |c| fib(c, n - 2));
    a + b
}

/// A join tree on more workers than cores: most pushes land on a
/// non-empty deque and signal nothing, so progress relies on owners
/// reclaiming their own jobs and on the wake chain of the searchers.
#[test]
fn join_tree_on_eight_workers() {
    within_deadline("join tree at W=8", || {
        let rt = Runtime::new(8);
        for _ in 0..200 {
            assert_eq!(rt.scope(|c| fib(c, 18)), 2584);
        }
    });
}
