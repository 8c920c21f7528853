//! Allocation accounting of the spawn fast path (PR 6): a counting
//! `#[global_allocator]` shim measures how many heap allocations a
//! warmed-up runtime performs per spawned task.
//!
//! The load-bearing claim of the fast-path work is that the **fork-join
//! fast lane allocates nothing once warm** — `Ctx::join` pushes a
//! stack-held `JobRef` into a pre-grown T.H.E. deque, so a whole `fib`
//! tree of joins must cost O(1) allocations (scope setup), not O(joins).
//! The data-flow `ctx.spawn` path still pays its documented residual
//! allocations (the `Arc<Task>` and the boxed body — see `DESIGN.md` §6),
//! but after the PR 6 scratch-arena work it must be a small constant per
//! task: predecessor sets, slot bindings and successor lists reuse
//! frame-owned arenas instead of allocating per task.
//!
//! Kept in a dedicated integration-test binary: the counter is
//! process-global, and a test running concurrently would pollute the
//! deltas. libtest runs the tests of one binary on parallel threads, so
//! each test holds [`SERIAL`] from start to finish — runtime drop (and its
//! worker threads' exit) included.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use xkaapi::core::{Ctx, Runtime};

/// Serialises the tests of this binary (see the module doc).
static SERIAL: Mutex<()> = Mutex::new(());

/// Take [`SERIAL`]; a sibling test's failure must not cascade as poison.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Counts every allocation in the process (all threads — workers too,
/// which is the point: a steal that allocates is still fast-path cost).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn fib(c: &mut Ctx<'_>, n: u64) -> u64 {
    if n < 2 {
        n
    } else {
        let (a, b) = c.join(|c| fib(c, n - 1), |c| fib(c, n - 2));
        a + b
    }
}

/// Interior join nodes of `fib(n)`.
fn fib_joins(n: u64) -> u64 {
    if n < 2 {
        0
    } else {
        1 + fib_joins(n - 1) + fib_joins(n - 2)
    }
}

#[test]
fn warm_fib_frame_spawns_without_allocating() {
    let _serial = serial();
    let rt = Runtime::new(1);
    let n = 16u64;
    let joins = fib_joins(n);
    assert!(joins > 900, "need a tree large enough to expose O(joins)");

    // Warm up: grow the deques, frames and worker scratch to steady state.
    for _ in 0..3 {
        assert_eq!(rt.scope(|ctx| fib(ctx, n)), 987);
    }

    let before = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(rt.scope(|ctx| fib(ctx, n)), 987);
    let delta = ALLOCS.load(Ordering::Relaxed) - before;

    // O(1) scope overhead is fine; anything proportional to the ~1000
    // joins means the fast lane started allocating per task again.
    assert!(
        delta < 64,
        "warm fib({n}) tree ({joins} joins) allocated {delta} times; \
         the fork-join fast path must not allocate per join"
    );
}

#[test]
fn warm_dataflow_spawn_pays_only_the_residual_constant() {
    let _serial = serial();
    let rt = Runtime::new(1);
    let tasks = 1_000u64;
    let run = |rt: &Runtime| {
        let sum = AtomicU64::new(0);
        rt.scope(|ctx| {
            let sum = &sum;
            for _ in 0..tasks {
                ctx.spawn([], move |_| {
                    sum.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), tasks);
    };
    for _ in 0..3 {
        run(&rt);
    }

    let before = ALLOCS.load(Ordering::Relaxed);
    run(&rt);
    let delta = ALLOCS.load(Ordering::Relaxed) - before;

    // Each defaulted `ctx.spawn` still allocates its `Arc<Task>` and the
    // boxed body (empty access lists and the all-default slot sentinel
    // are allocation-free); everything else — predecessor sets, slot
    // scratch, successor lists, the owner's sync batch — reuses warmed
    // capacity. Budget: the 2 residual allocations plus constant slack.
    let budget = tasks * 3 + 64;
    assert!(
        delta <= budget,
        "warm spawn loop of {tasks} tasks allocated {delta} times \
         (budget {budget}); the arena reuse on the spawn path regressed"
    );
}
