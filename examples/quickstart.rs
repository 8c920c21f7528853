//! Quickstart: the three paradigms of the X-Kaapi runtime in one program.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use xkaapi::core::{Reduction, Runtime, Shared};

fn main() {
    // Builder defaults: available parallelism, overridable via
    // XKAAPI_WORKERS without recompiling.
    let rt = Runtime::builder().build();
    println!("X-Kaapi quickstart on {} workers", rt.num_workers());

    // ------------------------------------------------------------------
    // 1. Data-flow tasks: declare accesses, the runtime orders the tasks.
    //    (read-after-write: the reader always sees 21.)
    let a = Shared::new(0u64);
    let b = Shared::new(0u64);
    rt.scope(|ctx| {
        let (a1, a2, b1) = (a.clone(), a.clone(), b.clone());
        ctx.spawn([a.write()], move |t| {
            *t.write(&a1) = 21;
        });
        ctx.spawn([a.read(), b.write()], move |t| {
            *t.write(&b1) = 2 * *t.read(&a2);
        });
    });
    println!("dataflow:   a=21 -> b = {}", b.get());

    // ------------------------------------------------------------------
    // 2. Fork-join (Cilk-style): recursive divide and conquer.
    fn fib(ctx: &mut xkaapi::core::Ctx<'_>, n: u64) -> u64 {
        if n < 2 {
            return n;
        }
        let (x, y) = ctx.join(|c| fib(c, n - 1), |c| fib(c, n - 2));
        x + y
    }
    let f = rt.scope(|ctx| fib(ctx, 30));
    println!("fork-join:  fib(30) = {f}");

    // ------------------------------------------------------------------
    // 3. Adaptive parallel loops: split on demand when workers idle.
    let sum = rt.foreach_reduce(
        0..1_000_000,
        None,
        || 0u64,
        |s, i| *s += i as u64,
        |a, b| a + b,
    );
    println!("foreach:    sum(0..1e6) = {sum}");

    // Reductions through the cumulative-write access mode:
    let red = Reduction::with_slots(0u64, rt.num_workers(), || 0, |a, b| *a += b);
    let out = Shared::new(0u64);
    rt.scope(|ctx| {
        for i in 1..=1000u64 {
            let r = red.clone();
            ctx.spawn([red.cumul()], move |t| t.fold(&r, |acc| *acc += i));
        }
        let (r, o) = (red.clone(), out.clone());
        ctx.spawn([red.read(), out.write()], move |t| {
            *t.write(&o) = *t.read_reduced(&r);
        });
    });
    println!("reduction:  sum(1..=1000) = {}", out.get());

    // Scheduler statistics (steals, aggregation, promotions):
    let s = rt.stats();
    println!(
        "stats:      {} tasks, {} stolen, {} combines served {} requests",
        s.tasks_executed(),
        s.tasks_executed_stolen,
        s.combine_batches,
        s.combine_served
    );
}
