//! Integration gates of the telemetry layer (PR 9, DESIGN.md §9):
//!
//! * **span balance** — on both steal protocols, a
//!   quiesced traced run has exactly as many task/job begin events as
//!   end events (and zero ring drops at this scale);
//! * **overflow accounting** — flooding a 1-worker ring past its
//!   capacity without draining loses events *counted*, never silently;
//! * **merge associativity** — histogram merging is bucket-wise
//!   addition, so (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c) and quantiles agree;
//! * **disabled cost** — with tracing compiled in but off, results are
//!   identical to a traced run, no events are recorded, and the warm
//!   fork-join fast path still allocates nothing per join.
//!
//! Kept in a dedicated integration-test binary: the allocation test
//! needs a process-global counting `#[global_allocator]`, and the tests
//! serialize on a mutex so concurrent workers never pollute the deltas.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use xkaapi::core::{Ctx, EventKind, HistogramSnapshot, Runtime, Steal, TelemetryEvent};

/// Counts every allocation in the process (all threads — workers too).
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

/// One guard per test: worker threads of a concurrently running test
/// would otherwise pollute the allocation deltas and trace counts.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// A deterministic mixed workload: data-flow tasks inside a scope (task
/// spans) plus root jobs through the submit front door (job spans).
/// Returns a checksum that must not depend on whether tracing is on.
fn workload(rt: &Runtime) -> u64 {
    let sum = AtomicU64::new(0);
    rt.scope(|ctx| {
        let sum = &sum;
        for i in 0..100u64 {
            ctx.spawn([], move |_| {
                sum.fetch_add(i.wrapping_mul(2_654_435_761), Ordering::Relaxed);
            });
        }
    });
    let handles: Vec<_> = (0..100u64)
        .map(|i| rt.submit(move |_ctx| i.wrapping_mul(40_503)).unwrap())
        .collect();
    handles
        .into_iter()
        .map(|h| h.wait())
        .fold(sum.load(Ordering::Relaxed), u64::wrapping_add)
}

fn count(events: &[TelemetryEvent], k: EventKind) -> usize {
    events.iter().filter(|e| e.kind == k).count()
}

/// Drain the trace until every worker lane has balanced task/job spans.
/// A joiner's `wait()` returns the instant the result commits — a hair
/// *before* the executing worker emits its end event — so right after a
/// workload the last end may still be in flight; it lands within
/// microseconds, and this helper retries the (accumulating) drain until
/// it has.
fn drain_balanced(rt: &Runtime, label: &str) -> (Vec<Vec<TelemetryEvent>>, u64) {
    let mut lanes: Vec<Vec<TelemetryEvent>> = Vec::new();
    let mut dropped = 0u64;
    for _ in 0..1_000 {
        let trace = rt.take_trace();
        dropped += trace.dropped();
        lanes.resize(trace.worker_count(), Vec::new());
        for (w, lane) in lanes.iter_mut().enumerate() {
            lane.extend_from_slice(trace.events(w));
        }
        let balanced = lanes.iter().all(|evs| {
            count(evs, EventKind::TaskBegin) == count(evs, EventKind::TaskEnd)
                && count(evs, EventKind::JobBegin) == count(evs, EventKind::JobEnd)
        });
        if balanced && lanes.iter().map(Vec::len).sum::<usize>() > 0 {
            return (lanes, dropped);
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    panic!("[{label}] spans never balanced after quiescence");
}

#[test]
fn every_begin_span_has_a_matching_end_on_all_policies() {
    let _g = serial();
    for policy in [Steal::AGGREGATED, Steal::PER_THIEF] {
        let rt = Runtime::builder().workers(4).steal(policy).build();
        let name = policy.name();
        rt.set_tracing(true);
        let checksum = workload(&rt);
        assert_ne!(checksum, 0);
        // `drain_balanced` asserts the headline property: per worker
        // lane (a task/job executes on exactly one worker), every begin
        // event has a matching end once the pool quiesces.
        let (lanes, dropped) = drain_balanced(&rt, name);
        assert_eq!(
            rt.take_trace().worker_count(),
            4,
            "[{name}] one trace lane per worker, and no other"
        );
        assert_eq!(
            dropped, 0,
            "[{name}] this workload must fit the rings; drops would \
             make span balance vacuous"
        );
        let total = |k: EventKind| -> usize { lanes.iter().map(|evs| count(evs, k)).sum() };
        // One job span per submit, plus the scope's own root job.
        assert_eq!(
            total(EventKind::JobBegin),
            101,
            "[{name}] one job span per root job"
        );
        assert!(
            total(EventKind::TaskBegin) > 0,
            "[{name}] no task spans recorded"
        );
    }
}

#[test]
fn ring_overflow_drops_are_counted_not_silent() {
    let _g = serial();
    let rt = Runtime::new(1);
    rt.set_tracing(true);
    // One worker, no draining while the flood runs: ≥ 3 events per job
    // (inject-drain instant + job span) times 3000 jobs overflows the
    // 4096-slot ring by far.
    let handles: Vec<_> = (0..3_000u64)
        .map(|i| rt.submit(move |_ctx| i).unwrap())
        .collect();
    let sum: u64 = handles.into_iter().map(|h| h.wait()).sum();
    assert_eq!(sum, 2_999 * 3_000 / 2);
    let trace = rt.take_trace();
    assert!(
        trace.dropped() > 0,
        "flood must overflow the ring and the drops must be counted"
    );
    assert!(trace.total_events() > 0);
    // The registry reports the same accounting.
    let m = rt.metrics();
    assert_eq!(m.get("trace_events_dropped"), Some(trace.dropped()));
}

#[test]
fn histogram_merge_is_associative() {
    let _g = serial();
    let mut parts = [
        HistogramSnapshot::new(),
        HistogramSnapshot::new(),
        HistogramSnapshot::new(),
    ];
    // Three disjoint magnitude regimes, like three workers with very
    // different latency profiles.
    let mut v = 1u64;
    for (i, part) in parts.iter_mut().enumerate() {
        for k in 0..500u64 {
            v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(k);
            part.record((v % (1 << (8 * (i + 1)))).max(1));
        }
    }
    let [a, b, c] = parts;
    // (a ⊕ b) ⊕ c
    let mut left = a;
    left.merge(&b);
    left.merge(&c);
    // a ⊕ (b ⊕ c)
    let mut right_inner = b;
    right_inner.merge(&c);
    let mut right = a;
    right.merge(&right_inner);
    assert_eq!(left, right, "bucket-wise merge must be associative");
    assert_eq!(left.count(), 1_500);
    for q in [0.5, 0.99, 0.999] {
        assert_eq!(left.quantile(q), right.quantile(q));
    }
    // Quantiles are monotone in q on the merged distribution.
    assert!(left.quantile(0.5) <= left.quantile(0.99));
    assert!(left.quantile(0.99) <= left.quantile(0.999));
}

#[test]
fn disabled_tracing_changes_nothing_observable() {
    let _g = serial();
    let rt_off = Runtime::new(2);
    assert!(!rt_off.tracing_enabled(), "tracing must default to off");
    let rt_on = Runtime::new(2);
    rt_on.set_tracing(true);
    let off = workload(&rt_off);
    let on = workload(&rt_on);
    assert_eq!(off, on, "tracing must never change results");
    let m = rt_off.metrics();
    assert_eq!(m.get("trace_events_recorded"), Some(0));
    assert_eq!(m.get("trace_events_dropped"), Some(0));
    assert!(rt_on.metrics().get("trace_events_recorded") > Some(0));
    assert_eq!(rt_off.take_trace().total_events(), 0);
    assert!(rt_on.take_trace().total_events() > 0);
    // The latency quantiles of an untraced run are all zero.
    assert_eq!(rt_off.stats().latency, Default::default());
}

fn fib(c: &mut Ctx<'_>, n: u64) -> u64 {
    if n < 2 {
        n
    } else {
        let (a, b) = c.join(|c| fib(c, n - 1), |c| fib(c, n - 2));
        a + b
    }
}

#[test]
fn disabled_tracing_keeps_the_join_fast_path_allocation_free() {
    let _g = serial();
    // Same gate as `tests/alloc_counter.rs`, re-asserted here with the
    // telemetry layer compiled in: the disabled instrumentation is one
    // relaxed load per site and must not re-introduce per-join cost.
    let rt = Runtime::new(1);
    assert!(!rt.tracing_enabled());
    for _ in 0..3 {
        assert_eq!(rt.scope(|ctx| fib(ctx, 16)), 987);
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(rt.scope(|ctx| fib(ctx, 16)), 987);
    let delta = ALLOCS.load(Ordering::Relaxed) - before;
    assert!(
        delta < 64,
        "warm fib(16) tree allocated {delta} times with tracing compiled \
         but off; the disabled telemetry path must stay allocation-free"
    );
}
