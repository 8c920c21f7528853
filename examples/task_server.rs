//! The server scenario the injection subsystem exists for (ISSUE 4): N
//! submitter threads — stand-ins for connection handlers or an async
//! reactor — feed one runtime through the non-blocking
//! [`Runtime::submit`] front door, mixing the three completion styles:
//!
//! * **fire-and-forget** — drop the [`JoinHandle`]; the job still runs;
//! * **poll** — `try_result`/`is_done` from the submitter's own loop;
//! * **notify** — `on_complete` wakes the submitter, reactor-style, so no
//!   thread ever parks per in-flight request.
//!
//! Admission uses a bounded [`InjectPolicy`]: under flood the runtime
//! throttles (`Block`) instead of growing its queues without bound. The
//! example asserts every request was served exactly once and prints the
//! throughput plus the per-lane drain counters — CI runs it in release
//! mode as the server-path smoke gate.
//!
//! Since PR 9 the server also demonstrates the always-on telemetry
//! layer (DESIGN.md §9): tracing is enabled at build time, a reporter
//! thread prints a live stats snapshot (throughput plus per-band
//! submit→start p50/p99) every 25 ms while the flood runs — the sort
//! of periodic self-report a production server would export — and on
//! shutdown the accumulated event trace is dumped as
//! `task_server_trace.json`, a Perfetto-loadable chrome trace with one
//! lane per worker (CI uploads it next to the bench artifacts).
//!
//! The server also shows where blocking work goes: request handlers
//! that block on an external event — a database reply, an upstream
//! socket — wait on plain threads the server owns, never on a worker,
//! and hand their result to the pool through `submit` once the event
//! arrives. The demo parks one blocking stage per CPU worker behind a
//! gate, re-runs the CPU flood while they sit blocked, and asserts the
//! flood's throughput is unharmed.
//!
//! ```bash
//! cargo run --release --example task_server
//! ```
//!
//! [`Runtime::submit`]: xkaapi::core::Runtime::submit
//! [`JoinHandle`]: xkaapi::core::JoinHandle
//! [`InjectPolicy`]: xkaapi::core::InjectPolicy

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::time::{Duration, Instant};
use xkaapi::core::{InjectPolicy, OnFull, Runtime, Topology};

/// ~1 µs of un-optimizable "request handling" work.
fn handle_request(tag: u64) -> u64 {
    let mut acc = tag;
    for i in 0..400 {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
    }
    std::hint::black_box(acc);
    tag
}

fn main() {
    let workers = 8usize;
    let submitters = 4usize;
    let requests_per_submitter = 5_000u64;
    // Model a 2-node machine so the sharded lanes actually shard, whatever
    // host CI runs on; a bounded admission window exercises backpressure.
    let rt = Arc::new(
        Runtime::builder()
            .workers(workers)
            .topology(Topology::two_level(workers, workers / 2))
            .inject_policy(InjectPolicy {
                max_pending: 256,
                on_full: OnFull::Block,
            })
            .tracing(true)
            .build(),
    );
    println!(
        "task_server: {workers} workers, {} inject lanes, {submitters} submitters x {requests_per_submitter} requests",
        rt.inject_lane_count()
    );

    let served = Arc::new(AtomicU64::new(0));
    let checksum = Arc::new(AtomicU64::new(0));
    let start = Arc::new(Barrier::new(submitters + 1));
    let threads: Vec<_> = (0..submitters)
        .map(|s| {
            let rt = Arc::clone(&rt);
            let served = Arc::clone(&served);
            let checksum = Arc::clone(&checksum);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                let base = (s as u64) << 40;
                let third = requests_per_submitter / 3;
                // 1/3 fire-and-forget: handle dropped, job detached.
                for i in 0..third {
                    let (sv, ck) = (Arc::clone(&served), Arc::clone(&checksum));
                    drop(rt.submit(move |_ctx| {
                        ck.fetch_add(handle_request(base + i), Ordering::Relaxed);
                        sv.fetch_add(1, Ordering::Relaxed);
                    }));
                }
                // 1/3 polled: submit a batch, then poll handles to drain.
                let mut polled: Vec<_> = (third..2 * third)
                    .map(|i| {
                        let sv = Arc::clone(&served);
                        rt.submit(move |_ctx| {
                            sv.fetch_add(1, Ordering::Relaxed);
                            handle_request(base + i)
                        })
                        .expect("Block policy never rejects")
                    })
                    .collect();
                while !polled.is_empty() {
                    polled.retain_mut(|h| match h.try_result() {
                        Some(v) => {
                            checksum.fetch_add(v, Ordering::Relaxed);
                            false
                        }
                        None => true,
                    });
                    std::thread::yield_now();
                }
                // The rest notified: on_complete signals this "reactor".
                let notify = Arc::new((Mutex::new(0u64), Condvar::new()));
                let expected = requests_per_submitter - 2 * third;
                for i in 2 * third..requests_per_submitter {
                    let (sv, ck) = (Arc::clone(&served), Arc::clone(&checksum));
                    let h = rt
                        .submit(move |_ctx| {
                            ck.fetch_add(handle_request(base + i), Ordering::Relaxed);
                            sv.fetch_add(1, Ordering::Relaxed);
                        })
                        .expect("Block policy never rejects");
                    let notify = Arc::clone(&notify);
                    h.on_complete(move || {
                        let (mx, cv) = &*notify;
                        *mx.lock().unwrap() += 1;
                        cv.notify_one();
                    });
                }
                let (mx, cv) = &*notify;
                let mut done = mx.lock().unwrap();
                while *done < expected {
                    done = cv.wait(done).unwrap();
                }
            })
        })
        .collect();

    // Live telemetry reporter: while the flood runs, snapshot the runtime
    // every 25 ms and print throughput plus the per-band submit→start
    // quantiles. Each `stats()` call also drains the per-worker event
    // rings into the trace session, so a long-lived server never
    // overflows its rings between exports.
    let stop = Arc::new(AtomicBool::new(false));
    let reporter = {
        let (rt, served, stop) = (Arc::clone(&rt), Arc::clone(&served), Arc::clone(&stop));
        std::thread::spawn(move || {
            let t0 = Instant::now();
            let mut last = 0u64;
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(25));
                let now = served.load(Ordering::Relaxed);
                let lat = rt.stats().latency;
                let q = &lat.submit_to_start[1]; // submit() jobs are Normal band
                println!(
                    "  [live {:>5.0} ms] served {now} (+{}), normal-band submit→start \
                     p50 {:.1} µs p99 {:.1} µs",
                    t0.elapsed().as_secs_f64() * 1e3,
                    now - last,
                    q.p50_ns as f64 / 1e3,
                    q.p99_ns as f64 / 1e3,
                );
                last = now;
            }
        })
    };

    start.wait();
    let t0 = Instant::now();
    for t in threads {
        t.join().unwrap();
    }
    // The notify/poll thirds are provably done; spin out the tail of the
    // fire-and-forget third.
    let total = submitters as u64 * requests_per_submitter;
    while served.load(Ordering::Relaxed) < total {
        std::thread::yield_now();
    }
    let elapsed = t0.elapsed();
    stop.store(true, Ordering::Relaxed);
    reporter.join().unwrap();

    // Every request served exactly once, and the expected checksum landed.
    assert_eq!(served.load(Ordering::Relaxed), total);
    let expect: u64 = (0..submitters as u64)
        .flat_map(|s| (0..requests_per_submitter).map(move |i| (s << 40) + i))
        .fold(0u64, |acc, tag| acc.wrapping_add(handle_request(tag)));
    assert_eq!(
        checksum.load(Ordering::Relaxed),
        expect,
        "lost or duplicated requests"
    );

    let snap = rt.stats();
    assert_eq!(snap.jobs_submitted, total);
    assert_eq!(snap.jobs_rejected, 0);
    let per_s = total as f64 / elapsed.as_secs_f64();
    println!(
        "served {total} requests in {:.1} ms ({per_s:.0} req/s)",
        elapsed.as_secs_f64() * 1e3
    );
    for (node, l) in rt.inject_lane_stats().iter().enumerate() {
        println!(
            "  lane[node {node}]: submitted {} drained {}",
            l.submitted, l.drained
        );
    }
    println!(
        "  drains: own-node {} remote-node {} (workers visit their own node's lane first; \
         the split depends on host scheduling — see ablation for the asserted property)",
        snap.inject_own_lane, snap.inject_remote_lane
    );

    // --- blocking-stage demo: blockers on threads the server owns ------
    // A request that blocks on an external event must never occupy a CPU
    // worker. Measure a pure-CPU flood, then park one blocking stage per
    // worker on a plain thread (gated on a condvar, i.e. blocked for the
    // whole measurement) and measure the same flood again: the pool never
    // sees the wait, so CPU throughput is unharmed. Once released, each
    // stage hands its result to the pool through `submit`.
    let cpu_flood = |rt: &Arc<Runtime>, n: u64| -> Duration {
        let t0 = Instant::now();
        let hs: Vec<_> = (0..n)
            .map(|i| {
                rt.submit(move |_ctx| handle_request(i))
                    .expect("Block policy never rejects")
            })
            .collect();
        for h in hs {
            std::hint::black_box(h.wait());
        }
        t0.elapsed()
    };
    let baseline = cpu_flood(&rt, 20_000);
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let blockers: Vec<_> = (0..workers as u64)
        .map(|k| {
            let (gate, rt) = (Arc::clone(&gate), Arc::clone(&rt));
            std::thread::Builder::new()
                .name(format!("blocking-stage-{k}"))
                .spawn(move || {
                    let (mx, cv) = &*gate;
                    let mut open = mx.lock().unwrap();
                    while !*open {
                        open = cv.wait(open).unwrap();
                    }
                    drop(open);
                    rt.submit(move |_ctx| handle_request(k))
                        .expect("Block policy never rejects")
                        .wait()
                })
                .expect("spawn blocking stage")
        })
        .collect();
    let blocked = cpu_flood(&rt, 20_000);
    {
        let (mx, cv) = &*gate;
        *mx.lock().unwrap() = true;
        cv.notify_all();
    }
    for (k, b) in blockers.into_iter().enumerate() {
        let reply = b.join().expect("blocking stage panicked");
        assert_eq!(reply, handle_request(k as u64), "blocking stage {k}");
    }
    let ratio = blocked.as_secs_f64() / baseline.as_secs_f64().max(1e-9);
    println!(
        "{workers} blocked stages held off-pool; CPU flood {:.1} ms \
         baseline vs {:.1} ms alongside blockers ({ratio:.2}x)",
        baseline.as_secs_f64() * 1e3,
        blocked.as_secs_f64() * 1e3,
    );
    assert!(
        ratio < 3.0,
        "CPU throughput collapsed with blockers in flight ({ratio:.2}x)"
    );

    // Shutdown trace export: everything the workers recorded over the
    // whole run, one Perfetto lane per worker (job spans, inject drains,
    // steal attempts, park/unpark). A real server would dump this on
    // SIGTERM or behind a debug endpoint.
    let trace = rt.take_trace();
    let chrome = trace.to_chrome_trace();
    std::fs::write("task_server_trace.json", &chrome).expect("write trace");
    println!(
        "wrote task_server_trace.json ({} events across {} worker lanes, {} dropped)",
        trace.total_events(),
        trace.worker_count(),
        trace.dropped()
    );
    assert!(trace.total_events() > 0, "tracing was on; trace is empty");

    // Graceful teardown (DESIGN.md §8): a real server bounds its shutdown
    // instead of dropping the pool blind. All submitters have joined, so we
    // are the sole owner; every lane is already drained, so the bounded
    // drain must report clean.
    let Ok(rt) = Arc::try_unwrap(rt) else {
        unreachable!("submitter threads joined; main is the sole runtime owner");
    };
    let drained = rt.shutdown_timeout(Duration::from_secs(5));
    assert!(drained, "lanes were empty; shutdown must drain in bound");
    println!("task_server: OK (graceful shutdown, queues drained)");
}
