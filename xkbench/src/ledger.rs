//! The per-layer cost ledger: small probes built from the public API, one
//! per seam a task crosses, measured from outside with bench-side timers
//! and the counting allocator. The same probes run in every traced run,
//! whatever the workload, so two ledgers can be laid side by side. Probes
//! use one worker unless the name says otherwise and report the median.

use crate::alloc;
use crate::jobs::Generator;
use crate::stats::{now_ns, Samples};
use crate::workloads::{fib, pool};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use xkaapi_core::{AccessMode, Ctx, Partitioned, Priority, Region, Runtime, Shared};
use xkaapi_forkjoin::{CilkCtx, CilkPool};
use xkaapi_linalg::kernels::{flops, gemm};
use xkaapi_linalg::{cholesky_ops, cholesky_xkaapi, RecordedCholesky, TiledMatrix};

/// Median time of `f` in ns over `samples` calls, after two warm calls.
fn time_ns(samples: usize, mut f: impl FnMut()) -> f64 {
    f();
    f();
    let mut s = Samples::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        f();
        s.push(t.elapsed().as_nanos() as f64);
    }
    s.p50()
}

const TREE_DEPTH: u32 = 14;
/// Joins of a balanced binary tree of depth 14.
const TREE_JOINS: f64 = 16_383.0;
/// Tasks per scope in the spawn probes.
const SPAWNS: usize = 1_000;

fn tree(c: &mut Ctx<'_>, d: u32) {
    if d > 0 {
        c.join(|c| tree(c, d - 1), |c| tree(c, d - 1));
    }
}

fn cilk_tree(c: &CilkCtx<'_>, d: u32) {
    if d > 0 {
        c.join(|c| cilk_tree(c, d - 1), |c| cilk_tree(c, d - 1));
    }
}

fn keyed(p: &Partitioned<()>, key: usize) -> xkaapi_core::Access {
    p.access(Region::Key(key as u64), AccessMode::Exclusive)
}

/// Order of the small Cholesky the `record.*` probes use: 816 tasks at
/// the tile size of the fine workloads.
const REC_N: usize = 256;
const REC_NB: usize = 16;

pub struct Ledger {
    /// (name, value, samples behind the value).
    pub metrics: Vec<(&'static str, f64, usize)>,
    samples: usize,
    /// Probes whose exact counts did not repeat, or whose result was wrong.
    pub failures: Vec<String>,
}

impl Ledger {
    fn put(&mut self, name: &'static str, v: f64) {
        self.metrics.push((name, v, self.samples));
    }

    /// An allocator-call count per operation that must repeat exactly.
    fn put_allocs(&mut self, name: &'static str, per: f64, mut f: impl FnMut()) {
        f();
        f();
        let counts: Vec<u64> = (0..3).map(|_| alloc::count(&mut f)).collect();
        if counts.iter().any(|&c| c != counts[0]) {
            self.failures
                .push(format!("{name}: allocator calls do not repeat: {counts:?}"));
        }
        self.put(name, counts[0] as f64 / per);
    }
}

/// Run every probe. `w` is the worker count of the W-worker probes,
/// `samples` the timings behind each median.
pub fn run(w: usize, seed: u64, samples: usize) -> Ledger {
    let mut l = Ledger {
        metrics: Vec::new(),
        samples,
        failures: Vec::new(),
    };
    let rt1 = pool(1);
    fork_join(&mut l, &rt1, samples);
    spawn_and_dataflow(&mut l, &rt1, samples);
    kernels(&mut l, samples);
    record(&mut l, &rt1, seed, samples);
    telemetry(&mut l, &rt1, seed, samples);
    inject(&mut l, &rt1, w, seed, samples);
    one_worker_loops(&mut l, &rt1, samples);
    drop(rt1);
    let rtw = pool(w);
    many_workers(&mut l, &rtw, w, samples);
    l
}

fn fork_join(l: &mut Ledger, rt1: &Runtime, samples: usize) {
    let t = time_ns(samples, || rt1.scope(|c| tree(c, TREE_DEPTH)));
    l.put("fastlane.join_ns", t / TREE_JOINS);
    let cilk = CilkPool::new(1);
    let t = time_ns(samples, || cilk.run(|c| cilk_tree(c, TREE_DEPTH)));
    l.put("forkjoin.cilk_join_ns", t / TREE_JOINS);
    // Counted inside one scope, so entering it is not in the number.
    rt1.scope(|c| l.put_allocs("alloc.per_join", TREE_JOINS, || tree(c, TREE_DEPTH)));
}

fn spawn_and_dataflow(l: &mut Ledger, rt1: &Runtime, samples: usize) {
    let per = SPAWNS as f64;
    let plain = || {
        rt1.scope(|c| {
            for _ in 0..SPAWNS {
                c.spawn([], |_| {});
            }
        })
    };
    l.put("ctx.spawn_ns", time_ns(samples, plain) / per);
    rt1.scope(|c| {
        l.put_allocs("alloc.per_task", per, || {
            c.scope(|c| {
                for _ in 0..SPAWNS {
                    c.spawn([], |_| {});
                }
            })
        })
    });
    let t = time_ns(samples, || {
        rt1.scope(|c| {
            for _ in 0..SPAWNS {
                c.task().spawn(|_| {});
            }
        })
    });
    l.put("ctx.builder_spawn_ns", t / per);
    let t = time_ns(samples, || {
        rt1.scope(|c| {
            for _ in 0..SPAWNS {
                c.task().priority(Priority::High).spawn(|_| {});
            }
        })
    });
    l.put("ctx.attr_spawn_ns", t / per);
    let t = time_ns(samples, || {
        rt1.scope(|c| {
            for _ in 0..SPAWNS {
                c.scope(|_| {});
            }
        })
    });
    l.put("frame.scope_ns", t / per);

    // Empty bodies declaring 1 / 3 keyed accesses on independent regions:
    // the cost of dependency analysis with no dependency to find.
    let part = Partitioned::new(());
    let t = time_ns(samples, || {
        rt1.scope(|c| {
            for i in 0..SPAWNS {
                c.spawn([keyed(&part, i)], |_| {});
            }
        })
    });
    l.put("dataflow.spawn1_ns", t / per);
    let t = time_ns(samples, || {
        rt1.scope(|c| {
            for i in 0..SPAWNS {
                let k = 3 * i;
                c.spawn(
                    [keyed(&part, k), keyed(&part, k + 1), keyed(&part, k + 2)],
                    |_| {},
                );
            }
        })
    });
    l.put("dataflow.spawn3_ns", t / per);

    // A write-only chain on a renameable handle: every link is renamed.
    let h = Shared::renameable(0u64);
    let t = time_ns(samples, || {
        rt1.scope(|c| {
            for i in 0..SPAWNS as u64 {
                let hw = h.clone();
                c.spawn([h.write()], move |t| *t.write(&hw) = i);
            }
        })
    });
    l.put("handle.rename_ns", t / per);
    if *h.get() != SPAWNS as u64 - 1 {
        l.failures
            .push("handle.rename_ns: the last write is not the value".into());
    }
}

fn kernels(l: &mut Ledger, samples: usize) {
    for (name, nb, reps) in [
        ("linalg.gemm16_gflops", 16usize, 2_000usize),
        ("linalg.gemm64_gflops", 64, 40),
    ] {
        let a = vec![0.5f64; nb * nb];
        let b = vec![0.25f64; nb * nb];
        let mut c = vec![1.0f64; nb * nb];
        let t = time_ns(samples, || {
            for _ in 0..reps {
                gemm(black_box(&a), black_box(&b), black_box(&mut c), nb);
            }
        });
        l.put(name, flops::gemm(nb) * reps as f64 / t);
    }
}

fn record(l: &mut Ledger, rt1: &Runtime, seed: u64, samples: usize) {
    let orig = TiledMatrix::spd_random(REC_N, REC_NB, seed);
    let mut us = Samples::default();
    let mut rec = RecordedCholesky::record(rt1, orig.clone_matrix());
    for _ in 0..samples.min(5) {
        let a = orig.clone_matrix();
        let t = Instant::now();
        rec = RecordedCholesky::record(rt1, a);
        us.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    l.put("record.record_us", us.p50());
    let st = rec.dag().stats();
    l.put("record.groups", st.groups as f64);
    l.put("record.fused_tasks", st.fused_tasks as f64);

    // Replay against the online engine on the same matrix, interleaved.
    let (mut replay, mut online) = (Samples::default(), Samples::default());
    for i in 0..samples + 2 {
        rec.load(&orig);
        let t = Instant::now();
        let ok = rec.replay(rt1).is_ok();
        let t_replay = t.elapsed().as_nanos() as f64;
        let a = orig.clone_matrix();
        let t = Instant::now();
        let ok = ok && cholesky_xkaapi(rt1, a).is_ok();
        let t_online = t.elapsed().as_nanos() as f64;
        if !ok {
            l.failures
                .push("record.replay_over_online: factorization failed".into());
        }
        if i >= 2 {
            replay.push(t_replay);
            online.push(t_online);
        }
    }
    l.put("record.replay_over_online", replay.p50() / online.p50());

    // The same shape with empty bodies: what a replay group costs.
    let part = Partitioned::new(());
    let ops = cholesky_ops(REC_N / REC_NB);
    let dag = rt1.record(|r| {
        for op in &ops {
            let accs = op.accesses().into_iter().map(|(key, write)| {
                let mode = if write {
                    AccessMode::Exclusive
                } else {
                    AccessMode::Read
                };
                part.access(Region::Key(key), mode)
            });
            r.task().accesses(accs).spawn(|_| {});
        }
    });
    let groups = dag.stats().groups.max(1) as f64;
    l.put(
        "record.group_ns",
        time_ns(samples, || dag.replay(rt1)) / groups,
    );
}

/// Cost of the runtime's own telemetry when enabled: time with
/// `set_tracing(true)` over time with it off, alternating.
fn telemetry(l: &mut Ledger, rt1: &Runtime, seed: u64, samples: usize) {
    let mut gen = Generator::new(seed, crate::jobs::BATCH);
    let mut probe = |name: &'static str, f: &mut dyn FnMut()| {
        let mut t = [Samples::default(), Samples::default()];
        for i in 0..2 * samples + 2 {
            let on = i % 2 == 1;
            rt1.set_tracing(on);
            let t0 = Instant::now();
            f();
            if i >= 2 {
                t[usize::from(on)].push(t0.elapsed().as_nanos() as f64);
            }
        }
        rt1.set_tracing(false);
        let [off, on] = &mut t;
        l.put(name, on.p50() / off.p50());
    };
    probe("telemetry.enabled_cost_ratio", &mut || {
        black_box(rt1.scope(|c| fib(c, 20)));
    });
    probe("telemetry.enabled_cost_ratio_jobs", &mut || {
        gen.closed_loop(rt1)
    });
    if gen.check().1 != 0 {
        l.failures
            .push("telemetry.enabled_cost_ratio_jobs: wrong checksum".into());
    }
}

/// The `inject` and `worker` seams: the submit call, queueing, park →
/// wake, and the tail of an open loop shorter than the workload's.
fn inject(l: &mut Ledger, rt1: &Runtime, w: usize, seed: u64, samples: usize) {
    // Park → wake: submit to a pool that has been idle for 2 ms.
    let mut wake = Samples::default();
    for _ in 0..samples {
        std::thread::sleep(Duration::from_millis(2));
        let t0 = now_ns();
        let started = rt1.submit(|_| now_ns()).map(|h| h.wait());
        wake.push(started.map_or(0.0, |s| s.saturating_sub(t0) as f64 / 1e3));
    }
    l.put("worker.park_wake_us_p50", wake.p50());
    l.put_allocs("alloc.per_job", SPAWNS as f64, || {
        for i in 0..SPAWNS as u64 {
            black_box(rt1.submit(move |_| i).map(|h| h.wait()).ok());
        }
    });

    // Open loop at the workload's rate on the workload's pool size, with
    // stamps on: 200 ms per 15 samples asked for.
    let jobs = 20_000 * samples / 15 + 1_000;
    let rt = pool((w - 1).max(1));
    let mut gen = Generator::new(seed, jobs);
    gen.traced = true;
    gen.open_loop(&rt, jobs);
    if gen.check().1 != 0 {
        l.failures
            .push("inject.*: open loop failed its check".into());
    }
    let o = &mut gen.open;
    l.put("inject.submit_ns_p50", o.submit_ns.p50());
    l.put("inject.submit_to_start_us_p50", o.queued_us.p50());
    l.put("inject.job_latency_us_p99", o.latency_us.p(99.0));
    l.put("inject.job_latency_us_p999", o.latency_us.p(99.9));
    l.put("inject.generator_late_us_p99", o.late_us.p(99.0));
    l.put("inject.backlog_max", o.backlog_max as f64);
}

/// Probes that need a thief: W workers.
fn many_workers(l: &mut Ledger, rt: &Runtime, w: usize, samples: usize) {
    // 64 exclusive chains of 64 tasks, interleaved: ns per task.
    let chains: Vec<Shared<u64>> = (0..64).map(|_| Shared::new(0u64)).collect();
    let t = time_ns(samples, || {
        rt.scope(|c| {
            for _ in 0..64 {
                for h in &chains {
                    let hw = h.clone();
                    c.spawn([h.exclusive()], move |t| *t.write(&hw) += 1);
                }
            }
        })
    });
    l.put("dataflow.chain_ns", t / (64.0 * 64.0));
    let links = 64 * (samples as u64 + 2);
    if chains.iter().any(|h| *h.get() != links) {
        l.failures
            .push("dataflow.chain_ns: a chain lost an update".into());
    }

    // Hand-off: the owner spawns one task and spins in user code, so only
    // a thief can start it; the body stamps its start.
    let mut handoff = Samples::default();
    if w >= 2 {
        for _ in 0..samples + 2 {
            let started = AtomicU64::new(0);
            let spawned = rt.scope(|c| {
                let t0 = now_ns();
                c.spawn([], |_| started.store(now_ns(), Ordering::Release));
                while started.load(Ordering::Acquire) == 0 {
                    std::hint::spin_loop();
                }
                t0
            });
            handoff.push(started.into_inner().saturating_sub(spawned) as f64 / 1e3);
        }
    }
    l.put("steal.handoff_us_p50", handoff.p50());

    let t = time_ns(samples, || rt.foreach_chunks(0..8 * w, None, |_| {}));
    l.put("foreach.launch_us_p50", t / 1e3);
    let n = 100_000;
    let t = time_ns(samples, || rt.foreach_chunks(0..n, Some(1), |_| {}));
    l.put("foreach.claim_ns", t / n as f64);

    // Imbalance of a loop whose cost rises with the index: per-worker
    // busy time accumulated in the body, max over mean.
    let busy: Vec<AtomicU64> = (0..w).map(|_| AtomicU64::new(0)).collect();
    let n = 64 * 1024;
    for _ in 0..samples {
        rt.scope(|c| {
            c.foreach_worker_chunks(0..n, None, &|r, worker| {
                let t0 = now_ns();
                for i in r {
                    black_box(crate::stats::busy_work(i as u64, 1 + (i * 63 / n) as u64));
                }
                busy[worker].fetch_add(now_ns() - t0, Ordering::Relaxed);
            })
        });
    }
    let busy: Vec<f64> = busy.into_iter().map(|b| b.into_inner() as f64).collect();
    let mean = busy.iter().sum::<f64>() / w as f64;
    l.put(
        "foreach.imbalance",
        busy.iter().copied().fold(0.0, f64::max) / mean.max(1.0),
    );
}

fn one_worker_loops(l: &mut Ledger, rt1: &Runtime, samples: usize) {
    let t = time_ns(samples, || rt1.foreach_chunks(0..8, None, |_| {}));
    l.put("foreach.launch_1w_ns", t);
    l.put_allocs("alloc.per_loop", 100.0, || {
        for _ in 0..100 {
            rt1.foreach_chunks(0..1024, None, |_| {});
        }
    });
}
