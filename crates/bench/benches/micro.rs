//! Micro-benchmarks of the runtime primitives the paper's §III-A discusses
//! (task creation ≈ ten cycles in the original C implementation; we report
//! our own numbers honestly), plus ablation comparisons: scheduler policy
//! matrix, aggregation on/off, ready-list promotion on/off, loop grain
//! sweep, and the kernel/bookkeeping costs behind the figure harnesses.
//!
//! Self-contained harness (`harness = false`; the container has no registry
//! access for criterion): median-of-N wall times via
//! `xkaapi_bench::measure_ns`, printed as one markdown table. Run with
//! `cargo bench -p xkaapi-bench`, or `--quick` for a fast smoke pass.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use xkaapi_bench::{measure_ns, print_table, SchedPolicy};
use xkaapi_core::{
    AggregatedStealing, PerThiefStealing, PromotionPolicy, Runtime, Shared, StealPolicy,
};
use xkaapi_forkjoin::the_deque::{JobRef, TheDeque};

struct Bench {
    rows: Vec<Vec<String>>,
    iters: usize,
}

impl Bench {
    fn report(&mut self, group: &str, name: &str, ns_per_iter: f64) {
        self.rows.push(vec![
            group.to_string(),
            name.to_string(),
            if ns_per_iter >= 1e6 {
                format!("{:.3} ms", ns_per_iter / 1e6)
            } else if ns_per_iter >= 1e3 {
                format!("{:.3} µs", ns_per_iter / 1e3)
            } else {
                format!("{ns_per_iter:.1} ns")
            },
        ]);
    }

    /// Median wall time of `f`, normalized by `per` inner operations.
    fn run(&mut self, group: &str, name: &str, per: usize, mut f: impl FnMut()) {
        let ns = measure_ns(self.iters, &mut f);
        self.report(group, name, ns as f64 / per as f64);
    }
}

fn bench_spawn(b: &mut Bench) {
    let rt = Runtime::new(1);
    b.run(
        "task-creation",
        "spawn+sync (xkaapi, 1 worker)",
        1000,
        || {
            rt.scope(|ctx| {
                for _ in 0..1000 {
                    ctx.spawn([], |_| {});
                }
            });
        },
    );
    let pool = xkaapi_forkjoin::CilkPool::new(1);
    b.run("task-creation", "join (cilklike, 1 worker)", 1000, || {
        pool.run(|ctx| {
            for _ in 0..1000 {
                ctx.join(|_| {}, |_| {});
            }
        });
    });
    let tpool = xkaapi_forkjoin::TbbPool::new(1);
    b.run("task-creation", "join (tbblike, 1 worker)", 1000, || {
        tpool.run(|ctx| {
            for _ in 0..1000 {
                ctx.join(|_| {}, |_| {});
            }
        });
    });
}

/// The PR 6 spawn fast path, layer by layer: the legacy `ctx.spawn`
/// (always default attributes), the builder at default attributes (must
/// monomorphize onto the same `#[inline]` path — any gap here is lowering
/// overhead), the attributed builder (takes the `#[cold]` slow path and
/// activates banded queues), and the fork-join fast lane for scale.
fn bench_spawn_layers(b: &mut Bench) {
    use xkaapi_core::Priority;
    let rt = Runtime::new(1);
    b.run("spawn-layers", "legacy ctx.spawn", 1000, || {
        rt.scope(|ctx| {
            for _ in 0..1000 {
                ctx.spawn([], |_| {});
            }
        });
    });
    b.run("spawn-layers", "builder, defaulted", 1000, || {
        rt.scope(|ctx| {
            for _ in 0..1000 {
                ctx.task().spawn(|_| {});
            }
        });
    });
    b.run("spawn-layers", "builder, priority(High)", 1000, || {
        rt.scope(|ctx| {
            for _ in 0..1000 {
                ctx.task().priority(Priority::High).spawn(|_| {});
            }
        });
    });
    b.run("spawn-layers", "join (fork-join lane)", 1000, || {
        rt.scope(|ctx| {
            for _ in 0..1000 {
                ctx.join(|_| {}, |_| {});
            }
        });
    });
}

fn bench_deque(b: &mut Bench) {
    let d = TheDeque::new();
    let sink = AtomicUsize::new(0);
    unsafe fn exec(data: *mut (), _w: usize) {
        let v = unsafe { &*(data as *const AtomicUsize) };
        v.fetch_add(1, Ordering::Relaxed);
    }
    let job = JobRef {
        data: &sink as *const AtomicUsize as *mut (),
        exec,
    };
    b.run("the-deque", "push+pop", 1000, || {
        for _ in 0..1000 {
            assert!(d.push(job));
            std::hint::black_box(d.pop().unwrap());
        }
    });
    b.run("the-deque", "push+steal", 1000, || {
        for _ in 0..1000 {
            assert!(d.push(job));
            std::hint::black_box(d.steal().unwrap());
        }
    });
}

fn bench_policy_matrix(b: &mut Bench) {
    for pol in SchedPolicy::ALL {
        let rt = pol.build_runtime(4);
        b.run("policy-matrix", pol.label(), 512, || {
            let sum = AtomicUsize::new(0);
            rt.scope(|ctx| {
                let sum = &sum;
                for _ in 0..512 {
                    ctx.spawn([], move |_| {
                        sum.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            assert_eq!(sum.load(Ordering::Relaxed), 512);
        });
    }
}

fn bench_dataflow(b: &mut Bench) {
    for (label, promote) in [("readylist-on", true), ("readylist-off", false)] {
        let rt = Runtime::builder()
            .workers(2)
            .promotion(PromotionPolicy {
                enabled: promote,
                promote_len: 16,
                promote_scans: 4,
            })
            .build();
        b.run("dataflow", &format!("chain256 {label}"), 256, || {
            let h = Shared::new(0u64);
            rt.scope(|ctx| {
                for _ in 0..256 {
                    let hw = h.clone();
                    ctx.spawn([h.exclusive()], move |t| {
                        *t.write(&hw) += 1;
                    });
                }
            });
            assert_eq!(*h.get(), 256);
        });
    }
    let policies: [(&str, Arc<dyn StealPolicy>); 2] = [
        ("aggregation-on", Arc::new(AggregatedStealing)),
        ("aggregation-off", Arc::new(PerThiefStealing)),
    ];
    for (label, steal) in policies {
        let rt = Runtime::builder().workers(4).steal_policy(steal).build();
        b.run("dataflow", &format!("wide512 {label}"), 512, || {
            let sum = AtomicUsize::new(0);
            rt.scope(|ctx| {
                let sum = &sum;
                for _ in 0..512 {
                    ctx.spawn([], move |_| {
                        sum.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            assert_eq!(sum.load(Ordering::Relaxed), 512);
        });
    }
}

fn bench_foreach(b: &mut Bench) {
    let rt = Runtime::new(4);
    let n = 100_000usize;
    for grain in [16usize, 256, 4096] {
        b.run("foreach-grain", &format!("grain={grain}"), n, || {
            let s = rt.foreach_reduce(
                0..n,
                Some(grain),
                || 0u64,
                |a, i| *a += i as u64,
                |a, b| a + b,
            );
            assert_eq!(s, (n as u64 - 1) * n as u64 / 2);
        });
    }
}

fn bench_kernels(b: &mut Bench) {
    use xkaapi_linalg::kernels::{gemm, potrf};
    use xkaapi_linalg::TiledMatrix;
    for nb in [64usize, 128] {
        let a = TiledMatrix::spd_random(nb, nb, 3);
        let tile = a.tile(0, 0).to_vec();
        b.run("kernels", &format!("potrf nb={nb}"), 1, || {
            let mut t = tile.clone();
            potrf(&mut t, nb).unwrap();
            std::hint::black_box(&t);
        });
        b.run("kernels", &format!("gemm nb={nb}"), 1, || {
            let mut t = tile.clone();
            gemm(&tile, &tile, &mut t, nb);
            std::hint::black_box(&t);
        });
    }
}

fn bench_simulator(b: &mut Bench) {
    use xkaapi_bench::{cholesky_dag, ws_policy, KernelCosts};
    use xkaapi_sim::{simulate_dag, Platform};
    let costs = KernelCosts {
        nb: 128,
        potrf_ns: 400_000,
        trsm_ns: 1_000_000,
        syrk_ns: 1_000_000,
        gemm_ns: 2_000_000,
    };
    let dag = cholesky_dag(24, &costs);
    let p = Platform::magny_cours(48);
    b.run("simulator", "cholesky nt=24, 48 cores", 1, || {
        let r = simulate_dag(&p, &dag, &ws_policy(), 1);
        std::hint::black_box(r.makespan_ns);
    });
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut b = Bench {
        rows: Vec::new(),
        iters: if quick { 3 } else { 11 },
    };
    bench_spawn(&mut b);
    bench_spawn_layers(&mut b);
    bench_deque(&mut b);
    bench_policy_matrix(&mut b);
    bench_dataflow(&mut b);
    bench_foreach(&mut b);
    bench_kernels(&mut b);
    bench_simulator(&mut b);
    print_table(
        &format!(
            "Micro-benchmarks (median of {} runs, per-op normalized)",
            b.iters
        ),
        &["group", "benchmark", "time/op"],
        &b.rows,
    );
}
