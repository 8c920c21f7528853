//! The attribute-carrying task API (`DESIGN.md` §5): builder-vs-legacy
//! equivalence, priority-band drain order across queue layers and the
//! inject lanes, per-priority admission shedding, and `Affinity`-driven
//! placement onto the data-owning inject lane.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use xkaapi::core::{
    Affinity, AggregatedStealing, InjectPolicy, OnFull, PerThiefStealing, Priority, Runtime,
    Shared, StealPolicy, TaskQueue, Topology,
};
use xkaapi::omp::OmpCentralQueue;
use xkaapi::quark::QuarkCentralQueue;

fn wait_until(secs: u64, what: &str, cond: impl Fn() -> bool) {
    let t0 = Instant::now();
    while !cond() {
        assert!(
            t0.elapsed() < Duration::from_secs(secs),
            "timed out waiting for {what}"
        );
        std::thread::yield_now();
    }
}

/// The same data-flow chain via `Ctx::spawn` and via the builder with
/// default attributes must produce identical results (they share one spawn
/// path), and non-default attributes must not change results either
/// (priority/affinity are scheduling hints, never semantics).
#[test]
fn builder_matches_legacy_spawn() {
    for prio in Priority::ALL {
        let rt = Runtime::new(3);
        let legacy = Shared::new(1u64);
        let built = Shared::new(1u64);
        rt.scope(|ctx| {
            for i in 0..50u64 {
                let lw = legacy.clone();
                ctx.spawn([legacy.exclusive()], move |t| *t.write(&lw) += i);
                let bw = built.clone();
                ctx.task()
                    .exclusive(&built)
                    .priority(prio)
                    .affinity(Affinity::Auto)
                    .spawn(move |t| *t.write(&bw) += i);
            }
        });
        assert_eq!(*legacy.get(), *built.get(), "priority {prio:?}");
        assert_eq!(*built.get(), 1 + (0..50).sum::<u64>());
    }
}

/// The builder's fork-join terminator behaves like `Ctx::join`.
#[test]
fn builder_join_runs_both_branches() {
    let rt = Runtime::new(2);
    let (a, b) = rt.scope(|ctx| ctx.task().priority(Priority::High).join(|_| 6u64, |_| 7u64));
    assert_eq!(a * b, 42);
}

/// On a single worker with a centralized (insertion-time) queue, ready
/// tasks are published eagerly at spawn and drained at sync — so the
/// execution order is exactly the banded pop order: every high-band task
/// before every normal one before every low one, FIFO within a band.
#[test]
fn high_band_drains_before_low_on_a_single_worker() {
    let queues: Vec<(&str, Arc<dyn TaskQueue>)> = vec![
        ("central-omp", Arc::new(OmpCentralQueue::new())),
        ("central-quark", Arc::new(QuarkCentralQueue::new())),
    ];
    for (name, queue) in queues {
        let rt = Runtime::builder().workers(1).task_queue(queue).build();
        let order: Mutex<Vec<(Priority, u64)>> = Mutex::new(Vec::new());
        rt.scope(|ctx| {
            let order = &order;
            // Spawn interleaved: low, normal, high, low, normal, high, …
            for i in 0..8u64 {
                for prio in [Priority::Low, Priority::Normal, Priority::High] {
                    ctx.task().priority(prio).spawn(move |_| {
                        order.lock().unwrap().push((prio, i));
                    });
                }
            }
        });
        let order = order.into_inner().unwrap();
        assert_eq!(order.len(), 24, "{name}");
        let expect: Vec<(Priority, u64)> = Priority::ALL
            .iter()
            .flat_map(|&p| (0..8u64).map(move |i| (p, i)))
            .collect();
        assert_eq!(
            order, expect,
            "{name}: bands must drain high→normal→low, FIFO within a band"
        );
    }
}

/// Root jobs queued while the only worker is busy drain band-major from
/// the inject lanes: high before normal before low, regardless of
/// submission order.
#[test]
fn inject_lanes_drain_high_band_first() {
    let rt = Runtime::builder().workers(1).build();
    let gate = Arc::new(AtomicBool::new(false));
    let g = Arc::clone(&gate);
    let busy = rt
        .submit(move |_| {
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
    let order: Arc<Mutex<Vec<Priority>>> = Arc::new(Mutex::new(Vec::new()));
    let handles: Vec<_> = [Priority::Low, Priority::Normal, Priority::High]
        .into_iter()
        .map(|p| {
            let order = Arc::clone(&order);
            rt.task()
                .priority(p)
                .submit(move |_| order.lock().unwrap().push(p))
                .unwrap()
        })
        .collect();
    gate.store(true, Ordering::Release);
    busy.wait();
    for h in handles {
        h.wait();
    }
    assert_eq!(
        *order.lock().unwrap(),
        vec![Priority::High, Priority::Normal, Priority::Low]
    );
}

/// Per-priority admission: at the cap, low is shed while headroom remains
/// for high and normal — a high job is never rejected before a low one.
#[test]
fn low_priority_is_shed_before_high_at_the_cap() {
    let rt = Runtime::builder()
        .workers(1)
        .inject_policy(InjectPolicy {
            max_pending: 4,
            on_full: OnFull::Reject,
        })
        .build();
    let gate = Arc::new(AtomicBool::new(false));
    let g = Arc::clone(&gate);
    let busy = rt
        .submit(move |_| {
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
    // Two pending normal jobs reach the low band's limit (max_pending/2).
    let f1 = rt.submit(|_| 1u64).unwrap();
    let f2 = rt.submit(|_| 2u64).unwrap();
    assert!(
        rt.task().priority(Priority::Low).submit(|_| 0u64).is_err(),
        "low band must shed at half the cap"
    );
    // High and normal still admit up to the full cap…
    let f3 = rt.task().priority(Priority::High).submit(|_| 3u64).unwrap();
    let f4 = rt.submit(|_| 4u64).unwrap();
    // …then everyone is capped (high is never shed *before* low).
    assert!(rt.task().priority(Priority::High).submit(|_| 0u64).is_err());
    assert!(rt.submit(|_| 0u64).is_err());
    assert!(rt.task().priority(Priority::Low).submit(|_| 0u64).is_err());
    assert_eq!(rt.stats().jobs_rejected, 4);
    gate.store(true, Ordering::Release);
    busy.wait();
    assert_eq!(
        f1.wait() + f2.wait() + f3.wait() + f4.wait(),
        10,
        "admitted jobs all run"
    );
}

/// `Affinity::Auto` submits land in the inject lane of the node owning
/// the declared data — and are therefore drained from that lane (jobs
/// never migrate between lanes), the ≥ 80 % acceptance property.
#[test]
fn auto_affinity_lands_submits_on_the_data_owning_lane() {
    let workers = 4;
    let rt = Runtime::builder()
        .workers(workers)
        .topology(Topology::two_level(workers, 2))
        .build();
    assert_eq!(rt.inject_lane_count(), 2);
    let h = Shared::new(vec![0u64; 64]);
    h.set_home(1);
    assert_eq!(h.home_node(), Some(1));
    let jobs = 200u64;
    let handles: Vec<_> = (0..jobs)
        .map(|i| {
            rt.task()
                .reads(&h)
                .affinity(Affinity::Auto)
                .submit(move |_| i)
                .unwrap()
        })
        .collect();
    let total: u64 = handles.into_iter().map(|h| h.wait()).sum();
    assert_eq!(total, (0..jobs).sum::<u64>());
    let lanes = rt.inject_lane_stats();
    assert_eq!(
        lanes[1].submitted, jobs,
        "every Auto submit must target the data-owning lane"
    );
    assert_eq!(lanes[1].drained, jobs);
    let owning_share = lanes[1].drained as f64 / jobs as f64;
    assert!(owning_share >= 0.8, "acceptance floor: {owning_share}");

    // Explicit Affinity::Node targets directly; a nonexistent node falls
    // back to the submitter hash (never panics, never loses the job).
    rt.task()
        .affinity(Affinity::Node(0))
        .submit(|_| ())
        .unwrap()
        .wait();
    assert_eq!(rt.inject_lane_stats()[0].submitted, 1);
    rt.task()
        .affinity(Affinity::Node(99))
        .submit(|_| ())
        .unwrap()
        .wait();
    let after: u64 = rt.inject_lane_stats().iter().map(|l| l.submitted).sum();
    assert_eq!(after, jobs + 2);
}

/// First-touch: the first task-side write through a handle records the
/// writing worker's node as the handle's home, and later `Affinity::Auto`
/// accesses carry it.
#[test]
fn first_touch_records_the_home_node() {
    let rt = Runtime::builder()
        .workers(2)
        .topology(Topology::two_level(2, 2))
        .build();
    let h = Shared::new(0u64);
    assert_eq!(h.home_node(), None);
    rt.scope(|ctx| {
        let hw = h.clone();
        ctx.spawn([h.write()], move |t| *t.write(&hw) = 7);
    });
    // Both workers sit on node 0 of this 1-node-of-2 topology.
    assert_eq!(h.home_node(), Some(0));
    // Explicit homes win over later first-touches.
    h.set_home(0);
    rt.scope(|ctx| {
        let hw = h.clone();
        ctx.spawn([h.exclusive()], move |t| *t.write(&hw) += 1);
    });
    assert_eq!(h.home_node(), Some(0));
    assert_eq!(*h.get(), 8);
}

/// `JobBuilder::detach` is fire-and-forget: the job runs without a handle.
#[test]
fn detach_runs_to_completion() {
    let rt = Runtime::new(2);
    let flag = Arc::new(AtomicBool::new(false));
    let f = Arc::clone(&flag);
    rt.task()
        .priority(Priority::High)
        .detach(move |_| f.store(true, Ordering::Release))
        .unwrap();
    wait_until(20, "detached job to run", || flag.load(Ordering::Acquire));
}

/// PR 6 equivalence suite for the monomorphized spawn lowering: the
/// defaulted builder path (`#[inline]`, no attribute plumbing) and the
/// attributed slow path (`#[cold]`, banded structures activated) must
/// produce identical checksums and task counts on the same program,
/// across the queue policies × aggregation on/off. The per-run
/// `tasks_with_attrs` counter proves which lowering actually ran: exactly
/// zero on the defaulted path, every spawn on the attributed one.
#[test]
fn default_and_attributed_lowering_agree_everywhere() {
    const CHAIN: u64 = 40;
    const WIDE: u64 = 40;

    // Deterministic mixed workload: an exclusive chain (order-dependent
    // arithmetic), a wide independent layer, and nested joins. Returns a
    // schedule-independent checksum.
    fn workload(rt: &Runtime, attributed: bool) -> u64 {
        let cell = Shared::new(1u64);
        let wide: Vec<Shared<u64>> = (0..WIDE).map(|_| Shared::new(0)).collect();
        rt.scope(|ctx| {
            for i in 0..CHAIN {
                let cw = cell.clone();
                let b = ctx.task().exclusive(&cell);
                let b = if attributed {
                    b.priority(if i % 2 == 0 {
                        Priority::High
                    } else {
                        Priority::Low
                    })
                    .affinity(Affinity::Auto)
                } else {
                    b
                };
                b.spawn(move |t| {
                    let mut r = t.write(&cw);
                    *r = (*r).wrapping_mul(3).wrapping_add(i);
                });
            }
            for (i, w) in wide.iter().enumerate() {
                let ww = w.clone();
                let b = ctx.task().writes(w);
                let b = if attributed {
                    b.priority(Priority::High)
                } else {
                    b
                };
                b.spawn(move |t| *t.write(&ww) = (i as u64 + 2).wrapping_mul(7));
            }
        });
        let joins = rt.scope(|ctx| {
            if attributed {
                let (a, (b, c)) = ctx
                    .task()
                    .priority(Priority::High)
                    .join(|c| fibj(c, 10), |c| c.join(|c| fibj(c, 9), |c| fibj(c, 8)));
                a + b + c
            } else {
                let (a, (b, c)) =
                    ctx.join(|c| fibj(c, 10), |c| c.join(|c| fibj(c, 9), |c| fibj(c, 8)));
                a + b + c
            }
        });
        let wide_sum = wide.iter().map(|w| *w.get()).fold(0u64, u64::wrapping_add);
        cell.get()
            .wrapping_mul(31)
            .wrapping_add(wide_sum)
            .wrapping_add(joins)
    }

    fn fibj(c: &mut xkaapi::core::Ctx<'_>, n: u64) -> u64 {
        if n < 2 {
            n
        } else {
            let (a, b) = c.join(|c| fibj(c, n - 1), |c| fibj(c, n - 2));
            a + b
        }
    }

    let mk_queues = || -> Vec<(&'static str, Option<Arc<dyn TaskQueue>>)> {
        vec![
            ("distributed", None),
            ("central-omp", Some(Arc::new(OmpCentralQueue::new()))),
            ("central-quark", Some(Arc::new(QuarkCentralQueue::new()))),
        ]
    };

    let mut reference = None;
    for (qname, queue) in mk_queues() {
        for aggregation in [true, false] {
            let queue = queue.clone();
            let build = |q: Option<Arc<dyn TaskQueue>>| {
                let steal: Arc<dyn StealPolicy> = if aggregation {
                    Arc::new(AggregatedStealing)
                } else {
                    Arc::new(PerThiefStealing)
                };
                let mut b = Runtime::builder().workers(3).steal_policy(steal);
                if let Some(q) = q {
                    b = b.task_queue(q);
                }
                b.build()
            };
            let tag = format!("{qname}/agg={aggregation}");

            let rt = build(queue.clone());
            let fast = workload(&rt, false);
            assert_eq!(
                rt.stats().tasks_with_attrs,
                0,
                "[{tag}] defaulted spawns must never take the attributed path"
            );
            drop(rt);

            let rt = build(queue);
            let slow = workload(&rt, true);
            assert!(
                rt.stats().tasks_with_attrs >= CHAIN + WIDE,
                "[{tag}] every attributed spawn must be counted, got {}",
                rt.stats().tasks_with_attrs
            );

            assert_eq!(fast, slow, "[{tag}] lowerings disagree");
            match reference {
                None => reference = Some(fast),
                Some(r) => assert_eq!(r, fast, "[{tag}] checksum differs across policies"),
            }
        }
    }
}
