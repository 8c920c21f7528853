//! Runtime-level tests: whole-scheduler behaviours with real threads.

use crate::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn rt(n: usize) -> Runtime {
    Runtime::new(n)
}

#[test]
fn scope_returns_value() {
    let rt = rt(2);
    let v = rt.scope(|_| 41 + 1);
    assert_eq!(v, 42);
}

#[test]
fn spawn_runs_every_task() {
    let rt = rt(4);
    let count = AtomicUsize::new(0);
    rt.scope(|ctx| {
        for _ in 0..100 {
            ctx.spawn([], |_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        }
    });
    assert_eq!(count.load(Ordering::Relaxed), 100);
}

#[test]
fn single_worker_runs_fifo() {
    let rt = rt(1);
    let order = parking_lot::Mutex::new(Vec::new());
    rt.scope(|ctx| {
        for i in 0..10 {
            ctx.spawn([], move |_| {}); // keep spawn cheap
            order.lock().push(i);
        }
    });
    assert_eq!(*order.lock(), (0..10).collect::<Vec<_>>());
}

#[test]
fn dataflow_raw_dependency_ordering() {
    let rt = rt(4);
    for _ in 0..50 {
        let h = Shared::new(Vec::<u32>::new());
        rt.scope(|ctx| {
            for i in 0..8u32 {
                let hw = h.clone();
                ctx.spawn([h.exclusive()], move |t| t.write(&hw).push(i));
            }
        });
        // exclusive accesses serialize in program order
        assert_eq!(*h.get(), (0..8).collect::<Vec<_>>());
    }
}

#[test]
fn dataflow_readers_see_writer_value() {
    let rt = rt(4);
    for _ in 0..50 {
        let h = Shared::new(0u64);
        let sum = Arc::new(AtomicUsize::new(0));
        rt.scope(|ctx| {
            let hw = h.clone();
            ctx.spawn([h.write()], move |t| *t.write(&hw) = 7);
            for _ in 0..6 {
                let hr = h.clone();
                let s = Arc::clone(&sum);
                ctx.spawn([h.read()], move |t| {
                    s.fetch_add(*t.read(&hr) as usize, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), 42);
    }
}

#[test]
fn sequential_semantics_chain() {
    // x = 1; y = x + 1; x = y * 2; z = x + y  — all through handles.
    let rt = rt(4);
    for _ in 0..30 {
        let x = Shared::new(0i64);
        let y = Shared::new(0i64);
        let z = Shared::new(0i64);
        rt.scope(|ctx| {
            let (x1, x2, x3, x4) = (x.clone(), x.clone(), x.clone(), x.clone());
            let (y1, y2, y3) = (y.clone(), y.clone(), y.clone());
            let z1 = z.clone();
            ctx.spawn([x.write()], move |t| *t.write(&x1) = 1);
            ctx.spawn([x.read(), y.write()], move |t| {
                *t.write(&y1) = *t.read(&x2) + 1;
            });
            ctx.spawn([y.read(), x.exclusive()], move |t| {
                let v = *t.read(&y2) * 2;
                *t.write(&x3) = v;
            });
            ctx.spawn([x.read(), y.read(), z.write()], move |t| {
                *t.write(&z1) = *t.read(&x4) + *t.read(&y3);
            });
        });
        assert_eq!(*z.get(), 4 + 2);
    }
}

#[test]
fn nested_tasks_recursive_creation() {
    // Recursive task creation — the capability the paper contrasts against
    // QUARK/StarPU/SMPSs (which only allow a flat task graph).
    let rt = rt(4);
    fn rec(ctx: &mut Ctx<'_>, depth: usize, count: &AtomicUsize) {
        count.fetch_add(1, Ordering::Relaxed);
        if depth == 0 {
            return;
        }
        // plain references survive: nested scope syncs before returning
        ctx.scope(|c| {
            c.spawn([], move |c2| rec(c2, depth - 1, count));
            c.spawn([], move |c2| rec(c2, depth - 1, count));
        });
    }
    let count = AtomicUsize::new(0);
    rt.scope(|ctx| rec(ctx, 6, &count));
    assert_eq!(count.load(Ordering::Relaxed), (1 << 7) - 1);
}

#[test]
fn join_computes_fib() {
    let rt = rt(4);
    fn fib(ctx: &mut Ctx<'_>, n: u64) -> u64 {
        if n < 2 {
            return n;
        }
        let (a, b) = ctx.join(|c| fib(c, n - 1), |c| fib(c, n - 2));
        a + b
    }
    let v = rt.scope(|ctx| fib(ctx, 20));
    assert_eq!(v, 6765);
}

/// Contexts borrow the runtime (`DESIGN.md` §6, "What a join may touch"):
/// no level of a join tree takes a reference on the runtime's `Arc`, so
/// the count read in every leaf equals the count read at scope entry.
#[test]
fn join_tree_takes_no_runtime_reference() {
    let rt = rt(1);
    fn refs(ctx: &Ctx<'_>) -> usize {
        Arc::strong_count(&*ctx.as_raw().rt)
    }
    fn fib(ctx: &mut Ctx<'_>, n: u64, entry: usize, leaves: &AtomicUsize) -> u64 {
        if n < 2 {
            assert_eq!(
                refs(ctx),
                entry,
                "a join-tree leaf holds runtime references"
            );
            leaves.fetch_add(1, Ordering::Relaxed);
            return n;
        }
        let (a, b) = ctx.join(
            |c| fib(c, n - 1, entry, leaves),
            |c| fib(c, n - 2, entry, leaves),
        );
        a + b
    }
    let leaves = AtomicUsize::new(0);
    let v = rt.scope(|ctx| {
        let entry = refs(ctx);
        fib(ctx, 12, entry, &leaves)
    });
    assert_eq!(v, 144);
    assert_eq!(
        leaves.load(Ordering::Relaxed),
        233,
        "every leaf was checked"
    );
}

#[test]
fn join_borrows_locals() {
    let rt = rt(2);
    let data = vec![1u64, 2, 3];
    let (a, b) = rt.scope(|ctx| {
        let r = &data;
        ctx.join(|_| r.iter().sum::<u64>(), |_| r.len() as u64)
    });
    assert_eq!((a, b), (6, 3));
}

/// The forked branch of a join runs under the joining task: a declared
/// exclusive access is granted there too.
#[test]
fn join_branch_writes_under_the_joining_task() {
    let rt = rt(2);
    let h = Shared::new(0u64);
    rt.scope(|ctx| {
        let (a, b) = (h.clone(), h.clone());
        ctx.spawn([h.exclusive()], move |t| {
            t.join(|_| (), |c| *c.write(&a) += 7);
            *t.write(&b) *= 6;
        });
    });
    assert_eq!(*h.get(), 42);
}

/// A renamed write made in the forked branch lands in the task's renamed
/// version slot, where the next reader looks, not in the committed one.
#[test]
fn join_branch_writes_the_renamed_slot() {
    let rt = rt(2);
    let h = Shared::renameable(0u64);
    let out = Shared::new(0u64);
    rt.scope(|ctx| {
        let (w1, w2, r, o) = (h.clone(), h.clone(), h.clone(), out.clone());
        ctx.spawn([h.write()], move |t| *t.write(&w1) = 1);
        ctx.spawn([h.read()], |_| {});
        // Write-only after a reader: renamed to a fresh slot.
        ctx.spawn([h.write()], move |t| {
            t.join(|_| (), |c| *c.write(&w2) = 42);
        });
        ctx.spawn([h.read(), out.exclusive()], move |t| {
            *t.write(&o) = *t.read(&r);
        });
    });
    assert!(rt.stats().renames >= 1, "the second write was renamed");
    assert_eq!(*out.get(), 42, "the reader saw the branch's write");
    assert_eq!(*h.get(), 42, "the renamed version committed");
}

/// The forked branch of a join inside a cancelled cone sees the
/// cancellation, and what it spawns inherits the token.
#[test]
fn join_branch_stays_in_the_cancelled_cone() {
    let rt = rt(2);
    let token = CancelToken::new();
    let seen = std::sync::atomic::AtomicBool::new(false);
    let ran = AtomicUsize::new(0);
    rt.scope(|ctx| {
        let (token, seen, ran) = (&token, &seen, &ran);
        ctx.task().cancel_token(token).spawn(move |t| {
            token.cancel();
            t.join(
                |_| (),
                |c| {
                    seen.store(c.is_cancelled(), Ordering::Relaxed);
                    c.spawn([], |_| {
                        ran.fetch_add(1, Ordering::Relaxed);
                    });
                },
            );
        });
    });
    assert!(
        seen.load(Ordering::Relaxed),
        "the branch saw the cancellation"
    );
    assert_eq!(ran.load(Ordering::Relaxed), 0, "its spawn was skipped");
}

/// A recorded body that joins replays: its forked branch is a replay
/// context too, so its data accesses are not re-checked.
#[test]
fn join_branch_of_a_recorded_body_replays() {
    let rt = rt(2);
    let h = Shared::new(0u64);
    let dag = rt.record(|rec| {
        let h1 = h.clone();
        rec.spawn([h.exclusive()], move |t| {
            t.join(|_| (), |c| *c.write(&h1) += 1);
        });
    });
    dag.replay(&rt);
    dag.replay(&rt);
    assert_eq!(*h.get(), 2);
}

#[test]
fn sync_then_more_tasks() {
    let rt = rt(4);
    let h = Shared::new(0u64);
    rt.scope(|ctx| {
        let h1 = h.clone();
        ctx.spawn([h.write()], move |t| *t.write(&h1) = 5);
        ctx.sync();
        let h2 = h.clone();
        ctx.spawn([h.exclusive()], move |t| *t.write(&h2) *= 3);
    });
    assert_eq!(*h.get(), 15);
}

#[test]
fn reduction_cumulative_writes() {
    let rt = rt(4);
    let red = Reduction::with_slots(0u64, 4, || 0u64, |a, b| *a += b);
    let out = Shared::new(0u64);
    rt.scope(|ctx| {
        for i in 1..=100u64 {
            let r = red.clone();
            ctx.spawn([red.cumul()], move |t| t.fold(&r, |acc| *acc += i));
        }
        let (r, o) = (red.clone(), out.clone());
        ctx.spawn([red.read(), out.write()], move |t| {
            *t.write(&o) = *t.read_reduced(&r);
        });
    });
    assert_eq!(*out.get(), 5050);
}

#[test]
fn foreach_covers_all_indices() {
    let rt = rt(4);
    for n in [0usize, 1, 7, 100, 10_000] {
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        rt.foreach(0..n, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1), "n={n}");
    }
}

#[test]
fn foreach_chunks_partition() {
    let rt = rt(3);
    let total = AtomicUsize::new(0);
    rt.foreach_chunks(0..1000, Some(64), |r| {
        total.fetch_add(r.len(), Ordering::Relaxed);
    });
    assert_eq!(total.load(Ordering::Relaxed), 1000);
}

#[test]
fn foreach_reduce_sum() {
    let rt = rt(4);
    let s = rt.foreach_reduce(
        0..100_000,
        None,
        || 0u64,
        |a, i| *a += i as u64,
        |a, b| a + b,
    );
    assert_eq!(s, 100_000u64 * 99_999 / 2);
}

#[test]
fn foreach_inside_task() {
    let rt = rt(4);
    let n = 5000;
    let v = rt.scope(|ctx| {
        ctx.foreach_reduce(0..n, None, &|| 0u64, &|a, i| *a += i as u64, &|a, b| a + b)
    });
    assert_eq!(v, (n as u64 - 1) * n as u64 / 2);
}

#[test]
fn task_panic_propagates_after_siblings() {
    let rt = rt(4);
    let done = Arc::new(AtomicUsize::new(0));
    let d2 = Arc::clone(&done);
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rt.scope(|ctx| {
            let d = Arc::clone(&d2);
            ctx.spawn([], move |_| {
                d.fetch_add(1, Ordering::Relaxed);
            });
            ctx.spawn([], |_| panic!("boom"));
            let d = Arc::clone(&d2);
            ctx.spawn([], move |_| {
                d.fetch_add(1, Ordering::Relaxed);
            });
        });
    }));
    assert!(r.is_err());
    assert_eq!(done.load(Ordering::Relaxed), 2, "siblings still ran");
}

#[test]
fn foreach_body_panic_propagates() {
    let rt = rt(4);
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rt.foreach(0..1000, |i| {
            if i == 500 {
                panic!("loop boom");
            }
        });
    }));
    assert!(r.is_err());
    // runtime still usable
    let s = rt.foreach_reduce(0..10, None, || 0usize, |a, _| *a += 1, |a, b| a + b);
    assert_eq!(s, 10);
}

#[test]
fn scope_body_panic_waits_children() {
    let rt = rt(4);
    let done = Arc::new(AtomicUsize::new(0));
    let d2 = Arc::clone(&done);
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rt.scope(move |ctx| {
            for _ in 0..10 {
                let d = Arc::clone(&d2);
                ctx.spawn([], move |_| {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    d.fetch_add(1, Ordering::Relaxed);
                });
            }
            panic!("scope body boom");
        });
    }));
    assert!(r.is_err());
    assert_eq!(done.load(Ordering::Relaxed), 10);
}

#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "was not declared by this task")]
fn reading_an_undeclared_handle_panics() {
    let rt = rt(1);
    let (a, b) = (Shared::new(0u64), Shared::new(0u64));
    rt.scope(|ctx| {
        let (aw, br) = (a.clone(), b.clone());
        ctx.spawn([a.write()], move |t| *t.write(&aw) = *t.read(&br));
    });
}

#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "was not declared by this task")]
fn writing_a_read_only_handle_panics() {
    let rt = rt(1);
    let h = Shared::new(0u64);
    rt.scope(|ctx| {
        let hw = h.clone();
        ctx.spawn([h.read()], move |t| *t.write(&hw) = 1);
    });
}

#[test]
fn stats_count_tasks() {
    let rt = rt(2);
    rt.reset_stats();
    rt.scope(|ctx| {
        for _ in 0..50 {
            ctx.spawn([], |_| {});
        }
    });
    let s = rt.stats();
    assert_eq!(s.tasks_spawned, 50);
    assert_eq!(s.tasks_executed(), 50);
}

#[test]
fn stealing_happens_under_load() {
    // On a heavily time-sliced host the owner can drain small task sets
    // before any thief wakes; retry with long-enough tasks until a steal
    // is observed (it must eventually be, with 4 workers and 1 ms tasks).
    let rt = rt(4);
    for round in 0..10 {
        rt.reset_stats();
        rt.scope(|ctx| {
            for _ in 0..64 {
                ctx.spawn([], |_| {
                    std::thread::sleep(std::time::Duration::from_micros(500));
                });
            }
        });
        let s = rt.stats();
        assert_eq!(s.tasks_executed(), 64);
        if s.tasks_executed_stolen > 0 {
            return;
        }
        eprintln!("round {round}: no steals yet ({s:?})");
    }
    panic!("no steals observed in 10 rounds");
}

#[test]
fn promotion_triggers_on_wide_dataflow() {
    // Timing-sensitive on a single-core host: retry until a thief scan
    // actually promoted the frame (tasks sleep so the owner cannot drain
    // the frame before thieves wake).
    let rt = Runtime::builder().workers(4).build();
    for round in 0..10 {
        rt.reset_stats();
        let handles: Vec<Shared<u64>> = (0..64).map(|_| Shared::new(0)).collect();
        rt.scope(|ctx| {
            for h in &handles {
                let hw = h.clone();
                ctx.spawn([h.write()], move |t| {
                    *t.write(&hw) += 1;
                    std::thread::sleep(std::time::Duration::from_micros(300));
                });
            }
        });
        assert!(handles.iter().all(|h| *h.get() == 1));
        let s = rt.stats();
        if s.promotions >= 1 {
            return;
        }
        eprintln!("round {round}: no promotion yet ({s:?})");
    }
    panic!("no promotion observed in 10 rounds");
}

#[test]
fn multiple_scopes_sequential() {
    let rt = rt(3);
    for round in 0..20 {
        let h = Shared::new(round);
        rt.scope(|ctx| {
            let hw = h.clone();
            ctx.spawn([h.exclusive()], move |t| *t.write(&hw) += 1);
        });
        assert_eq!(*h.get(), round + 1);
    }
}

#[test]
fn concurrent_external_scopes() {
    let rt = Arc::new(rt(4));
    let mut handles = Vec::new();
    for t in 0..4 {
        let rt = Arc::clone(&rt);
        handles.push(std::thread::spawn(move || {
            rt.foreach_reduce(
                0..10_000,
                None,
                || 0u64,
                |a, i| *a += (i + t) as u64,
                |a, b| a + b,
            )
        }));
    }
    for (t, h) in handles.into_iter().enumerate() {
        let expected: u64 = (0..10_000u64).map(|i| i + t as u64).sum();
        assert_eq!(h.join().unwrap(), expected);
    }
}

#[test]
fn independent_writers_parallel_disjoint_handles() {
    let rt = rt(4);
    let handles: Vec<Shared<u64>> = (0..32).map(|_| Shared::new(0)).collect();
    rt.scope(|ctx| {
        for (i, h) in handles.iter().enumerate() {
            let hw = h.clone();
            ctx.spawn([h.write()], move |t| *t.write(&hw) = i as u64);
        }
    });
    for (i, h) in handles.iter().enumerate() {
        assert_eq!(*h.get(), i as u64);
    }
}

#[test]
fn partitioned_keyed_tiles() {
    // Two writers on disjoint tiles run unordered; a reader of both tiles
    // runs after both. Uses the raw Partitioned API the way linalg does.
    let rt = rt(4);
    let p = Partitioned::new(vec![0u64; 2]);
    let done = Arc::new(AtomicUsize::new(0));
    rt.scope(|ctx| {
        for i in 0..2usize {
            let ph = p.clone();
            ctx.spawn(
                [p.access(Region::key2(i, 0), AccessMode::Write)],
                move |_| {
                    // Safety: disjoint keyed regions, serialized with the reader.
                    unsafe { (&mut *ph.view())[i] = (i + 1) as u64 }
                },
            );
        }
        let ph = p.clone();
        let d = Arc::clone(&done);
        ctx.spawn(
            [
                p.access(Region::key2(0, 0), AccessMode::Read),
                p.access(Region::key2(1, 0), AccessMode::Read),
            ],
            move |_| {
                // SAFETY: the read access orders this task after the writers.
                let v = unsafe { &*ph.view() };
                assert_eq!(v, &vec![1, 2]);
                d.fetch_add(1, Ordering::Relaxed);
            },
        );
    });
    assert_eq!(done.load(Ordering::Relaxed), 1);
}

#[test]
fn aggregation_can_be_disabled() {
    let rt = Runtime::builder()
        .workers(4)
        .steal(Steal::PER_THIEF)
        .build();
    assert_eq!(rt.steal(), Steal::PER_THIEF);
    let s = rt.foreach_reduce(
        0..50_000,
        Some(16),
        || 0u64,
        |a, i| *a += i as u64,
        |a, b| a + b,
    );
    assert_eq!(s, 50_000u64 * 49_999 / 2);
}

#[test]
fn deep_recursion_fib_dataflow_style() {
    // The paper's Fig. 1 program shape: task + inline call + sync, with a
    // write-mode declared result, here at small n.
    let rt = rt(4);
    fn fib(ctx: &mut Ctx<'_>, n: u64) -> u64 {
        if n < 2 {
            return n;
        }
        let r1 = Shared::new(0u64);
        let r1c = r1.clone();
        ctx.scope(|c| {
            c.spawn([r1c.write()], move |t| {
                let v = fib_inner(t, 0);
                let _ = v;
                let n1 = n - 1;
                let mut w = t.write(&r1c);
                *w = 0; // placeholder; recompute below
                drop(w);
                let v = fib_rec(t, n1);
                *t.write(&r1c) = v;
            });
        });
        fn fib_inner(_: &mut Ctx<'_>, v: u64) -> u64 {
            v
        }
        fn fib_rec(ctx: &mut Ctx<'_>, n: u64) -> u64 {
            if n < 2 {
                n
            } else {
                let (a, b) = ctx.join(|c| fib_rec(c, n - 1), |c| fib_rec(c, n - 2));
                a + b
            }
        }
        let r2 = fib_rec(ctx, n - 2);
        *r1.get() + r2
    }
    let v = rt.scope(|ctx| fib(ctx, 15));
    assert_eq!(v, 610);
}

#[test]
fn range_regions_partition_a_vector() {
    // Disjoint 1-D ranges of one handle run unordered; an overlapping
    // reader is ordered after both writers.
    use crate::{AccessMode, Region};
    let rt = rt(4);
    let p = Partitioned::new(vec![0u32; 100]);
    let done = Arc::new(AtomicUsize::new(0));
    rt.scope(|ctx| {
        for (start, end) in [(0usize, 50usize), (50, 100)] {
            let ph = p.clone();
            ctx.spawn(
                [p.access(Region::Range { start, end }, AccessMode::Write)],
                move |_| {
                    // Safety: disjoint declared ranges.
                    let v = unsafe { &mut *ph.view() };
                    for x in &mut v[start..end] {
                        *x = 7;
                    }
                },
            );
        }
        let ph = p.clone();
        let d = Arc::clone(&done);
        ctx.spawn(
            [p.access(Region::Range { start: 25, end: 75 }, AccessMode::Read)],
            move |_| {
                // SAFETY: the read access orders this task after the writers.
                let v = unsafe { &*ph.view() };
                assert!(v[25..75].iter().all(|&x| x == 7), "reader saw both writers");
                d.fetch_add(1, Ordering::Relaxed);
            },
        );
    });
    assert_eq!(done.load(Ordering::Relaxed), 1);
    assert!(p.into_inner().iter().all(|&x| x == 7));
}

#[test]
fn foreach_worker_chunks_reports_valid_worker() {
    let rt = rt(3);
    let seen = parking_lot::Mutex::new(std::collections::HashSet::new());
    rt.scope(|ctx| {
        ctx.foreach_worker_chunks(0..5_000, Some(64), &|r, w| {
            assert!(w < 3);
            assert!(!r.is_empty());
            seen.lock().insert(w);
        });
    });
    assert!(!seen.lock().is_empty());
}

#[test]
fn join_panic_in_continuation_still_retires_fork() {
    // fa panics; fb (which borrows join's stack) must still complete
    // before the unwind propagates.
    let rt = rt(4);
    let fork_ran = Arc::new(AtomicUsize::new(0));
    let f2 = Arc::clone(&fork_ran);
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rt.scope(|ctx| {
            ctx.join(
                |_| -> () { panic!("continuation boom") },
                move |_| {
                    f2.fetch_add(1, Ordering::Relaxed);
                },
            )
        });
    }));
    assert!(r.is_err());
    assert_eq!(fork_ran.load(Ordering::Relaxed), 1);
}

#[test]
fn deeply_nested_scopes() {
    let rt = rt(2);
    fn nest(ctx: &mut Ctx<'_>, depth: usize) -> usize {
        if depth == 0 {
            return 1;
        }
        ctx.scope(|c| nest(c, depth - 1)) + 1
    }
    let d = rt.scope(|ctx| nest(ctx, 64));
    assert_eq!(d, 65);
}

#[test]
fn builder_exposes_tunables() {
    let rt = Runtime::builder()
        .workers(2)
        .steal(Steal::PER_THIEF)
        .stack_size(4 << 20)
        .max_pending(2)
        .build();
    assert_eq!(rt.steal(), Steal::PER_THIEF);
    let t = rt.tunables();
    assert_eq!(t.inject.max_pending, 2);
    assert_eq!(rt.num_workers(), 2);
    // still functional
    assert_eq!(rt.scope(|ctx| ctx.join(|_| 1, |_| 2)), (1, 2));
    let s = rt.foreach_reduce(0..1000, None, || 0u64, |a, i| *a += i as u64, |a, b| a + b);
    assert_eq!(s, 499_500);
    // Admission holds at most two pending jobs, so these submits are
    // throttled (`OnFull::Block`).
    let handles: Vec<_> = (0..16u64)
        .map(|i| {
            rt.submit(move |_| i * i)
                .expect("Block admission never rejects")
        })
        .collect();
    let sum: u64 = handles.into_iter().map(|h| h.wait()).sum();
    assert_eq!(sum, (0..16u64).map(|i| i * i).sum::<u64>());

    let plain = Runtime::builder().workers(1).build();
    assert_eq!(
        plain.steal(),
        Steal::AGGREGATED,
        "flat combining is the default protocol"
    );
    let t = plain.tunables();
    assert_eq!(t.inject.max_pending, 4096);
}

#[test]
fn reduction_reused_across_scopes() {
    let rt = rt(3);
    let red = Reduction::with_slots(0u64, 3, || 0, |a, b| *a += b);
    for round in 1..=3u64 {
        rt.scope(|ctx| {
            for _ in 0..10 {
                let r = red.clone();
                ctx.spawn([red.cumul()], move |t| t.fold(&r, |acc| *acc += round));
            }
        });
        // quiescent merge between scopes
        assert_eq!(*red.get(), (1..=round).map(|r| r * 10).sum::<u64>());
    }
}

#[test]
fn renaming_preserves_final_value() {
    // Repeated whole-object overwrites on a renameable handle: renaming
    // eliminates the WAR/WAW chain, yet the last write must win.
    for workers in [1, 4] {
        let rt = Runtime::new(workers);
        rt.reset_stats();
        let h = Shared::renameable(0u64);
        rt.scope(|ctx| {
            for i in 0..40u64 {
                let hw = h.clone();
                ctx.spawn([h.write()], move |t| *t.write(&hw) = i);
                let hr = h.clone();
                ctx.spawn([h.read()], move |t| {
                    assert_eq!(*t.read(&hr), i, "reader must see its version");
                });
            }
        });
        assert_eq!(*h.get(), 39);
        assert!(
            rt.stats().renames > 0,
            "war-chain on {workers} workers should rename"
        );
        assert_eq!(h.into_inner(), 39);
    }
}

#[test]
fn renaming_ablation_identical_checksums() {
    // The same program under renaming on/off yields identical results.
    let run = |renaming: bool| -> u64 {
        let rt = Runtime::builder().workers(4).renaming(renaming).build();
        // NB: `renameable_with`, not `renameable` — fresh buffers must have
        // the same shape as the initial value (`Vec::default()` is empty).
        let h = Shared::renameable_with(vec![0u64; 64], || vec![0u64; 64]);
        let sum = Arc::new(AtomicUsize::new(0));
        rt.scope(|ctx| {
            for round in 0..24u64 {
                let hw = h.clone();
                ctx.spawn([h.write()], move |t| {
                    let mut g = t.write(&hw);
                    for (i, x) in g.iter_mut().enumerate() {
                        *x = round * 31 + i as u64;
                    }
                });
                for _ in 0..3 {
                    let hr = h.clone();
                    let s = Arc::clone(&sum);
                    ctx.spawn([h.read()], move |t| {
                        let v: u64 = t.read(&hr).iter().sum();
                        s.fetch_add(v as usize, Ordering::Relaxed);
                    });
                }
            }
        });
        let tail: u64 = h.get().iter().sum();
        sum.load(Ordering::Relaxed) as u64 + tail
    };
    assert_eq!(run(true), run(false));
}

#[test]
fn renaming_mixed_with_exclusive_and_regions() {
    // Exclusive writes interleaved with renamed write-only ones follow the
    // committed slot lineage.
    let rt = rt(4);
    for _ in 0..20 {
        let h = Shared::renameable(0u64);
        rt.scope(|ctx| {
            let h1 = h.clone();
            ctx.spawn([h.write()], move |t| *t.write(&h1) = 10);
            let h2 = h.clone();
            ctx.spawn([h.exclusive()], move |t| *t.write(&h2) += 1);
            let h3 = h.clone();
            ctx.spawn([h.write()], move |t| *t.write(&h3) = 100);
            let h4 = h.clone();
            ctx.spawn([h.exclusive()], move |t| *t.write(&h4) += 5);
        });
        assert_eq!(*h.get(), 105);
    }
}

#[test]
fn renaming_across_scopes_follows_committed_lineage() {
    // Each scope gets a fresh frame (fresh engine): the chain state must be
    // seeded from the handle's committed version, or scope 2 would read
    // stale slot-0 data and its commits would lose the sequence CAS.
    let rt = rt(4);
    let h = Shared::renameable(0u64);
    rt.scope(|ctx| {
        for i in 1..=3u64 {
            let hw = h.clone();
            ctx.spawn([h.write()], move |t| *t.write(&hw) = i);
            let hr = h.clone();
            ctx.spawn([h.read()], move |t| assert_eq!(*t.read(&hr), i));
        }
    });
    assert_eq!(*h.get(), 3);
    // Scope 2: exclusive read-modify-write must see scope 1's result.
    rt.scope(|ctx| {
        let hw = h.clone();
        ctx.spawn([h.exclusive()], move |t| *t.write(&hw) += 10);
    });
    assert_eq!(*h.get(), 13);
    // Scope 3: renamed writes must commit over scope 1's sequence numbers.
    rt.scope(|ctx| {
        for i in [100u64, 101] {
            let hw = h.clone();
            ctx.spawn([h.write()], move |t| *t.write(&hw) = i);
            let hr = h.clone();
            ctx.spawn([h.read()], move |t| assert_eq!(*t.read(&hr), i));
        }
    });
    assert_eq!(*h.get(), 101);
    // Many more scopes: lineage stays coherent indefinitely.
    for round in 0..20u64 {
        rt.scope(|ctx| {
            let hw = h.clone();
            ctx.spawn([h.write()], move |t| *t.write(&hw) = round);
            let hw2 = h.clone();
            ctx.spawn([h.write()], move |t| *t.write(&hw2) = round + 1000);
        });
        assert_eq!(*h.get(), round + 1000, "scope round {round}");
    }
    assert_eq!(h.into_inner(), 19 + 1000);
}

#[test]
fn partitioned_renameable_whole_object_writes() {
    let rt = rt(4);
    let p = Partitioned::renameable_with(vec![0u64; 8], || vec![0u64; 8]);
    let sum = Arc::new(AtomicUsize::new(0));
    rt.scope(|ctx| {
        for round in 1..=10u64 {
            let pw = p.clone();
            ctx.spawn([p.write_all()], move |t| {
                let v = t.view_of(&pw);
                // Safety: whole-object write-only access was declared.
                let buf = unsafe { &mut *v.ptr() };
                buf.iter_mut().for_each(|x| *x = round);
            });
            let pr = p.clone();
            let s = Arc::clone(&sum);
            ctx.spawn([p.access(Region::All, AccessMode::Read)], move |t| {
                let v = t.view_of(&pr);
                // Safety: read access granted; writer of this version done.
                let buf = unsafe { &*v.ptr() };
                assert!(buf.iter().all(|&x| x == round));
                s.fetch_add(buf[0] as usize, Ordering::Relaxed);
            });
        }
    });
    assert_eq!(sum.load(Ordering::Relaxed), (1..=10usize).sum::<usize>());
    assert!(p.get().iter().all(|&x| x == 10));

    // A keyed write is partial even when flagged `with_renaming()`: it must
    // not be granted a fresh buffer, or the other tiles are lost.
    let p = Partitioned::renameable_with(vec![1u64; 4], || vec![0u64; 4]);
    rt.scope(|ctx| {
        let pr = p.clone();
        ctx.spawn([p.access(Region::Key(0), AccessMode::Read)], move |t| {
            let v = t.view_of(&pr);
            // Safety: read access to tile 0 granted.
            assert_eq!(unsafe { (&*v.ptr())[0] }, 1);
        });
        let pw = p.clone();
        let write = p.access(Region::Key(0), AccessMode::Write).with_renaming();
        ctx.spawn([write], move |t| {
            let v = t.view_of(&pw);
            // Safety: write access to tile 0 granted.
            unsafe { (&mut *v.ptr())[0] = 7 };
        });
    });
    assert_eq!(p.get(), &vec![7, 1, 1, 1]);
}

#[test]
fn mixed_fastlane_and_dataflow_in_one_scope() {
    // joins (fast lane) interleaved with dataflow chains must both respect
    // their own ordering rules.
    let rt = rt(4);
    let h = Shared::new(0u64);
    let total = rt.scope(|ctx| {
        let mut acc = 0u64;
        for i in 0..20u64 {
            let hw = h.clone();
            ctx.spawn([h.exclusive()], move |t| *t.write(&hw) += i);
            let (a, b) = ctx.join(|_| i, |_| i * 2);
            acc += a + b;
        }
        ctx.sync();
        acc
    });
    assert_eq!(total, (0..20).map(|i| 3 * i).sum::<u64>());
    assert_eq!(*h.get(), (0..20).sum::<u64>());
}

/// Seat rule: a shutdown while a seat is lent leaves the lent worker
/// blocked, so it never touches the lane the holder is using (its trace
/// lane stays silent); it exits once the seat is handed back.
#[test]
fn shutdown_while_a_seat_is_lent_waits_for_the_hand_back() {
    use std::time::{Duration, Instant};
    let rt = Runtime::builder().workers(1).tracing(true).build();
    let inner = Arc::clone(&rt.inner);
    let t0 = Instant::now();
    let seat = loop {
        if let Some(seat) = inner.park_lot.lend() {
            break seat;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "the worker never parked"
        );
        std::thread::sleep(Duration::from_millis(1));
    };
    drop(rt.take_trace());
    inner.shutdown.store(true, Ordering::Release);
    inner.park_lot.wake_all();
    std::thread::sleep(Duration::from_millis(50));
    let threads = std::mem::take(&mut *inner.threads.lock());
    assert!(!threads[0].is_finished(), "a lent worker left at shutdown");
    assert!(
        rt.take_trace().events(seat).is_empty(),
        "a lent worker wrote to its lane at shutdown"
    );
    inner.park_lot.hand_back(&inner, seat);
    let t0 = Instant::now();
    while !threads[0].is_finished() {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "the handed-back worker did not exit"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    for t in threads {
        t.join().unwrap();
    }
}
