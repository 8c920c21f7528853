//! Per-task readiness in promoted frames (`DESIGN.md` §2, "Ready lists"):
//! completions count their successors down and release them onto
//! per-worker ready lists. These tests check that a released task never
//! runs before a predecessor the data-flow engine recorded for it, that a
//! completion sealing its cell while the owner links behind it loses no
//! count, that a promoted frame is still recycled, and what counts as a
//! stolen task. The last four check lazy binding (`crate::frame` in
//! `xkaapi-core`): a frame binds its tasks only once a thief scans it, a
//! push needs slot routing or a task fails, and then each task once. A
//! lost release or wake is a hang, so every case runs on a thread of its
//! own and fails on a 60 s deadline.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;
use xkaapi::core::{
    Access, AccessMode, DataflowEngine, Partitioned, Region, RenamePolicy, Runtime, Shared, Steal,
};
use xkaapi::linalg::{cholesky_seq, cholesky_xkaapi, TiledMatrix};

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
            if let Err(p) = worker.join() {
                std::panic::resume_unwind(p);
            }
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("{what}: no progress in 60 s (lost release or wake-up?)")
        }
    }
}

/// The two steal protocols.
const POLICIES: [&str; 2] = ["aggregated", "per-thief"];

fn runtime(policy: &str, workers: usize, renaming: bool) -> Runtime {
    let steal = match policy {
        "aggregated" => Steal::AGGREGATED,
        _ => Steal::PER_THIEF,
    };
    Runtime::builder()
        .workers(workers)
        .renaming(renaming)
        .steal(steal)
        .build()
}

fn spin(iters: u32) {
    for _ in 0..iters {
        std::hint::spin_loop();
    }
}

/// Start and end stamps of every task on one global clock.
struct Stamps {
    clock: AtomicU64,
    at: Vec<(AtomicU64, AtomicU64)>,
}

impl Stamps {
    fn new(n: usize) -> Stamps {
        Stamps {
            clock: AtomicU64::new(1),
            at: (0..n)
                .map(|_| (AtomicU64::new(0), AtomicU64::new(0)))
                .collect(),
        }
    }

    fn time(&self, i: usize, body: impl FnOnce()) {
        self.at[i]
            .0
            .store(self.clock.fetch_add(1, Ordering::SeqCst), Ordering::Relaxed);
        body();
        self.at[i]
            .1
            .store(self.clock.fetch_add(1, Ordering::SeqCst), Ordering::Relaxed);
    }

    /// Every task started after each of its recorded predecessors ended.
    fn check(&self, preds: &[Vec<u32>], what: &str) {
        for (i, ps) in preds.iter().enumerate() {
            let start = self.at[i].0.load(Ordering::Relaxed);
            assert_ne!(start, 0, "{what}: task {i} never ran");
            for &p in ps {
                let end = self.at[p as usize].1.load(Ordering::Relaxed);
                assert!(
                    end != 0 && end < start,
                    "{what}: task {i} started at {start}, before its predecessor {p} ended ({end})"
                );
            }
        }
    }
}

/// Predecessor sets the data-flow engine records for `program`, which
/// must never reach the version-slot cap: below it, whether a write is
/// renamed does not depend on which tasks completed first, so a runtime
/// binds exactly these edges.
fn preds_of(program: &[Vec<Access>], renaming: bool) -> Vec<Vec<u32>> {
    let bind = |max_live_slots| {
        let policy = RenamePolicy {
            enabled: renaming,
            max_live_slots,
        };
        let mut engine = DataflowEngine::new();
        (0..program.len())
            .map(|i| {
                engine.bind(&program[i], &policy);
                engine.preds(i).to_vec()
            })
            .collect::<Vec<_>>()
    };
    let preds = bind(RenamePolicy::default().max_live_slots);
    assert_eq!(preds, bind(u32::MAX), "the program reaches the slot cap");
    preds
}

// --- (a) random access programs --------------------------------------

/// splitmix64, as in `Frame`'s readiness property test.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A handle has 16 range cells and 4 key cells.
const CELLS: usize = 20;
const HANDLES: usize = 4;

#[derive(Clone, Copy)]
enum Reg {
    All,
    Key(usize, usize),
    Range(usize, usize),
}

impl Reg {
    fn cells(self) -> Range<usize> {
        match self {
            Reg::All => 0..CELLS,
            Reg::Key(i, j) => 16 + 2 * i + j..17 + 2 * i + j,
            Reg::Range(s, e) => s..e,
        }
    }

    fn region(self) -> Region {
        match self {
            Reg::All => Region::All,
            Reg::Key(i, j) => Region::key2(i, j),
            Reg::Range(start, end) => Region::Range { start, end },
        }
    }
}

#[derive(Clone, Copy)]
struct Acc {
    h: usize,
    reg: Reg,
    mode: AccessMode,
    /// Write-only access that may be renamed.
    ren: bool,
}

/// The programs of `promoted_readiness_matches_pred_oracle_on_random_programs`
/// (`crate::frame` in `xkaapi-core`): same generator, same seed, same draws.
fn random_programs() -> Vec<Vec<Vec<Acc>>> {
    let mut rng = Rng(0x5CA9);
    (0..40)
        .map(|_| {
            let ntasks = 1 + rng.below(40) as usize;
            (0..ntasks)
                .map(|_| {
                    (0..1 + rng.below(3))
                        .map(|_| {
                            let h = rng.below(4) as usize;
                            let reg = match rng.below(4) {
                                0 => Reg::All,
                                1 => Reg::Key(rng.below(2) as usize, rng.below(2) as usize),
                                2 => {
                                    let s = rng.below(8) as usize;
                                    Reg::Range(s, s + rng.below(8) as usize)
                                }
                                _ => Reg::All,
                            };
                            let (mode, ren) = match rng.below(5) {
                                0 | 1 => (AccessMode::Read, false),
                                2 => (AccessMode::Write, true),
                                3 => (AccessMode::Exclusive, false),
                                _ => (AccessMode::CumulWrite, false),
                            };
                            Acc { h, reg, mode, ren }
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

type Cells = Vec<AtomicU64>;

/// Length of a task body, and the owner's pause between two pushes.
const TASK_SPIN: u32 = 20;

fn mix(a: u64, b: u64) -> u64 {
    (a ^ b).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17)
}

/// Run `program` in one scope of `rt`, one push per task time. Each task
/// reads the cells of its read and exclusive accesses, then overwrites the cells of its write
/// and exclusive accesses with a function of what it read, and adds to
/// the cells of its cumulative ones. Returns the final cells and the
/// stamps.
fn run_program(rt: &Runtime, program: &[Vec<Acc>]) -> (Vec<Vec<u64>>, Vec<Vec<Access>>, Stamps) {
    let fresh = || (0..CELLS).map(|_| AtomicU64::new(0)).collect::<Cells>();
    let parts: Vec<Partitioned<Cells>> = (0..HANDLES)
        .map(|h| {
            let init = (0..CELLS)
                .map(|c| AtomicU64::new((h * 100 + c) as u64))
                .collect();
            Partitioned::renameable_with(init, fresh)
        })
        .collect();
    let accesses: Vec<Vec<Access>> = program
        .iter()
        .map(|accs| {
            accs.iter()
                .map(|a| match (a.reg, a.mode, a.ren) {
                    (Reg::All, AccessMode::Write, true) => parts[a.h].write_all(),
                    _ => parts[a.h].access(a.reg.region(), a.mode),
                })
                .collect()
        })
        .collect();
    let stamps = Stamps::new(program.len());
    rt.scope(|ctx| {
        for (i, accs) in program.iter().enumerate() {
            let (parts, stamps) = (&parts, &stamps);
            ctx.spawn(accesses[i].clone(), move |t| {
                stamps.time(i, || {
                    spin(TASK_SPIN);
                    // A write-only whole-object access may own a fresh
                    // buffer: the task reads nothing of that handle.
                    let fresh_buffer = |h: usize| {
                        accs.iter().any(|a| {
                            a.h == h && a.mode == AccessMode::Write && matches!(a.reg, Reg::All)
                        })
                    };
                    let mut acc = (i as u64 + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93);
                    for a in accs {
                        if matches!(a.mode, AccessMode::Read | AccessMode::Exclusive)
                            && !fresh_buffer(a.h)
                        {
                            let view = t.view_of(&parts[a.h]);
                            let cells = unsafe { &*view.ptr() };
                            for c in a.reg.cells() {
                                acc = mix(acc, cells[c].load(Ordering::Relaxed));
                            }
                        }
                    }
                    for a in accs {
                        let view = t.view_of(&parts[a.h]);
                        let cells = unsafe { &*view.ptr() };
                        for c in a.reg.cells() {
                            match a.mode {
                                AccessMode::Write | AccessMode::Exclusive => {
                                    cells[c].store(mix(acc, c as u64), Ordering::Relaxed)
                                }
                                AccessMode::CumulWrite => {
                                    cells[c].fetch_add(i as u64 + 1, Ordering::Relaxed);
                                }
                                AccessMode::Read => {}
                            }
                        }
                    }
                });
            });
            // Paced like the tasks, so thieves complete tasks while the
            // owner still links new ones behind them.
            spin(TASK_SPIN);
        }
    });
    let values = parts
        .iter()
        .map(|p| p.get().iter().map(|c| c.load(Ordering::Relaxed)).collect())
        .collect();
    (values, accesses, stamps)
}

/// (a) Every conflicting pair of a random program runs in the order of
/// `DataflowEngine::preds`, and the final values equal those of a
/// sequential run, at W = 2 and 4 under both steal protocols, renaming on
/// and off.
#[test]
fn random_programs_run_in_dependency_order() {
    // Runs per program and configuration: a release that comes too early
    // shows only when a completion lands inside a push.
    const REPS: usize = 10;
    within_deadline("random programs", || {
        let programs = random_programs();
        let mut promotions = 0;
        for renaming in [true, false] {
            let reference = Runtime::builder().workers(1).renaming(renaming).build();
            let sequential: Vec<_> = programs
                .iter()
                .map(|p| run_program(&reference, p).0)
                .collect();
            for policy in POLICIES {
                for workers in [2, 4] {
                    let rt = runtime(policy, workers, renaming);
                    for (case, program) in programs.iter().enumerate() {
                        for rep in 0..REPS {
                            let what = format!(
                                "case {case} run {rep}, {policy}, W={workers}, renaming {renaming}"
                            );
                            let (values, accesses, stamps) = run_program(&rt, program);
                            stamps.check(&preds_of(&accesses, renaming), &what);
                            assert_eq!(values, sequential[case], "{what}: final values");
                        }
                    }
                    promotions += rt.stats().promotions;
                }
            }
        }
        assert!(promotions > 0, "no frame was promoted");
    });
}

// --- (b) sealing races linking ----------------------------------------

/// (b) Thieves complete the first tasks of a promoted frame while the
/// owner is still pushing the tasks that link behind them: task `i`
/// depends on tasks `i - 3`, `i - 5` and `i - 8`, and the owner paces its
/// pushes so completions land among them.
#[test]
fn completions_race_the_pushes_that_link_behind_them() {
    const K: usize = 8;
    const N: usize = 4000;
    for workers in [2, 4] {
        within_deadline(&format!("seal/link race at W={workers}"), move || {
            let rt = Runtime::builder().workers(workers).build();
            let mut expect: Vec<u64> = (0..K as u64).collect();
            for i in 0..N {
                let (w, r) = (i % K, (i + 3) % K);
                expect[w] = expect[w]
                    .wrapping_mul(31)
                    .wrapping_add(expect[r])
                    .wrapping_add(i as u64);
            }
            for round in 0..5 {
                let cells: Vec<Shared<u64>> = (0..K as u64).map(Shared::new).collect();
                let program: Vec<Vec<Access>> = (0..N)
                    .map(|i| vec![cells[i % K].exclusive(), cells[(i + 3) % K].read()])
                    .collect();
                let stamps = Stamps::new(N);
                rt.scope(|ctx| {
                    for (i, accs) in program.iter().enumerate() {
                        let (cells, stamps) = (&cells, &stamps);
                        ctx.spawn(accs.clone(), move |t| {
                            stamps.time(i, || {
                                let add = *t.read(&cells[(i + 3) % K]);
                                let mut g = t.write(&cells[i % K]);
                                *g = g.wrapping_mul(31).wrapping_add(add).wrapping_add(i as u64);
                            })
                        });
                        spin(if i % 4 == 0 { 2000 } else { 100 });
                    }
                });
                let what = format!("W={workers}, round {round}");
                stamps.check(&preds_of(&program, true), &what);
                let got: Vec<u64> = cells.iter().map(|c| *c.get()).collect();
                assert_eq!(got, expect, "{what}: final values");
            }
            assert!(rt.stats().promotions > 0, "W={workers}: never promoted");
        });
    }
}

// --- (c) a promoted frame is recycled ---------------------------------

/// (c) A promoted frame goes back to its worker's frame pool after its
/// scope, although stale entries for its tasks (run by the owner's FIFO
/// walk after a thief listed them) may still sit on ready lists: an entry
/// holds its task, not the frame. Once the pools are warm, scopes create
/// no frames — but a worker whose seat hosts a scope root for the first
/// time fills its empty pool once, so each of the two pools may add one.
#[test]
fn promoted_frames_return_to_the_pool() {
    within_deadline("frame recycling", || {
        let rt = Runtime::builder().workers(2).build();
        let cells: Vec<Shared<u64>> = (0..8).map(|_| Shared::new(0)).collect();
        let scope = || {
            rt.scope(|ctx| {
                for i in 0..512 {
                    let (w, r) = (cells[i % 8].clone(), cells[(i + 1) % 8].clone());
                    ctx.spawn([w.exclusive(), r.read()], move |t| {
                        spin(300);
                        let add = *t.read(&r);
                        *t.write(&w) += add % 3 + 1;
                    });
                }
            })
        };
        for _ in 0..20 {
            scope();
        }
        let warm = rt.stats();
        for _ in 0..50 {
            scope();
        }
        let after = rt.stats();
        assert!(
            after.promotions > warm.promotions,
            "the scopes were promoted"
        );
        assert!(
            after.frames_created - warm.frames_created <= 2,
            "promoted frames were not recycled: {} frames for 50 scopes",
            after.frames_created - warm.frames_created
        );
    });
}

// --- stolen means run off the owner -----------------------------------

/// `tasks_executed_stolen` counts the tasks a worker other than their
/// frame's owner ran; the owner's own runs — FIFO or from its ready list —
/// count as `tasks_executed_own`.
#[test]
fn stolen_counts_only_tasks_run_off_their_owner() {
    within_deadline("stolen accounting", || {
        for (policy, workers) in [("aggregated", 1), ("aggregated", 2), ("per-thief", 2)] {
            let rt = runtime(policy, workers, true);
            let cells: Vec<Shared<u64>> = (0..4).map(|_| Shared::new(0)).collect();
            let ran_by: Vec<AtomicU64> = (0..256).map(|_| AtomicU64::new(0)).collect();
            rt.reset_stats();
            let owner = rt.scope(|ctx| {
                for (i, slot) in ran_by.iter().enumerate() {
                    let c = cells[i % 4].clone();
                    ctx.spawn([c.exclusive()], move |t| {
                        spin(2000);
                        *t.write(&c) += 1;
                        slot.store(t.worker_index() as u64, Ordering::Relaxed);
                    });
                }
                ctx.worker_index() as u64
            });
            let elsewhere = ran_by
                .iter()
                .filter(|w| w.load(Ordering::Relaxed) != owner)
                .count() as u64;
            let s = rt.stats();
            let what = format!("{policy}, W={workers}");
            assert_eq!(s.tasks_executed_stolen, elsewhere, "{what}: stolen");
            assert_eq!(s.tasks_executed_own, 256 - elsewhere, "{what}: own");
            if workers == 1 {
                assert_eq!(elsewhere, 0, "{what}: one worker steals nothing");
            }
        }
    });
}

// --- lazy binding -----------------------------------------------------

/// A 1-worker pool has no thief, and the tiled Cholesky's keyed tile
/// accesses need no slot routing: its frame binds no task, and the result
/// is the sequential one to the bit.
#[test]
fn one_worker_cholesky_binds_nothing() {
    within_deadline("1-worker cholesky", || {
        let rt = Runtime::new(1);
        let orig = TiledMatrix::spd_random(96, 8, 7);
        let mut reference = orig.clone_matrix();
        cholesky_seq(&mut reference).unwrap();
        for _ in 0..3 {
            let got = cholesky_xkaapi(&rt, orig.clone_matrix()).unwrap();
            assert_eq!(got.max_abs_diff_lower(&reference), 0.0);
        }
        let s = rt.stats();
        assert!(s.tasks_spawned > 0);
        assert_eq!(s.dataflow_pushes, 0, "a frame no thief scanned was bound");
    });
}

/// With a thief, a frame binds its prefix at the first scan and every
/// later push at push time: each task is bound exactly once, whichever
/// worker binds it, and tasks still run in the order of the recorded
/// edges. The owner waits for a first binding before it syncs, so every
/// frame is scanned at least once.
#[test]
fn with_a_thief_every_task_is_bound_exactly_once() {
    const K: usize = 6;
    const N: usize = 1500;
    within_deadline("bind once", || {
        let mut expect: Vec<u64> = (0..K as u64).collect();
        for i in 0..N {
            let (w, r) = (i % K, (i + 2) % K);
            expect[w] = expect[w].wrapping_mul(31).wrapping_add(expect[r]) ^ i as u64;
        }
        for policy in POLICIES {
            let rt = runtime(policy, 2, true);
            for round in 0..3 {
                let cells: Vec<Shared<u64>> = (0..K as u64).map(Shared::new).collect();
                let program: Vec<Vec<Access>> = (0..N)
                    .map(|i| vec![cells[i % K].exclusive(), cells[(i + 2) % K].read()])
                    .collect();
                let stamps = Stamps::new(N);
                rt.reset_stats();
                rt.scope(|ctx| {
                    for (i, accs) in program.iter().enumerate() {
                        let (cells, stamps) = (&cells, &stamps);
                        ctx.spawn(accs.clone(), move |t| {
                            stamps.time(i, || {
                                let add = *t.read(&cells[(i + 2) % K]);
                                let mut g = t.write(&cells[i % K]);
                                *g = g.wrapping_mul(31).wrapping_add(add) ^ i as u64;
                            })
                        });
                        spin(if i % 8 == 0 { 1000 } else { 50 });
                    }
                    while rt.stats().dataflow_pushes == 0 {
                        std::thread::yield_now();
                    }
                });
                let what = format!("{policy}, round {round}");
                stamps.check(&preds_of(&program, true), &what);
                let got: Vec<u64> = cells.iter().map(|c| *c.get()).collect();
                assert_eq!(got, expect, "{what}: final values");
                let s = rt.stats();
                assert_eq!(s.tasks_spawned, N as u64, "{what}: pushed");
                assert_eq!(s.dataflow_pushes, N as u64, "{what}: bound");
            }
        }
    });
}

/// A panic in a 1-worker frame that bound nothing binds the frame, so the
/// tasks after it find their failed predecessor: exactly the panicked
/// task's cone (two levels deep here) is completed-as-failed, and the
/// tasks before and beside it run.
#[test]
fn a_panic_in_an_unbound_frame_poisons_exactly_its_cone() {
    within_deadline("unbound cone", || {
        let rt = Runtime::new(1);
        let [a, b, c, d] = [0u64; 4].map(Shared::new);
        let ran = Arc::new(AtomicU64::new(0));
        let err = catch_unwind(AssertUnwindSafe(|| {
            rt.scope(|ctx| {
                let count = |bit: u64| {
                    let ran = Arc::clone(&ran);
                    move |_: &mut xkaapi::core::Ctx<'_>| {
                        ran.fetch_or(bit, Ordering::SeqCst);
                    }
                };
                ctx.spawn([a.exclusive()], count(1)); // before the panic
                ctx.spawn([b.exclusive()], |_| panic!("b failed"));
                ctx.spawn([a.read()], count(2)); // beside it
                ctx.spawn([b.read(), c.exclusive()], count(4)); // cone
                ctx.spawn([c.read(), d.exclusive()], count(8)); // cone
                ctx.spawn([a.exclusive()], count(16)); // beside it
                ctx.spawn([d.read()], count(32)); // cone
            });
        }))
        .expect_err("the panic must re-raise");
        assert!(err.downcast_ref::<&str>().is_some_and(|m| *m == "b failed"));
        assert_eq!(
            ran.load(Ordering::SeqCst),
            1 | 2 | 16,
            "exactly the cone skipped"
        );
        let s = rt.stats();
        assert_eq!(s.tasks_panicked, 1);
        assert_eq!(s.tasks_poisoned, 3);
        assert_eq!(s.dataflow_pushes, 7, "the failure bound the frame once");
    });
}

/// A renameable write pushed after unbound tasks binds them first. They
/// need no routing, so only the write itself is renamed (its WAR edge to
/// the earlier reader), and the reader after it sees the written value. A
/// later scope's read of the handle carries the committed slot in its
/// lineage, so it binds at push and reads that slot too.
#[test]
fn a_renamed_write_after_unbound_tasks_is_seen_by_the_next_reader() {
    within_deadline("rename after unbound", || {
        let rt = Runtime::new(1);
        let h = Shared::renameable(1u64);
        let plain = Shared::new(0u64);
        let seen = [0u64; 3].map(AtomicU64::new);
        rt.scope(|ctx| {
            let (hr, seen) = (h.clone(), &seen);
            ctx.spawn([plain.exclusive()], |_| {});
            ctx.spawn([h.read()], move |t| {
                seen[0].store(*t.read(&hr), Ordering::SeqCst)
            });
            let hw = h.clone();
            ctx.spawn([h.write()], move |t| *t.write(&hw) = 42);
            let hr = h.clone();
            ctx.spawn([h.read()], move |t| {
                seen[1].store(*t.read(&hr), Ordering::SeqCst)
            });
        });
        let s = rt.stats();
        assert_eq!(s.renames, 1, "only the write was renamed");
        assert_eq!(s.dataflow_pushes, 4, "the write bound the prefix");
        rt.reset_stats();
        rt.scope(|ctx| {
            let (hr, seen) = (h.clone(), &seen);
            ctx.spawn([plain.exclusive()], |_| {});
            ctx.spawn([h.read()], move |t| {
                seen[2].store(*t.read(&hr), Ordering::SeqCst)
            });
        });
        assert_eq!(rt.stats().dataflow_pushes, 2, "the lineage bound the frame");
        let seen = seen.map(|v| v.load(Ordering::SeqCst));
        assert_eq!(seen, [1, 42, 42]);
        assert_eq!(*h.get(), 42);
    });
}
