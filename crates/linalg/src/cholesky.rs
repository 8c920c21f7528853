//! Tiled right-looking Cholesky drivers — one per runtime under comparison
//! (the `PLASMA_dpotrf_Tile` of the reproduction):
//!
//! * [`cholesky_seq`] — sequential reference;
//! * [`cholesky_quark`] — the PLASMA algorithm written against the QUARK
//!   insertion API, runnable on both QUARK backends (centralized list or
//!   X-Kaapi) without modification — the Fig. 2 "PLASMA/Quark" vs "XKaapi"
//!   pair;
//! * [`cholesky_xkaapi`] — the same DAG expressed directly as X-Kaapi
//!   data-flow tasks over keyed tile regions;
//! * [`cholesky_static`] — PLASMA's statically scheduled variant: 1-D cyclic
//!   ownership by tile row plus a progress table of atomics, zero task
//!   management ("PLASMA/static" in Fig. 2).
//!
//! All drivers run the identical kernel set from [`crate::kernels`].

use crate::kernels::{gemm, potrf, syrk, trsm, NotPositiveDefinite};
use crate::tiled::{tile_key, TiledMatrix};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use xkaapi_core::{AccessMode, Partitioned, RecordedDag, Region, ReplayTrace, Runtime};
use xkaapi_quark::{Quark, QuarkDep};

/// One operation of the tiled Cholesky DAG (exported for the simulator).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CholOp {
    /// Factorise diagonal tile `(k,k)`.
    Potrf {
        /// Step.
        k: usize,
    },
    /// Solve tile `(m,k)` against the factor of `(k,k)`.
    Trsm {
        /// Step.
        k: usize,
        /// Tile row.
        m: usize,
    },
    /// Rank-k update of diagonal tile `(m,m)` with panel tile `(m,k)`.
    Syrk {
        /// Step.
        k: usize,
        /// Tile row.
        m: usize,
    },
    /// Update tile `(m,n)` with `(m,k)·(n,k)ᵀ`.
    Gemm {
        /// Step.
        k: usize,
        /// Tile row.
        m: usize,
        /// Tile column.
        n: usize,
    },
}

impl CholOp {
    /// `(key, is_write)` accesses of this operation, in tile keys.
    pub fn accesses(&self) -> Vec<(u64, bool)> {
        match *self {
            CholOp::Potrf { k } => vec![(tile_key(k, k), true)],
            CholOp::Trsm { k, m } => vec![(tile_key(k, k), false), (tile_key(m, k), true)],
            CholOp::Syrk { k, m } => vec![(tile_key(m, k), false), (tile_key(m, m), true)],
            CholOp::Gemm { k, m, n } => vec![
                (tile_key(m, k), false),
                (tile_key(n, k), false),
                (tile_key(m, n), true),
            ],
        }
    }
}

/// The operations of an `nt × nt` tiled Cholesky in sequential order.
pub fn cholesky_ops(nt: usize) -> Vec<CholOp> {
    let mut ops = Vec::new();
    for k in 0..nt {
        ops.push(CholOp::Potrf { k });
        for m in k + 1..nt {
            ops.push(CholOp::Trsm { k, m });
        }
        for m in k + 1..nt {
            ops.push(CholOp::Syrk { k, m });
            for n in k + 1..m {
                ops.push(CholOp::Gemm { k, m, n });
            }
        }
    }
    ops
}

/// Sequential tiled Cholesky (reference).
pub fn cholesky_seq(a: &mut TiledMatrix) -> Result<(), NotPositiveDefinite> {
    let nt = a.nt;
    let nb = a.nb;
    for k in 0..nt {
        potrf(a.tile_mut(k, k), nb)?;
        for m in k + 1..nt {
            // Split-borrow via raw pointers within one &mut: tiles are
            // disjoint allocations.
            let lkk = a.tile(k, k).to_vec();
            trsm(&lkk, a.tile_mut(m, k), nb);
        }
        for m in k + 1..nt {
            let amk = a.tile(m, k).to_vec();
            syrk(&amk, a.tile_mut(m, m), nb);
            for n in k + 1..m {
                let ank = a.tile(n, k).to_vec();
                gemm(&amk, &ank, a.tile_mut(m, n), nb);
            }
        }
    }
    Ok(())
}

/// Wrapper making a tile pointer transferable; the dependence protocol of
/// each driver guarantees exclusive/shared access discipline.
#[derive(Clone, Copy)]
struct TilePtr(*mut f64, usize);
unsafe impl Send for TilePtr {}
unsafe impl Sync for TilePtr {}

impl TilePtr {
    unsafe fn as_slice<'a>(self) -> &'a [f64] {
        unsafe { std::slice::from_raw_parts(self.0, self.1) }
    }

    #[allow(clippy::mut_from_ref)]
    unsafe fn as_mut_slice<'a>(self) -> &'a mut [f64] {
        unsafe { std::slice::from_raw_parts_mut(self.0, self.1) }
    }
}

/// PLASMA-style Cholesky through the QUARK insertion API (both backends).
///
/// Fails at the first non-SPD pivot *after* the session drains (the flag is
/// checked at the end; dependent kernels observe unchanged tiles).
pub fn cholesky_quark(q: &Quark, a: &mut TiledMatrix) -> Result<(), NotPositiveDefinite> {
    let nt = a.nt;
    let nb = a.nb;
    let failed = AtomicUsize::new(usize::MAX);
    q.session(|ctx| {
        for k in 0..nt {
            let tkk = TilePtr(a.tile_ptr(k, k), nb * nb);
            let failed = &failed;
            ctx.insert_task_prio([QuarkDep::inout(tile_key(k, k))], true, move |_| {
                // Safety: inout dependence on (k,k) makes us exclusive.
                if let Err(e) = potrf(unsafe { tkk.as_mut_slice() }, nb) {
                    failed.store(e.column, Ordering::Relaxed);
                }
            });
            for m in k + 1..nt {
                let tkk = TilePtr(a.tile_ptr(k, k), nb * nb);
                let tmk = TilePtr(a.tile_ptr(m, k), nb * nb);
                ctx.insert_task(
                    [
                        QuarkDep::input(tile_key(k, k)),
                        QuarkDep::inout(tile_key(m, k)),
                    ],
                    move |_| unsafe { trsm(tkk.as_slice(), tmk.as_mut_slice(), nb) },
                );
            }
            for m in k + 1..nt {
                let tmk = TilePtr(a.tile_ptr(m, k), nb * nb);
                let tmm = TilePtr(a.tile_ptr(m, m), nb * nb);
                ctx.insert_task(
                    [
                        QuarkDep::input(tile_key(m, k)),
                        QuarkDep::inout(tile_key(m, m)),
                    ],
                    move |_| unsafe { syrk(tmk.as_slice(), tmm.as_mut_slice(), nb) },
                );
                for n in k + 1..m {
                    let tmk = TilePtr(a.tile_ptr(m, k), nb * nb);
                    let tnk = TilePtr(a.tile_ptr(n, k), nb * nb);
                    let tmn = TilePtr(a.tile_ptr(m, n), nb * nb);
                    ctx.insert_task(
                        [
                            QuarkDep::input(tile_key(m, k)),
                            QuarkDep::input(tile_key(n, k)),
                            QuarkDep::inout(tile_key(m, n)),
                        ],
                        move |_| unsafe {
                            gemm(tmk.as_slice(), tnk.as_slice(), tmn.as_mut_slice(), nb)
                        },
                    );
                }
            }
        }
    });
    match failed.load(Ordering::Relaxed) {
        usize::MAX => Ok(()),
        column => Err(NotPositiveDefinite { column }),
    }
}

/// The same DAG as direct X-Kaapi data-flow tasks over keyed tile regions
/// of a [`Partitioned`] matrix.
pub fn cholesky_xkaapi(rt: &Runtime, a: TiledMatrix) -> Result<TiledMatrix, NotPositiveDefinite> {
    let nt = a.nt;
    let nb = a.nb;
    let failed = AtomicUsize::new(usize::MAX);
    let part = Partitioned::new(a);
    rt.scope(|ctx| {
        let reg = |i: usize, j: usize| Region::Key(tile_key(i, j));
        for k in 0..nt {
            let p = part.clone();
            let failed = &failed;
            ctx.spawn([part.access(reg(k, k), AccessMode::Exclusive)], move |_| {
                // Safety: exclusive keyed region (k,k).
                let m = unsafe { &mut *p.view() };
                if let Err(e) = potrf(m.tile_mut(k, k), nb) {
                    failed.store(e.column, Ordering::Relaxed);
                }
            });
            for mrow in k + 1..nt {
                let p = part.clone();
                ctx.spawn(
                    [
                        part.access(reg(k, k), AccessMode::Read),
                        part.access(reg(mrow, k), AccessMode::Exclusive),
                    ],
                    move |_| {
                        let m = unsafe { &mut *p.view() };
                        let lkk = TilePtr(m.tile_ptr(k, k), nb * nb);
                        trsm(unsafe { lkk.as_slice() }, m.tile_mut(mrow, k), nb);
                    },
                );
            }
            for mrow in k + 1..nt {
                let p = part.clone();
                ctx.spawn(
                    [
                        part.access(reg(mrow, k), AccessMode::Read),
                        part.access(reg(mrow, mrow), AccessMode::Exclusive),
                    ],
                    move |_| {
                        let m = unsafe { &mut *p.view() };
                        let amk = TilePtr(m.tile_ptr(mrow, k), nb * nb);
                        syrk(unsafe { amk.as_slice() }, m.tile_mut(mrow, mrow), nb);
                    },
                );
                for n in k + 1..mrow {
                    let p = part.clone();
                    ctx.spawn(
                        [
                            part.access(reg(mrow, k), AccessMode::Read),
                            part.access(reg(n, k), AccessMode::Read),
                            part.access(reg(mrow, n), AccessMode::Exclusive),
                        ],
                        move |_| {
                            let m = unsafe { &mut *p.view() };
                            let amk = TilePtr(m.tile_ptr(mrow, k), nb * nb);
                            let ank = TilePtr(m.tile_ptr(n, k), nb * nb);
                            gemm(
                                unsafe { amk.as_slice() },
                                unsafe { ank.as_slice() },
                                m.tile_mut(mrow, n),
                                nb,
                            );
                        },
                    );
                }
            }
        }
    });
    let a = part.into_inner();
    match failed.load(Ordering::Relaxed) {
        usize::MAX => Ok(a),
        column => Err(NotPositiveDefinite { column }),
    }
}

/// The tiled Cholesky DAG recorded once with [`Runtime::record`] and
/// replayable any number of times — the record-then-optimize-then-replay
/// path (`DESIGN.md` §7).
///
/// The recording captures the exact task graph of [`cholesky_xkaapi`]
/// (keyed tile regions, same kernels), pays dependency analysis a single
/// time, and AOT-optimizes it: potrf/trsm chains on the critical path get
/// high priority, small same-band chains fuse. Each
/// [`RecordedCholesky::replay`] then factorizes whatever data currently
/// sits in the recorded matrix with **zero** per-iteration data-flow
/// binding — the amortization xkbench's `replay_fine` workload measures.
pub struct RecordedCholesky {
    dag: RecordedDag,
    part: Partitioned<TiledMatrix>,
    failed: Arc<AtomicUsize>,
    nt: usize,
}

impl RecordedCholesky {
    /// Record the factorization DAG for `a` (consumed: its geometry fixes
    /// the recorded structure, its data is the first replay's input).
    /// Nothing executes during recording.
    pub fn record(rt: &Runtime, a: TiledMatrix) -> RecordedCholesky {
        let nt = a.nt;
        let nb = a.nb;
        let part = Partitioned::new(a);
        let failed = Arc::new(AtomicUsize::new(usize::MAX));
        let dag = rt.record(|r| {
            let reg = |i: usize, j: usize| Region::Key(tile_key(i, j));
            for op in cholesky_ops(nt) {
                match op {
                    CholOp::Potrf { k } => {
                        let p = part.clone();
                        let failed = Arc::clone(&failed);
                        r.task()
                            .access(part.access(reg(k, k), AccessMode::Exclusive))
                            .label(format!("potrf({k})"))
                            .spawn(move |_| {
                                // Safety: exclusive keyed region (k,k).
                                let m = unsafe { &mut *p.view() };
                                if let Err(e) = potrf(m.tile_mut(k, k), nb) {
                                    failed.store(e.column, Ordering::Relaxed);
                                }
                            });
                    }
                    CholOp::Trsm { k, m: mr } => {
                        let p = part.clone();
                        r.task()
                            .access(part.access(reg(k, k), AccessMode::Read))
                            .access(part.access(reg(mr, k), AccessMode::Exclusive))
                            .label(format!("trsm({k},{mr})"))
                            .spawn(move |_| {
                                let m = unsafe { &mut *p.view() };
                                let lkk = TilePtr(m.tile_ptr(k, k), nb * nb);
                                trsm(unsafe { lkk.as_slice() }, m.tile_mut(mr, k), nb);
                            });
                    }
                    CholOp::Syrk { k, m: mr } => {
                        let p = part.clone();
                        r.task()
                            .access(part.access(reg(mr, k), AccessMode::Read))
                            .access(part.access(reg(mr, mr), AccessMode::Exclusive))
                            .label(format!("syrk({k},{mr})"))
                            .spawn(move |_| {
                                let m = unsafe { &mut *p.view() };
                                let amk = TilePtr(m.tile_ptr(mr, k), nb * nb);
                                syrk(unsafe { amk.as_slice() }, m.tile_mut(mr, mr), nb);
                            });
                    }
                    CholOp::Gemm { k, m: mr, n } => {
                        let p = part.clone();
                        r.task()
                            .access(part.access(reg(mr, k), AccessMode::Read))
                            .access(part.access(reg(n, k), AccessMode::Read))
                            .access(part.access(reg(mr, n), AccessMode::Exclusive))
                            .label(format!("gemm({k},{mr},{n})"))
                            .spawn(move |_| {
                                let m = unsafe { &mut *p.view() };
                                let amk = TilePtr(m.tile_ptr(mr, k), nb * nb);
                                let ank = TilePtr(m.tile_ptr(n, k), nb * nb);
                                gemm(
                                    unsafe { amk.as_slice() },
                                    unsafe { ank.as_slice() },
                                    m.tile_mut(mr, n),
                                    nb,
                                );
                            });
                    }
                }
            }
        });
        RecordedCholesky {
            dag,
            part,
            failed,
            nt,
        }
    }

    /// The recorded, optimized DAG (stats, DOT / chrome-trace exports).
    pub fn dag(&self) -> &RecordedDag {
        &self.dag
    }

    /// Overwrite the factorization input with `src`'s tiles, so the next
    /// replay factorizes fresh data. Panics on geometry mismatch (the
    /// recorded DAG is specific to the tile layout).
    pub fn load(&mut self, src: &TiledMatrix) {
        // Safety: `&mut self` and replay() blocking until the DAG drained
        // guarantee no task is touching the matrix.
        let dst = unsafe { &mut *self.part.view() };
        assert_eq!(
            (dst.n, dst.nb),
            (src.n, src.nb),
            "recorded DAG is specific to the tile geometry"
        );
        for i in 0..self.nt {
            for j in 0..self.nt {
                dst.tile_mut(i, j).copy_from_slice(src.tile(i, j));
            }
        }
    }

    /// Factorize the currently loaded data by replaying the recorded DAG —
    /// no per-iteration dependency analysis. Blocks until done; read the
    /// factor with [`RecordedCholesky::result`].
    pub fn replay(&self, rt: &Runtime) -> Result<(), NotPositiveDefinite> {
        self.failed.store(usize::MAX, Ordering::Relaxed);
        self.dag.replay(rt);
        self.outcome()
    }

    /// [`RecordedCholesky::replay`], also returning the measured execution
    /// trace for the chrome-trace / DOT exports.
    pub fn replay_traced(&self, rt: &Runtime) -> (Result<(), NotPositiveDefinite>, ReplayTrace) {
        self.failed.store(usize::MAX, Ordering::Relaxed);
        let trace = self.dag.replay_traced(rt);
        (self.outcome(), trace)
    }

    fn outcome(&self) -> Result<(), NotPositiveDefinite> {
        match self.failed.load(Ordering::Relaxed) {
            usize::MAX => Ok(()),
            column => Err(NotPositiveDefinite { column }),
        }
    }

    /// Clone the current factorization result out (call between replays).
    pub fn result(&self) -> TiledMatrix {
        self.part.get().clone_matrix()
    }
}

/// PLASMA-static-style Cholesky: `threads` OS threads, tile-row-cyclic
/// ownership, progress table of atomics, no scheduler at all.
pub fn cholesky_static(threads: usize, a: &mut TiledMatrix) -> Result<(), NotPositiveDefinite> {
    assert!(threads >= 1);
    let nt = a.nt;
    let nb = a.nb;
    // progress[m*nt+n] = number of panel updates applied to tile (m,n).
    let progress: Vec<AtomicUsize> = (0..nt * nt).map(|_| AtomicUsize::new(0)).collect();
    let potrf_done: Vec<AtomicBool> = (0..nt).map(|_| AtomicBool::new(false)).collect();
    let trsm_done: Vec<AtomicBool> = (0..nt * nt).map(|_| AtomicBool::new(false)).collect();
    let failed = AtomicUsize::new(usize::MAX);

    let wait = |cond: &dyn Fn() -> bool, failed: &AtomicUsize| -> bool {
        let mut spins = 0u32;
        while !cond() {
            if failed.load(Ordering::Acquire) != usize::MAX {
                return false;
            }
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        true
    };

    let a_ref: &TiledMatrix = a;
    std::thread::scope(|s| {
        for tid in 0..threads {
            let progress = &progress;
            let potrf_done = &potrf_done;
            let trsm_done = &trsm_done;
            let failed = &failed;
            let wait = &wait;
            s.spawn(move || {
                for k in 0..nt {
                    if failed.load(Ordering::Acquire) != usize::MAX {
                        return;
                    }
                    // potrf(k) — owned by thread k % p
                    if k % threads == tid {
                        if !wait(
                            &|| progress[k * nt + k].load(Ordering::Acquire) == k,
                            failed,
                        ) {
                            return;
                        }
                        let tkk = TilePtr(a_ref.tile_ptr(k, k), nb * nb);
                        // Safety: progress protocol grants exclusivity.
                        if let Err(e) = potrf(unsafe { tkk.as_mut_slice() }, nb) {
                            failed.store(e.column, Ordering::Release);
                            return;
                        }
                        potrf_done[k].store(true, Ordering::Release);
                    }
                    // row-cyclic ownership of rows m
                    for m in k + 1..nt {
                        if m % threads != tid {
                            continue;
                        }
                        if !wait(
                            &|| {
                                potrf_done[k].load(Ordering::Acquire)
                                    && progress[m * nt + k].load(Ordering::Acquire) == k
                            },
                            failed,
                        ) {
                            return;
                        }
                        let tkk = TilePtr(a_ref.tile_ptr(k, k), nb * nb);
                        let tmk = TilePtr(a_ref.tile_ptr(m, k), nb * nb);
                        unsafe { trsm(tkk.as_slice(), tmk.as_mut_slice(), nb) };
                        trsm_done[m * nt + k].store(true, Ordering::Release);
                    }
                    for m in k + 1..nt {
                        if m % threads != tid {
                            continue;
                        }
                        // syrk on (m,m)
                        if !wait(
                            &|| {
                                trsm_done[m * nt + k].load(Ordering::Acquire)
                                    && progress[m * nt + m].load(Ordering::Acquire) == k
                            },
                            failed,
                        ) {
                            return;
                        }
                        let tmk = TilePtr(a_ref.tile_ptr(m, k), nb * nb);
                        let tmm = TilePtr(a_ref.tile_ptr(m, m), nb * nb);
                        unsafe { syrk(tmk.as_slice(), tmm.as_mut_slice(), nb) };
                        progress[m * nt + m].store(k + 1, Ordering::Release);
                        for n in k + 1..m {
                            if !wait(
                                &|| {
                                    trsm_done[n * nt + k].load(Ordering::Acquire)
                                        && progress[m * nt + n].load(Ordering::Acquire) == k
                                },
                                failed,
                            ) {
                                return;
                            }
                            let tmk = TilePtr(a_ref.tile_ptr(m, k), nb * nb);
                            let tnk = TilePtr(a_ref.tile_ptr(n, k), nb * nb);
                            let tmn = TilePtr(a_ref.tile_ptr(m, n), nb * nb);
                            unsafe { gemm(tmk.as_slice(), tnk.as_slice(), tmn.as_mut_slice(), nb) };
                            progress[m * nt + n].store(k + 1, Ordering::Release);
                        }
                    }
                }
            });
        }
    });
    match failed.load(Ordering::Acquire) {
        usize::MAX => Ok(()),
        column => Err(NotPositiveDefinite { column }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    const N: usize = 96;
    const NB: usize = 16;

    fn fresh() -> (TiledMatrix, TiledMatrix) {
        let a = TiledMatrix::spd_random(N, NB, 11);
        (a.clone_matrix(), a)
    }

    #[test]
    fn seq_factorisation_is_correct() {
        let (orig, mut a) = fresh();
        cholesky_seq(&mut a).unwrap();
        assert!(a.cholesky_residual(&orig) < 1e-8);
    }

    #[test]
    fn quark_centralized_matches_seq() {
        let (orig, mut a) = fresh();
        let mut reference = orig.clone_matrix();
        cholesky_seq(&mut reference).unwrap();
        let q = Quark::new_centralized(4);
        cholesky_quark(&q, &mut a).unwrap();
        assert!(a.max_abs_diff_lower(&reference) < 1e-9);
        assert!(a.cholesky_residual(&orig) < 1e-8);
    }

    #[test]
    fn quark_on_xkaapi_matches_seq() {
        let (orig, mut a) = fresh();
        let q = Quark::new_on_xkaapi(Arc::new(Runtime::new(4)));
        cholesky_quark(&q, &mut a).unwrap();
        assert!(a.cholesky_residual(&orig) < 1e-8);
    }

    #[test]
    fn xkaapi_dataflow_matches_seq() {
        let (orig, a) = fresh();
        let rt = Runtime::new(4);
        let a = cholesky_xkaapi(&rt, a).unwrap();
        assert!(a.cholesky_residual(&orig) < 1e-8);
    }

    #[test]
    fn static_matches_seq_various_thread_counts() {
        for threads in [1, 2, 3, 5] {
            let (orig, mut a) = fresh();
            cholesky_static(threads, &mut a).unwrap();
            assert!(a.cholesky_residual(&orig) < 1e-8, "threads={threads}");
        }
    }

    #[test]
    fn non_spd_detected_by_all_drivers() {
        let mk = || {
            let mut a = TiledMatrix::spd_random(32, 8, 5);
            a.set(20, 20, -50.0); // break positive definiteness
            a
        };
        assert!(cholesky_seq(&mut mk()).is_err());
        assert!(cholesky_static(2, &mut mk()).is_err());
        let q = Quark::new_centralized(2);
        assert!(cholesky_quark(&q, &mut mk()).is_err());
        let rt = Runtime::new(2);
        assert!(cholesky_xkaapi(&rt, mk()).is_err());
    }

    #[test]
    fn recorded_replay_matches_seq_and_repeats() {
        let (orig, a) = fresh();
        let rt = Runtime::new(4);
        let mut rec = RecordedCholesky::record(&rt, a);
        assert_eq!(rec.dag().len(), cholesky_ops(N / NB).len());
        assert!(
            rec.result().max_abs_diff_lower(&orig) < 1e-15,
            "recording must not factorize"
        );
        rec.replay(&rt).unwrap();
        assert!(rec.result().cholesky_residual(&orig) < 1e-8);
        // Reload fresh input and replay again: same DAG, new data.
        rec.load(&orig);
        rec.replay(&rt).unwrap();
        assert!(rec.result().cholesky_residual(&orig) < 1e-8);
    }

    #[test]
    fn recorded_replay_pays_no_dataflow_pushes() {
        let (orig, a) = fresh();
        let rt = Runtime::new(4);
        let mut rec = RecordedCholesky::record(&rt, a);
        rec.replay(&rt).unwrap();
        rt.reset_stats();
        for _ in 0..3 {
            rec.load(&orig);
            rec.replay(&rt).unwrap();
        }
        assert_eq!(
            rt.stats().dataflow_pushes,
            0,
            "replay must not re-run dependency analysis"
        );
        assert!(rec.result().cholesky_residual(&orig) < 1e-8);
    }

    #[test]
    fn recorded_replay_detects_non_spd_and_recovers() {
        let rt = Runtime::new(2);
        let mut bad = TiledMatrix::spd_random(32, 8, 5);
        bad.set(20, 20, -50.0);
        let mut rec = RecordedCholesky::record(&rt, bad);
        assert!(rec.replay(&rt).is_err());
        let good = TiledMatrix::spd_random(32, 8, 9);
        rec.load(&good);
        rec.replay(&rt).unwrap();
        assert!(rec.result().cholesky_residual(&good) < 1e-8);
    }

    #[test]
    fn ops_enumeration_counts() {
        // nt tiles: potrf nt, trsm nt(nt-1)/2, syrk nt(nt-1)/2,
        // gemm nt(nt-1)(nt-2)/6
        let nt = 6;
        let ops = cholesky_ops(nt);
        let potrfs = ops
            .iter()
            .filter(|o| matches!(o, CholOp::Potrf { .. }))
            .count();
        let trsms = ops
            .iter()
            .filter(|o| matches!(o, CholOp::Trsm { .. }))
            .count();
        let syrks = ops
            .iter()
            .filter(|o| matches!(o, CholOp::Syrk { .. }))
            .count();
        let gemms = ops
            .iter()
            .filter(|o| matches!(o, CholOp::Gemm { .. }))
            .count();
        assert_eq!(potrfs, nt);
        assert_eq!(trsms, nt * (nt - 1) / 2);
        assert_eq!(syrks, nt * (nt - 1) / 2);
        assert_eq!(gemms, nt * (nt - 1) * (nt - 2) / 6);
    }

    #[test]
    fn ops_accesses_consistent() {
        for op in cholesky_ops(4) {
            let acc = op.accesses();
            assert!(
                acc.iter().filter(|(_, w)| *w).count() == 1,
                "one written tile per op"
            );
        }
    }
}
