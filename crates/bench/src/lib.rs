//! Shared infrastructure of the figure-regeneration harnesses: host
//! calibration (real single-core kernel and task-overhead measurements
//! that parameterize the simulator), DAG builders bridging the algorithm
//! crates to `xkaapi-sim`, and table printing.
//!
//! Each `src/bin/figN_*.rs` binary regenerates one table/figure of the
//! paper; `EXPERIMENTS.md` records the measured outputs next to the paper's
//! values.

#![warn(missing_docs)]

use std::time::Instant;
use xkaapi_linalg::{flops, CholOp, TiledMatrix};
use xkaapi_sim::{DagPolicy, SimTask, TaskDag};
use xkaapi_skyline::{BlockSkyline, SkyOp};

/// ~µs of un-optimizable work (an LCG chain), so thieves can win task
/// claims from the owner on a time-sliced host.
#[inline]
pub fn busy_work(tag: u64, iters: u64) -> u64 {
    let mut acc = tag;
    for i in 0..iters {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
    }
    std::hint::black_box(acc)
}

/// Steal-heavy mixed workload of `ablation`'s victim sweep: 16×25
/// exclusive data-flow chains with busy links (data-flow steals) plus an
/// adaptive reduction whose on-demand splits hand slices to requesting
/// thieves (adaptive steals). Returns a schedule-independent checksum.
pub fn steal_heavy_workload(rt: &xkaapi_core::Runtime) -> u64 {
    use xkaapi_core::Shared;
    let cells: Vec<Shared<u64>> = (0..16).map(|_| Shared::new(1)).collect();
    rt.scope(|ctx| {
        for round in 0..25u64 {
            for (i, c) in cells.iter().enumerate() {
                let cw = c.clone();
                ctx.spawn([c.exclusive()], move |t| {
                    busy_work(round, 2000);
                    *t.write(&cw) += round + i as u64;
                });
            }
        }
    });
    let chain_sum: u64 = cells.iter().map(|c| *c.get()).sum();
    let loop_sum = rt.foreach_reduce(
        0..40_000,
        None,
        || 0u64,
        |a, i| {
            busy_work(i as u64, 40);
            *a += i as u64;
        },
        |a, b| a + b,
    );
    chain_sum.wrapping_add(loop_sum)
}

/// Median wall time of `f` over `iters` runs, in nanoseconds.
pub fn measure_ns<F: FnMut()>(iters: usize, mut f: F) -> u64 {
    assert!(iters >= 1);
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_nanos() as u64);
    }
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Calibrated per-kernel costs for tile size `nb` (nanoseconds).
#[derive(Clone, Copy, Debug)]
pub struct KernelCosts {
    /// Tile size these costs were measured at.
    pub nb: usize,
    /// `potrf` cost.
    pub potrf_ns: u64,
    /// `trsm` cost.
    pub trsm_ns: u64,
    /// `syrk` cost.
    pub syrk_ns: u64,
    /// `gemm` cost.
    pub gemm_ns: u64,
}

/// Measure the dense tile kernels on this host at size `nb`.
pub fn calibrate_kernels(nb: usize) -> KernelCosts {
    use xkaapi_linalg::kernels::{gemm, potrf, syrk, trsm};
    let spd = TiledMatrix::spd_random(nb, nb, 42);
    let base: Vec<f64> = spd.tile(0, 0).to_vec();
    let mut l = base.clone();
    potrf(&mut l, nb).unwrap();
    let reps = if nb >= 192 { 3 } else { 5 };

    let potrf_ns = measure_ns(reps, || {
        let mut t = base.clone();
        potrf(&mut t, nb).unwrap();
        std::hint::black_box(&t);
    });
    let clone_ns = measure_ns(reps, || {
        let t = base.clone();
        std::hint::black_box(&t);
    });
    let trsm_ns = measure_ns(reps, || {
        let mut b = base.clone();
        trsm(&l, &mut b, nb);
        std::hint::black_box(&b);
    });
    let syrk_ns = measure_ns(reps, || {
        let mut c = base.clone();
        syrk(&l, &mut c, nb);
        std::hint::black_box(&c);
    });
    let gemm_ns = measure_ns(reps, || {
        let mut c = base.clone();
        gemm(&l, &base, &mut c, nb);
        std::hint::black_box(&c);
    });
    KernelCosts {
        nb,
        potrf_ns: potrf_ns.saturating_sub(clone_ns).max(1),
        trsm_ns: trsm_ns.saturating_sub(clone_ns).max(1),
        syrk_ns: syrk_ns.saturating_sub(clone_ns).max(1),
        gemm_ns: gemm_ns.saturating_sub(clone_ns).max(1),
    }
}

/// Scale measured costs from tile size `from.nb` to `nb` using the kernels'
/// flop-count ratios (used to reach tile sizes too slow to measure often).
pub fn scale_costs(from: &KernelCosts, nb: usize) -> KernelCosts {
    let r3 = (nb as f64 / from.nb as f64).powi(3);
    KernelCosts {
        nb,
        potrf_ns: (from.potrf_ns as f64 * r3) as u64,
        trsm_ns: (from.trsm_ns as f64 * r3) as u64,
        syrk_ns: (from.syrk_ns as f64 * r3) as u64,
        gemm_ns: (from.gemm_ns as f64 * r3) as u64,
    }
}

/// Tile memory traffic (bytes) of one kernel on `nb × nb` f64 tiles:
/// roughly `touched_tiles × nb² × 8`.
fn tile_bytes(nb: usize, tiles: u64) -> u64 {
    (nb * nb * 8) as u64 * tiles
}

/// Build the simulator DAG of an `nt × nt` tiled Cholesky.
pub fn cholesky_dag(nt: usize, costs: &KernelCosts) -> TaskDag {
    let ops = xkaapi_linalg::cholesky_ops(nt);
    let nb = costs.nb;
    let mut tasks = Vec::with_capacity(ops.len());
    let mut accesses = Vec::with_capacity(ops.len());
    for op in &ops {
        let work_ns = match op {
            CholOp::Potrf { .. } => costs.potrf_ns,
            CholOp::Trsm { .. } => costs.trsm_ns,
            CholOp::Syrk { .. } => costs.syrk_ns,
            CholOp::Gemm { .. } => costs.gemm_ns,
        };
        let ntiles = match op {
            CholOp::Potrf { .. } => 1,
            CholOp::Trsm { .. } | CholOp::Syrk { .. } => 2,
            CholOp::Gemm { .. } => 3,
        };
        tasks.push(SimTask {
            work_ns,
            bytes: tile_bytes(nb, ntiles),
        });
        accesses.push(op.accesses());
    }
    TaskDag::from_accesses(tasks, &accesses)
}

/// Static owner map for the Cholesky DAG: round-robin over the sequential
/// operation order — an idealized zero-overhead static pipeline, which is
/// what PLASMA's hand-tuned static schedule approximates (a plain
/// row-cyclic map would idle cores whenever `nt < p`).
pub fn cholesky_static_owner(nt: usize, cores: usize) -> Vec<u32> {
    let ops = xkaapi_linalg::cholesky_ops(nt);
    (0..ops.len()).map(|i| (i % cores) as u32).collect()
}

/// GFlop/s of an `n × n` Cholesky completed in `makespan_ns`.
pub fn gflops(n: usize, makespan_ns: u64) -> f64 {
    flops::cholesky(n) / makespan_ns as f64
}

/// Build the simulator DAG of a blocked skyline LDLᵀ, either with true
/// data-flow dependences (X-Kaapi) or with the OpenMP phase barriers.
pub fn skyline_dag(bsk: &BlockSkyline, costs: &KernelCosts, omp_phases: bool) -> TaskDag {
    let ops = xkaapi_skyline::ldlt_ops(bsk);
    let nbl = bsk.nbl;
    let nb = costs.nb;
    let mk = |op: &SkyOp| -> SimTask {
        let (work_ns, tiles) = match op {
            SkyOp::Potrf { .. } => (costs.potrf_ns, 1),
            SkyOp::Trsm { .. } => (costs.trsm_ns, 2),
            SkyOp::Syrk { .. } => (costs.syrk_ns, 2),
            SkyOp::Gemm { .. } => (costs.gemm_ns, 3),
        };
        SimTask {
            work_ns,
            bytes: tile_bytes(nb, tiles),
        }
    };
    let tasks: Vec<SimTask> = ops.iter().map(mk).collect();
    if omp_phases {
        // The paper's OpenMP version: potrf runs alone (master), trsm tasks
        // then taskwait, syrk/gemm tasks then taskwait.
        let phases: Vec<u32> = ops
            .iter()
            .map(|op| match *op {
                SkyOp::Potrf { k } => 3 * k as u32,
                SkyOp::Trsm { k, .. } => 3 * k as u32 + 1,
                SkyOp::Syrk { k, .. } | SkyOp::Gemm { k, .. } => 3 * k as u32 + 2,
            })
            .collect();
        TaskDag::from_phases(tasks, &phases)
    } else {
        let accesses: Vec<Vec<(u64, bool)>> = ops.iter().map(|op| op.accesses(nbl)).collect();
        TaskDag::from_accesses(tasks, &accesses)
    }
}

/// Default work-stealing policy constants (X-Kaapi): calibrated order of
/// magnitude for steal and task-management costs.
pub fn ws_policy() -> DagPolicy {
    DagPolicy::WorkStealing {
        steal_ns: 300,
        task_overhead_ns: 80,
        aggregation: true,
        // measured: the X-Kaapi fast spawn is ~50-250 ns on this host
        spawn_ns: 100,
    }
}

/// Default centralized-list policy constants (QUARK / libGOMP tasks).
pub fn central_policy() -> DagPolicy {
    DagPolicy::CentralQueue {
        queue_ns: 600,
        task_overhead_ns: 800,
        // QUARK's insertion-time dependence analysis (hashing every
        // argument address, window bookkeeping) is in the microseconds.
        insert_ns: 1_500,
    }
}

/// Print a markdown-ish table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    println!("| {} |", headers.join(" | "));
    println!(
        "|{}|",
        headers.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for r in rows {
        println!("| {} |", r.join(" | "));
    }
}

/// The core counts the paper samples.
pub const PAPER_CORES: [usize; 9] = [1, 2, 4, 8, 16, 24, 32, 40, 48];

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use xkaapi_core::{Runtime, Shared, Steal};
    use xkaapi_sim::{simulate_dag, Platform};

    /// The acceptance gate of the engine refactor: the same mixed-paradigm
    /// program produces identical results under both steal protocols.
    #[test]
    fn all_policies_produce_identical_results() {
        let mut outcomes = Vec::new();
        for steal in [Steal::AGGREGATED, Steal::PER_THIEF] {
            let rt = Runtime::builder().workers(4).steal(steal).build();
            // Data-flow chain with a read fan-out.
            let h = Shared::new(1u64);
            let sum = Shared::new(0u64);
            rt.scope(|ctx| {
                for _ in 0..40 {
                    let hw = h.clone();
                    ctx.spawn([h.exclusive()], move |t| *t.write(&hw) += 1);
                }
                let (hr, sw) = (h.clone(), sum.clone());
                ctx.spawn([h.read(), sum.write()], move |t| {
                    *t.write(&sw) = 2 * *t.read(&hr);
                });
            });
            // Fork-join fib.
            let f = rt.scope(|ctx| {
                fn fib(c: &mut xkaapi_core::Ctx<'_>, n: u64) -> u64 {
                    if n < 2 {
                        n
                    } else {
                        let (a, b) = c.join(|c| fib(c, n - 1), |c| fib(c, n - 2));
                        a + b
                    }
                }
                fib(ctx, 12)
            });
            // Adaptive loop.
            let hits = AtomicU64::new(0);
            rt.foreach(0..5000, |_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
            outcomes.push((*h.get(), *sum.get(), f, hits.load(Ordering::Relaxed)));
        }
        assert_eq!(outcomes[0], (41, 82, 144, 5000));
        assert_eq!(
            outcomes[1], outcomes[0],
            "per-thief diverged from aggregated"
        );
    }

    #[test]
    fn calibration_produces_ordered_costs() {
        let c = calibrate_kernels(32);
        // gemm (2n³) must cost more than trsm (n³) on any host
        assert!(c.gemm_ns > c.trsm_ns / 2, "{c:?}");
        assert!(c.potrf_ns >= 1);
    }

    #[test]
    fn scaling_follows_cubic_law() {
        let c = KernelCosts {
            nb: 32,
            potrf_ns: 100,
            trsm_ns: 300,
            syrk_ns: 300,
            gemm_ns: 600,
        };
        let s = scale_costs(&c, 64);
        assert_eq!(s.gemm_ns, 4800);
        assert_eq!(s.nb, 64);
    }

    #[test]
    fn cholesky_dag_has_expected_size() {
        let c = KernelCosts {
            nb: 128,
            potrf_ns: 1,
            trsm_ns: 2,
            syrk_ns: 2,
            gemm_ns: 4,
        };
        let nt = 8;
        let d = cholesky_dag(nt, &c);
        let expect = nt + nt * (nt - 1) + nt * (nt - 1) * (nt - 2) / 6;
        assert_eq!(d.len(), expect);
        // critical path of tiled cholesky is Θ(nt) tasks, far below total
        assert!(d.critical_path_ns() < d.total_work_ns() / 2);
    }

    #[test]
    fn cholesky_dag_simulates_with_speedup() {
        let costs = KernelCosts {
            nb: 128,
            potrf_ns: 400_000,
            trsm_ns: 1_000_000,
            syrk_ns: 1_000_000,
            gemm_ns: 2_000_000,
        };
        let d = cholesky_dag(16, &costs);
        let t1 = simulate_dag(&Platform::magny_cours(1), &d, &ws_policy(), 1).makespan_ns;
        let t8 = simulate_dag(&Platform::magny_cours(8), &d, &ws_policy(), 1).makespan_ns;
        assert!(t1 as f64 / t8 as f64 > 4.0);
    }

    #[test]
    fn skyline_dags_differ_in_critical_path() {
        let a = xkaapi_skyline::SkylineMatrix::generate_spd(600, 0.08, 5);
        let bsk = BlockSkyline::from_skyline(&a, 24);
        let costs = KernelCosts {
            nb: 24,
            potrf_ns: 10_000,
            trsm_ns: 25_000,
            syrk_ns: 25_000,
            gemm_ns: 50_000,
        };
        let flow = skyline_dag(&bsk, &costs, false);
        let omp = skyline_dag(&bsk, &costs, true);
        // Phase barriers can only lengthen the critical path.
        assert!(omp.critical_path_ns() >= flow.critical_path_ns());
        assert_eq!(
            flow.total_work_ns(),
            omp.total_work_ns(),
            "same work, different ordering constraints"
        );
    }

    #[test]
    fn static_owner_covers_all_ops() {
        let owner = cholesky_static_owner(10, 4);
        assert_eq!(owner.len(), xkaapi_linalg::cholesky_ops(10).len());
        assert!(owner.iter().all(|&o| o < 4));
    }

    #[test]
    fn gflops_sane() {
        // 3000³/3 flops in 0.06 s ≈ 150 GFlop/s (the paper's headline point)
        let g = gflops(3000, 60_000_000);
        assert!(g > 140.0 && g < 160.0, "{g}");
    }
}
