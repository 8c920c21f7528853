//! Property-style tests on the invariants the reproduction depends on:
//! sequential consistency of data-flow execution, iteration conservation of
//! adaptive loops, factor/solve round trips, scan/reduce equivalences and
//! simulator scheduling bounds.
//!
//! The container has no registry access, so instead of `proptest` these use
//! a seeded in-repo case generator: every case is deterministic per seed,
//! and a failure message names the case number so it can be replayed by
//! index.

use xkaapi::core::{IntervalCell, Runtime, Shared};

/// Deterministic case-generation RNG (splitmix64).
struct CaseRng(u64);

impl CaseRng {
    fn new(seed: u64) -> CaseRng {
        CaseRng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }

    fn usize_range(&mut self, lo: usize, hi: usize) -> usize {
        self.range(lo as u64, hi as u64) as usize
    }
}

/// Random programs of read/write/exclusive accesses over a handful of
/// handles always produce the sequential-order result.
#[test]
fn dataflow_execution_is_sequentially_consistent() {
    let mut rng = CaseRng::new(0xDF01);
    for case in 0..24 {
        let nops = rng.usize_range(1, 60);
        let workers = rng.usize_range(1, 5);
        let ops: Vec<(usize, usize, u64)> = (0..nops)
            .map(|_| {
                (
                    rng.usize_range(0, 6),
                    rng.usize_range(0, 6),
                    rng.range(1, 9),
                )
            })
            .collect();
        // reference: sequential interpretation  cells[a] += c * cells[b]
        let mut reference = [1u64; 6];
        for &(a, b, c) in &ops {
            reference[a] = reference[a].wrapping_add(c.wrapping_mul(reference[b]));
        }
        let rt = Runtime::new(workers);
        let cells: Vec<Shared<u64>> = (0..6).map(|_| Shared::new(1)).collect();
        rt.scope(|ctx| {
            for &(a, b, c) in &ops {
                let (ca, cb) = (cells[a].clone(), cells[b].clone());
                if a == b {
                    ctx.spawn([cells[a].exclusive()], move |t| {
                        let mut g = t.write(&ca);
                        let v = *g;
                        *g = v.wrapping_add(c.wrapping_mul(v));
                    });
                } else {
                    ctx.spawn([cells[a].exclusive(), cells[b].read()], move |t| {
                        let vb = *t.read(&cb);
                        let mut ga = t.write(&ca);
                        *ga = ga.wrapping_add(c.wrapping_mul(vb));
                    });
                }
            }
        });
        for i in 0..6 {
            assert_eq!(*cells[i].get(), reference[i], "case {case}, cell {i}");
        }
    }
}

/// Random programs of write-only overwrites, exclusive updates and reads
/// over renameable handles produce the sequential-order result with
/// renaming both on and off (renaming only removes WAR/WAW edges, never
/// RAW ones).
#[test]
fn renaming_preserves_sequential_semantics() {
    use std::sync::atomic::{AtomicU64, Ordering};
    let mut rng = CaseRng::new(0xAE08);
    for case in 0..16 {
        let nh = rng.usize_range(1, 4);
        let nops = rng.usize_range(1, 50);
        let workers = rng.usize_range(1, 5);
        // op = (handle, kind, value): kind 0 = write-only overwrite,
        // 1 = exclusive add, 2 = read-accumulate into a checksum.
        let ops: Vec<(usize, u64, u64)> = (0..nops)
            .map(|_| (rng.usize_range(0, nh), rng.range(0, 3), rng.range(1, 100)))
            .collect();
        // Sequential reference.
        let mut cells = vec![0u64; nh];
        let mut checksum = 0u64;
        for &(h, kind, v) in &ops {
            match kind {
                0 => cells[h] = v,
                1 => cells[h] = cells[h].wrapping_add(v),
                _ => checksum = checksum.wrapping_add(cells[h]),
            }
        }
        for renaming in [true, false] {
            let rt = xkaapi::Runtime::builder()
                .workers(workers)
                .renaming(renaming)
                .build();
            let handles: Vec<Shared<u64>> = (0..nh).map(|_| Shared::renameable(0)).collect();
            let sum = AtomicU64::new(0);
            rt.scope(|ctx| {
                let sum = &sum;
                for &(h, kind, v) in &ops {
                    let hc = handles[h].clone();
                    match kind {
                        0 => ctx.spawn([handles[h].write()], move |t| *t.write(&hc) = v),
                        1 => ctx.spawn([handles[h].exclusive()], move |t| {
                            let mut g = t.write(&hc);
                            *g = g.wrapping_add(v);
                        }),
                        _ => ctx.spawn([handles[h].read()], move |t| {
                            sum.fetch_add(*t.read(&hc), Ordering::Relaxed);
                        }),
                    }
                }
            });
            for (i, h) in handles.into_iter().enumerate() {
                assert_eq!(
                    h.into_inner(),
                    cells[i],
                    "case {case}: cell {i} (renaming={renaming}, workers={workers})"
                );
            }
            assert_eq!(
                sum.load(Ordering::Relaxed),
                checksum,
                "case {case}: checksum (renaming={renaming}, workers={workers})"
            );
        }
    }
}

/// foreach executes every index exactly once for arbitrary ranges, grains
/// and worker counts.
#[test]
fn foreach_exactly_once() {
    use std::sync::atomic::{AtomicU8, Ordering};
    let mut rng = CaseRng::new(0xFE02);
    for case in 0..24 {
        let n = rng.usize_range(0, 3000);
        let grain = match rng.range(0, 2) {
            0 => None,
            _ => Some(rng.usize_range(1, 200)),
        };
        let workers = rng.usize_range(1, 5);
        let rt = Runtime::new(workers);
        let hits: Vec<AtomicU8> = (0..n).map(|_| AtomicU8::new(0)).collect();
        rt.foreach_chunks(0..n, grain, |r| {
            for i in r {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(
            hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
            "case {case}: n={n} grain={grain:?} workers={workers}"
        );
    }
}

/// The T.H.E.-style interval never loses or duplicates iterations under any
/// interleaving of front claims and back steals.
#[test]
fn interval_conservation() {
    let mut rng = CaseRng::new(0x1C03);
    for case in 0..24 {
        let n = rng.usize_range(1, 5000);
        let grain = rng.usize_range(1, 64);
        let nops = rng.usize_range(0, 200);
        let iv = IntervalCell::new(0, n);
        let mut seen = vec![false; n];
        let mut stolen_cells: Vec<IntervalCell> = Vec::new();
        for _ in 0..nops {
            let steal = rng.range(0, 2) == 0;
            let k = rng.usize_range(1, 7);
            if steal {
                if let Some(r) = iv.steal_back(k, grain) {
                    stolen_cells.push(IntervalCell::new(r.start, r.end));
                }
            } else if let Some(r) = iv.claim_front(grain) {
                for i in r {
                    assert!(!seen[i], "case {case}: duplicate {i}");
                    seen[i] = true;
                }
            }
        }
        // Drain everything left (victim + thieves).
        while let Some(r) = iv.claim_front(grain) {
            for i in r {
                assert!(!seen[i], "case {case}: duplicate {i}");
                seen[i] = true;
            }
        }
        for cell in &stolen_cells {
            while let Some(r) = cell.claim_front(grain) {
                for i in r {
                    assert!(!seen[i], "case {case}: duplicate {i}");
                    seen[i] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "case {case}: lost iterations");
    }
}

/// Parallel inclusive scan equals the sequential fold for arbitrary inputs
/// (associative non-commutative operation).
#[test]
fn scan_equals_sequential() {
    let mut rng = CaseRng::new(0x5C04);
    for case in 0..12 {
        let len = rng.usize_range(0, 4000);
        let workers = rng.usize_range(1, 5);
        let rt = Runtime::new(workers);
        // affine composition: non-commutative, associative (mod prime)
        let op = |a: (u64, u64), b: (u64, u64)| ((a.0 * b.0) % 10_007, (a.1 * b.0 + b.1) % 10_007);
        let mut v: Vec<(u64, u64)> = (0..len)
            .map(|_| (rng.range(0, 1000) % 7 + 1, rng.range(0, 1000) % 11))
            .collect();
        let mut expect = v.clone();
        for i in 1..expect.len() {
            expect[i] = op(expect[i - 1], expect[i]);
        }
        xkaapi::astl::inclusive_scan(&rt, &mut v, op);
        assert_eq!(v, expect, "case {case}: len={len} workers={workers}");
    }
}

/// Skyline factor + solve round-trips A·x = b for random profiles.
#[test]
fn skyline_factor_solve_roundtrip() {
    use xkaapi::skyline::{ldlt_seq, solve, BlockSkyline, SkylineMatrix};
    let mut rng = CaseRng::new(0x5F05);
    for case in 0..10 {
        let n = rng.usize_range(8, 120);
        let bs = rng.usize_range(4, 24);
        let density = 0.05 + (rng.range(0, 1000) as f64 / 1000.0) * 0.55;
        let seed = rng.range(0, 1000);
        let a = SkylineMatrix::generate_spd(n, density, seed);
        let mut f = BlockSkyline::from_skyline(&a, bs);
        ldlt_seq(&mut f);
        let x_true: Vec<f64> = (0..n).map(|i| ((i * 37 + 5) % 23) as f64 - 11.0).collect();
        let b = a.mvp(&x_true);
        let x = solve(&f, &b);
        let err = x
            .iter()
            .zip(&x_true)
            .map(|(p, q)| (p - q).abs())
            .fold(0.0f64, f64::max);
        assert!(
            err < 1e-5,
            "case {case}: solve error {err} (n={n}, bs={bs})"
        );
    }
}

/// Simulated makespans always respect the work and span lower bounds and
/// executing with more cores never increases the makespan beyond the
/// 1-core run.
#[test]
fn simulator_respects_bounds() {
    use xkaapi::sim::{simulate_dag, DagPolicy, Platform, SimTask, TaskDag};
    let mut rng = CaseRng::new(0x5B06);
    for case in 0..16 {
        let nt = rng.usize_range(2, 10);
        let cores = rng.usize_range(1, 48);
        let work = rng.range(1_000, 1_000_000);
        let ops = xkaapi::linalg::cholesky_ops(nt);
        let tasks: Vec<SimTask> = ops
            .iter()
            .map(|_| SimTask {
                work_ns: work,
                bytes: 0,
            })
            .collect();
        let acc: Vec<Vec<(u64, bool)>> = ops.iter().map(|o| o.accesses()).collect();
        let dag = TaskDag::from_accesses(tasks, &acc);
        let pol = DagPolicy::WorkStealing {
            steal_ns: 100,
            task_overhead_ns: 10,
            aggregation: true,
            spawn_ns: 0,
        };
        let t1 = simulate_dag(&Platform::magny_cours(1), &dag, &pol, 7).makespan_ns;
        let tp = simulate_dag(&Platform::magny_cours(cores), &dag, &pol, 7).makespan_ns;
        assert!(
            tp >= dag.total_work_ns() / cores as u64,
            "case {case}: work bound"
        );
        assert!(tp >= dag.critical_path_ns(), "case {case}: span bound");
        assert!(
            tp <= t1 + t1 / 10,
            "case {case}: tp {tp} should not exceed t1 {t1}"
        );
    }
}

/// Dense Cholesky on the data-flow runtime matches the sequential
/// factorisation for random SPD matrices.
#[test]
fn dataflow_cholesky_matches_seq() {
    use xkaapi::linalg::{cholesky_seq, cholesky_xkaapi, TiledMatrix};
    let mut rng = CaseRng::new(0xC407);
    for case in 0..8 {
        let nt = rng.usize_range(2, 6);
        let seed = rng.range(0, 500);
        let workers = rng.usize_range(1, 5);
        let nb = 8;
        let orig = TiledMatrix::spd_random(nt * nb, nb, seed);
        let mut reference = orig.clone_matrix();
        cholesky_seq(&mut reference).unwrap();
        let rt = Runtime::new(workers);
        let a = cholesky_xkaapi(&rt, orig).unwrap();
        assert_eq!(
            a.max_abs_diff_lower(&reference),
            0.0,
            "case {case}: nt={nt} seed={seed} workers={workers}"
        );
    }
}
