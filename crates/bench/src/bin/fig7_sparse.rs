//! Fig. 7 — sparse skyline LDLᵀ speedup: X-Kaapi data-flow vs the
//! OpenMP version with `taskwait` phase barriers, cores 1..45.
//!
//! The paper factors the MAXPLANE H matrix (n = 59462, 3.59 % nonzeros,
//! best block size BS = 88, sequential time 47.79 s). We generate a
//! skyline matrix with the same density/profile shape (scaled order by
//! default), build the *actual* blocked-factorisation DAG from the block
//! envelope, measure the block kernels for real, and schedule both
//! dependency structures — true data-flow edges vs phase barriers — with
//! the same work-stealing policy in virtual time. The gap is then exactly
//! the cost of the synchronisation the paper blames.
//!
//! A real cross-check asserts that both parallel factorisations bit-agree
//! with the sequential one on this host.
//!
//! Usage: `fig7_sparse [n]` (default 8800; paper: 59462).

use xkaapi_bench::{calibrate_kernels, print_table, scale_costs, skyline_dag, ws_policy};
use xkaapi_sim::{simulate_dag, Platform};
use xkaapi_skyline::{BlockSkyline, SkylineMatrix};

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8_800);
    const BS: usize = 88; // the paper's best block size
    const DENSITY: f64 = 0.0359;
    println!("# Fig. 7 — skyline LDLᵀ speedups (n={n}, density {DENSITY}, BS={BS})");
    println!("(paper: n=59462, Tseq=47.79 s)");

    let a = SkylineMatrix::generate_spd(n, DENSITY, 2026);
    println!(
        "\ngenerated matrix: density {:.4} ({} stored entries)",
        a.density(),
        a.stored()
    );
    let bsk = BlockSkyline::from_skyline(&a, BS);
    println!(
        "block skyline: {} block rows, {} stored blocks",
        bsk.nbl,
        bsk.stored_blocks()
    );

    // Calibrate block kernels (nb=88 measured through nb=96 scaling).
    let base = calibrate_kernels(88);
    let costs = scale_costs(&base, BS);

    let flow = skyline_dag(&bsk, &costs, false);
    let omp = skyline_dag(&bsk, &costs, true);
    println!(
        "\nDAG: {} tasks, work {:.3} s, critical path: dataflow {:.1} ms vs omp-barriers {:.1} ms",
        flow.len(),
        flow.total_work_ns() as f64 / 1e9,
        flow.critical_path_ns() as f64 / 1e6,
        omp.critical_path_ns() as f64 / 1e6,
    );

    let cores = [1usize, 2, 4, 8, 12, 16, 24, 32, 40, 45];
    let t1 = simulate_dag(&Platform::magny_cours(1), &flow, &ws_policy(), 1).makespan_ns as f64;
    let rows: Vec<Vec<String>> = cores
        .iter()
        .map(|&c| {
            let p = Platform::magny_cours(c);
            let tf = simulate_dag(&p, &flow, &ws_policy(), 1).makespan_ns as f64;
            let to = simulate_dag(&p, &omp, &ws_policy(), 1).makespan_ns as f64;
            vec![
                c.to_string(),
                format!("{:.2}", t1 / to),
                format!("{:.2}", t1 / tf),
                c.to_string(),
            ]
        })
        .collect();
    print_table(
        "Speedup (Tp/Tseq)",
        &["cores", "OpenMP", "XKaapi", "ideal"],
        &rows,
    );
    println!("\n(paper: XKaapi clearly above OpenMP; barriers cap the OpenMP curve)");

    // --- real cross-check ------------------------------------------------
    println!("\n## Real cross-check (n=600, BS=24, 4 threads)");
    let a = SkylineMatrix::generate_spd(600, 0.06, 5);
    let mut f_seq = BlockSkyline::from_skyline(&a, 24);
    xkaapi_skyline::ldlt_seq(&mut f_seq);
    let rt = xkaapi_core::Runtime::new(4);
    let f_k = xkaapi_skyline::ldlt_xkaapi(&rt, BlockSkyline::from_skyline(&a, 24));
    let pool = xkaapi_omp::OmpPool::new(4);
    let mut f_o = BlockSkyline::from_skyline(&a, 24);
    xkaapi_skyline::ldlt_omp(&pool, &mut f_o);
    let mut dk: f64 = 0.0;
    let mut do_: f64 = 0.0;
    for i in 0..600 {
        for j in 0..=i {
            dk = dk.max((f_k.at(i, j) - f_seq.at(i, j)).abs());
            do_ = do_.max((f_o.at(i, j) - f_seq.at(i, j)).abs());
        }
    }
    println!("xkaapi dataflow : max|Δ| vs seq = {dk:.2e}");
    println!("omp taskwait    : max|Δ| vs seq = {do_:.2e}");
    assert_eq!(
        dk, 0.0,
        "xkaapi dataflow differs from the sequential factor"
    );
    assert_eq!(do_, 0.0, "omp taskwait differs from the sequential factor");
}
