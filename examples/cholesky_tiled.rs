//! Dense tiled Cholesky on all four drivers (the Fig. 2 setup, for real):
//! sequential, QUARK-centralized, QUARK-on-X-Kaapi, direct data-flow and
//! PLASMA-style static — all producing the same factor — plus the data-flow
//! DAG recorded once and replayed.
//!
//! Writes five schedule exports to the working directory: the online
//! run's chrome trace (`cholesky_online_trace.json`), the recorded DAG
//! (`cholesky_recorded.dot`, `cholesky_recorded_trace.json`) and the
//! measured replay (`cholesky_executed.dot`, `cholesky_replay_trace.json`).
//! Load the JSON files in chrome://tracing or https://ui.perfetto.dev.
//!
//! ```text
//! cargo run --release --example cholesky_tiled [n] [nb] [threads]
//! ```

use std::sync::Arc;
use std::time::Instant;
use xkaapi::core::Runtime;
use xkaapi::linalg::{
    cholesky_quark, cholesky_seq, cholesky_static, cholesky_xkaapi, flops, RecordedCholesky,
    TiledMatrix,
};
use xkaapi::quark::Quark;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(512);
    let nb: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(64);
    let threads: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);
    assert!(n.is_multiple_of(nb), "n must be a multiple of nb");
    println!(
        "tiled Cholesky: n={n}, nb={nb} ({}x{} tiles), {threads} threads",
        n / nb,
        n / nb
    );

    let orig = TiledMatrix::spd_random(n, nb, 42);
    let gf = |ns: u128| flops::cholesky(n) / ns as f64;

    let mut a = orig.clone_matrix();
    let t0 = Instant::now();
    cholesky_seq(&mut a).expect("SPD");
    let t_seq = t0.elapsed().as_nanos();
    println!(
        "sequential      : {:8.1} ms  {:5.2} GFlop/s",
        t_seq as f64 / 1e6,
        gf(t_seq)
    );
    let reference = a;

    // The online data-flow run executes with live telemetry on; the
    // recorded timeline (task spans, steals, parks — one Perfetto lane
    // per worker) is dumped next to the timings. Tracing is switched
    // back off before the later drivers so the trace covers exactly
    // this run.
    let rt = Arc::new(Runtime::new(threads));
    rt.set_tracing(true);
    let t0 = Instant::now();
    let a = cholesky_xkaapi(&rt, orig.clone_matrix()).expect("SPD");
    let t = t0.elapsed().as_nanos();
    rt.set_tracing(false);
    let trace = rt.take_trace();
    std::fs::write("cholesky_online_trace.json", trace.to_chrome_trace())
        .expect("write online trace");
    println!(
        "xkaapi dataflow : {:8.1} ms  {:5.2} GFlop/s  (max|Δ| {:.1e})",
        t as f64 / 1e6,
        gf(t),
        a.max_abs_diff_lower(&reference)
    );
    println!(
        "  wrote cholesky_online_trace.json ({} events, {} worker lanes)",
        trace.total_events(),
        trace.worker_count()
    );

    // The same factorization recorded once and replayed with the
    // measured schedule kept: the recorded DAG (DOT + predicted chrome
    // trace) and the executed one (DOT + real chrome trace) are dumped
    // beside the online trace. A replay must reproduce the factor exactly.
    let rec = RecordedCholesky::record(&rt, orig.clone_matrix());
    let t0 = Instant::now();
    let (res, replay) = rec.replay_traced(&rt);
    let t = t0.elapsed().as_nanos();
    res.expect("SPD");
    let diff = rec.result().max_abs_diff_lower(&reference);
    assert_eq!(
        diff, 0.0,
        "the replayed factor differs from the sequential one"
    );
    let st = rec.dag().stats();
    println!(
        "xkaapi replay   : {:8.1} ms  {:5.2} GFlop/s  (max|Δ| {diff:.1e}, {} tasks in {} groups)",
        t as f64 / 1e6,
        gf(t),
        st.tasks,
        st.groups
    );
    for (file, contents) in [
        ("cholesky_recorded.dot", rec.dag().to_dot()),
        ("cholesky_recorded_trace.json", rec.dag().to_chrome_trace()),
        ("cholesky_executed.dot", rec.dag().executed_dot(&replay)),
        ("cholesky_replay_trace.json", replay.to_chrome_trace()),
    ] {
        std::fs::write(file, contents).expect("write schedule export");
        println!("  wrote {file}");
    }

    let q = Quark::new_centralized(threads);
    let mut a = orig.clone_matrix();
    let t0 = Instant::now();
    cholesky_quark(&q, &mut a).expect("SPD");
    let t = t0.elapsed().as_nanos();
    println!(
        "quark central   : {:8.1} ms  {:5.2} GFlop/s  (max|Δ| {:.1e}, {} queue ops)",
        t as f64 / 1e6,
        gf(t),
        a.max_abs_diff_lower(&reference),
        q.queue_ops().unwrap()
    );

    let q = Quark::new_on_xkaapi(Arc::clone(&rt));
    let mut a = orig.clone_matrix();
    let t0 = Instant::now();
    cholesky_quark(&q, &mut a).expect("SPD");
    let t = t0.elapsed().as_nanos();
    println!(
        "quark on xkaapi : {:8.1} ms  {:5.2} GFlop/s  (max|Δ| {:.1e})",
        t as f64 / 1e6,
        gf(t),
        a.max_abs_diff_lower(&reference)
    );

    let mut a = orig.clone_matrix();
    let t0 = Instant::now();
    cholesky_static(threads, &mut a).expect("SPD");
    let t = t0.elapsed().as_nanos();
    println!(
        "plasma static   : {:8.1} ms  {:5.2} GFlop/s  (max|Δ| {:.1e})",
        t as f64 / 1e6,
        gf(t),
        a.max_abs_diff_lower(&reference)
    );

    println!(
        "residual |A - L·Lᵀ| of the reference factor: {:.2e}",
        reference.cholesky_residual(&orig)
    );
}
