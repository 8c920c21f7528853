//! The six call workloads: one per paradigm and grain. Each holds a plain
//! sequential reference, a 1-worker runtime and a W-worker runtime, and
//! exposes one timed call per variant; input copies and verification stay
//! outside the timer. `submit_jobs` lives in [`crate::jobs`].

use crate::spans::Spans;
use crate::stats::{busy_work, Rng};
use std::hint::black_box;
use xkaapi_core::{Ctx, Runtime};
use xkaapi_linalg::{cholesky_seq, cholesky_xkaapi, RecordedCholesky, TiledMatrix};

/// Variant indices of a round, in sampling order.
pub const SEQ: usize = 0;
pub const ONE: usize = 1;
pub const MANY: usize = 2;

pub fn pool(workers: usize) -> Runtime {
    Runtime::builder().workers(workers).build()
}

/// The 1-worker and the W-worker runtime of a workload.
pub struct Pools {
    pub one: Runtime,
    pub many: Runtime,
}

impl Pools {
    pub fn new(many_workers: usize) -> Pools {
        Pools {
            one: pool(1),
            many: pool(many_workers),
        }
    }

    pub fn get(&self, v: usize) -> &Runtime {
        if v == ONE {
            &self.one
        } else {
            &self.many
        }
    }
}

pub trait Workload {
    /// Operations one timed call performs (the unit is the workload's).
    fn ops(&self) -> u64;
    /// `foreach` loops one timed call launches.
    fn loops(&self) -> u64 {
        0
    }
    /// Variants sampled per round; `submit_jobs` adds its open-loop slice.
    fn variants(&self) -> usize {
        3
    }
    fn pools(&self) -> &Pools;
    /// Span name of the untimed step that readies the input of `v`.
    fn prepare_name(&self, _v: usize) -> &'static str {
        "input.clone"
    }
    /// Span name of the timed call of a runtime variant.
    fn call_name(&self) -> &'static str;
    /// Span name of the timed call of variant `v`.
    fn span_name(&self, v: usize) -> &'static str {
        if v == SEQ {
            "seq"
        } else {
            self.call_name()
        }
    }
    fn prepare(&mut self, v: usize);
    /// The timed region: only the named call.
    fn call(&mut self, v: usize);
    /// Check the output of the last call: (operations checked, failed).
    fn verify(&mut self, v: usize) -> (u64, u64);
    /// Turn the per-job stamps of `submit_jobs` on or off.
    fn set_traced(&mut self, _on: bool) {}
    /// Move the stamps of the last call into `spans` under `parent`.
    fn drain_spans(&mut self, _spans: &mut Spans, _parent: u32, _round: u32) {}
    /// Open-loop job latencies in µs, where the workload has an open loop.
    fn job_latencies(&mut self) -> Option<&mut crate::stats::Samples> {
        None
    }
    /// A condition on the whole run, checked once at its end.
    fn invariant(&self) -> Result<(), String> {
        Ok(())
    }
}

// --- forkjoin_fib ------------------------------------------------------

const FIB_N: u64 = 27;
const FIB_VALUE: u64 = 196_418;
/// Interior calls of `fib(27)`: one `join` each.
const FIB_JOINS: u64 = 317_810;

fn fib_seq(n: u64) -> u64 {
    if n < 2 {
        n
    } else {
        fib_seq(n - 1) + fib_seq(n - 2)
    }
}

pub fn fib(c: &mut Ctx<'_>, n: u64) -> u64 {
    if n < 2 {
        n
    } else {
        let (a, b) = c.join(|c| fib(c, n - 1), |c| fib(c, n - 2));
        a + b
    }
}

/// `fib(27)` by `Ctx::join` without cutoff. The input is the constant 27:
/// the seed has nothing to vary here.
pub struct ForkjoinFib {
    pools: Pools,
    out: u64,
}

impl ForkjoinFib {
    pub fn new(w: usize) -> ForkjoinFib {
        ForkjoinFib {
            pools: Pools::new(w),
            out: 0,
        }
    }
}

impl Workload for ForkjoinFib {
    fn ops(&self) -> u64 {
        FIB_JOINS
    }
    fn pools(&self) -> &Pools {
        &self.pools
    }
    fn call_name(&self) -> &'static str {
        "runtime.scope"
    }
    fn prepare(&mut self, _v: usize) {
        self.out = 0;
    }
    fn call(&mut self, v: usize) {
        let n = black_box(FIB_N);
        self.out = match v {
            SEQ => fib_seq(n),
            _ => self.pools.get(v).scope(|c| fib(c, n)),
        };
    }
    fn verify(&mut self, _v: usize) -> (u64, u64) {
        (1, u64::from(self.out != FIB_VALUE))
    }
}

// --- dataflow_fine / dataflow_coarse / replay_fine ---------------------

/// Bitwise equality of the lower triangle, tile by tile.
fn same_lower(a: &TiledMatrix, b: &TiledMatrix) -> bool {
    (0..a.nt).all(|i| {
        (0..=i).all(|j| {
            let (x, y) = (a.tile(i, j), b.tile(i, j));
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        })
    })
}

/// Flops of one factorization, the op count of the Cholesky workloads.
fn cholesky_flops(a: &TiledMatrix) -> u64 {
    let n = a.n as u64;
    n * n * n / 3
}

fn factor_reference(orig: &TiledMatrix) -> TiledMatrix {
    let mut r = orig.clone_matrix();
    cholesky_seq(&mut r).expect("the generated matrix is diagonally dominant");
    r
}

/// Tiled Cholesky on the data-flow engine (`cholesky_xkaapi`); the tile
/// size sets the grain.
pub struct Dataflow {
    pools: Pools,
    orig: TiledMatrix,
    reference: TiledMatrix,
    work: Option<TiledMatrix>,
}

impl Dataflow {
    pub fn new(w: usize, seed: u64, n: usize, nb: usize) -> Dataflow {
        let orig = TiledMatrix::spd_random(n, nb, seed);
        let reference = factor_reference(&orig);
        Dataflow {
            pools: Pools::new(w),
            orig,
            reference,
            work: None,
        }
    }
}

impl Workload for Dataflow {
    fn ops(&self) -> u64 {
        cholesky_flops(&self.orig)
    }
    fn pools(&self) -> &Pools {
        &self.pools
    }
    fn call_name(&self) -> &'static str {
        "runtime.scope"
    }
    fn prepare(&mut self, _v: usize) {
        self.work = Some(self.orig.clone_matrix());
    }
    fn call(&mut self, v: usize) {
        let mut a = self.work.take().expect("prepare ran");
        self.work = match v {
            SEQ => cholesky_seq(&mut a).ok().map(|()| a),
            _ => cholesky_xkaapi(self.pools.get(v), a).ok(),
        };
    }
    fn verify(&mut self, _v: usize) -> (u64, u64) {
        let ok = self
            .work
            .take()
            .is_some_and(|a| same_lower(&a, &self.reference));
        (1, u64::from(!ok))
    }
}

/// The same DAG and kernels as `dataflow_fine`, recorded once per runtime
/// in set-up and replayed: no per-iteration dependency analysis.
pub struct Replay {
    pools: Pools,
    orig: TiledMatrix,
    reference: TiledMatrix,
    work: Option<TiledMatrix>,
    recs: [RecordedCholesky; 2],
    replayed: bool,
    pushes_at_start: [u64; 2],
}

fn counter(rt: &Runtime, name: &str) -> u64 {
    rt.metrics().get(name).unwrap_or(0)
}

impl Replay {
    pub fn new(w: usize, seed: u64, n: usize, nb: usize) -> Replay {
        let orig = TiledMatrix::spd_random(n, nb, seed);
        let reference = factor_reference(&orig);
        let pools = Pools::new(w);
        let recs = [
            RecordedCholesky::record(&pools.one, orig.clone_matrix()),
            RecordedCholesky::record(&pools.many, orig.clone_matrix()),
        ];
        let pushes_at_start = [
            counter(&pools.one, "dataflow_pushes"),
            counter(&pools.many, "dataflow_pushes"),
        ];
        Replay {
            pools,
            orig,
            reference,
            work: None,
            recs,
            replayed: false,
            pushes_at_start,
        }
    }
}

impl Workload for Replay {
    fn ops(&self) -> u64 {
        cholesky_flops(&self.orig)
    }
    fn pools(&self) -> &Pools {
        &self.pools
    }
    fn prepare_name(&self, v: usize) -> &'static str {
        if v == SEQ {
            "input.clone"
        } else {
            "record.load"
        }
    }
    fn call_name(&self) -> &'static str {
        "record.replay"
    }
    fn prepare(&mut self, v: usize) {
        match v {
            SEQ => self.work = Some(self.orig.clone_matrix()),
            _ => self.recs[v - ONE].load(&self.orig),
        }
    }
    fn call(&mut self, v: usize) {
        match v {
            SEQ => {
                let mut a = self.work.take().expect("prepare ran");
                self.work = cholesky_seq(&mut a).ok().map(|()| a);
            }
            _ => self.replayed = self.recs[v - ONE].replay(self.pools.get(v)).is_ok(),
        }
    }
    fn verify(&mut self, v: usize) -> (u64, u64) {
        let out = match v {
            SEQ => self.work.take(),
            _ => self.replayed.then(|| self.recs[v - ONE].result()),
        };
        let ok = out.is_some_and(|a| same_lower(&a, &self.reference));
        (1, u64::from(!ok))
    }
    fn invariant(&self) -> Result<(), String> {
        for (i, rt) in [&self.pools.one, &self.pools.many].into_iter().enumerate() {
            let pushes = counter(rt, "dataflow_pushes") - self.pushes_at_start[i];
            if pushes != 0 {
                return Err(format!("replay ran dependency analysis: {pushes} pushes"));
            }
        }
        Ok(())
    }
}

// --- loops_short / loops_skewed ----------------------------------------

/// Base pointer of the vector a parallel loop updates in place.
#[derive(Clone, Copy)]
struct SyncPtr(*mut f64);
// SAFETY: the pointer is only dereferenced inside loop chunks, which
// partition the index range disjointly, and the vector outlives the loop
// (`foreach_chunks` returns after every chunk ran).
unsafe impl Send for SyncPtr {}
// SAFETY: as above — no two chunks touch the same element.
unsafe impl Sync for SyncPtr {}

const SHORT_N: usize = 32 * 1024;
const SHORT_LOOPS: usize = 256;

#[inline]
fn saxpy(x: &mut [f64], y: &[f64], a: f64) {
    for (xi, yi) in x.iter_mut().zip(y) {
        *xi += a * yi;
    }
}

/// 256 back-to-back saxpy loops over 32 Ki cache-resident elements: the
/// short-loop pattern where launch and join are most of the time.
pub struct LoopsShort {
    pools: Pools,
    a: f64,
    x0: Vec<f64>,
    y: Vec<f64>,
    x: Vec<f64>,
    reference: Vec<f64>,
}

impl LoopsShort {
    pub fn new(w: usize, seed: u64) -> LoopsShort {
        let mut rng = Rng::new(seed);
        let a = 0.5 + rng.next_f64();
        let x0: Vec<f64> = (0..SHORT_N).map(|_| rng.next_f64()).collect();
        let y: Vec<f64> = (0..SHORT_N).map(|_| rng.next_f64() - 0.5).collect();
        let mut me = LoopsShort {
            pools: Pools::new(w),
            a,
            x: x0.clone(),
            reference: Vec::new(),
            x0,
            y,
        };
        me.call(SEQ);
        me.reference = me.x.clone();
        me
    }
}

impl Workload for LoopsShort {
    fn ops(&self) -> u64 {
        (SHORT_LOOPS * SHORT_N) as u64
    }
    fn loops(&self) -> u64 {
        SHORT_LOOPS as u64
    }
    fn pools(&self) -> &Pools {
        &self.pools
    }
    fn call_name(&self) -> &'static str {
        "foreach"
    }
    fn prepare(&mut self, _v: usize) {
        self.x.copy_from_slice(&self.x0);
    }
    fn call(&mut self, v: usize) {
        let (a, y) = (self.a, &self.y[..]);
        if v == SEQ {
            for _ in 0..SHORT_LOOPS {
                // Each sweep is a loop of its own, as in the runtime
                // variants; the optimizer may not merge them.
                saxpy(black_box(&mut self.x[..]), y, a);
            }
            return;
        }
        let rt = self.pools.get(v);
        let xp = SyncPtr(self.x.as_mut_ptr());
        for _ in 0..SHORT_LOOPS {
            rt.foreach_chunks(0..SHORT_N, None, move |r| {
                let xp = xp;
                // SAFETY: `r` lies inside 0..SHORT_N, the length of `x`,
                // and chunks are disjoint (see `SyncPtr`).
                let xs = unsafe { std::slice::from_raw_parts_mut(xp.0.add(r.start), r.len()) };
                saxpy(xs, &y[r], a);
            });
        }
    }
    fn verify(&mut self, _v: usize) -> (u64, u64) {
        let ok = self.x.len() == self.reference.len()
            && self
                .x
                .iter()
                .zip(&self.reference)
                .all(|(p, q)| p.to_bits() == q.to_bits());
        (1, u64::from(!ok))
    }
}

const SKEW_N: usize = 2 * 1024 * 1024;
const SKEW_MAX_STEPS: usize = 64;

/// Cost of iteration `i`: 1 LCG step at the start of the range, rising
/// linearly to 64 at its end.
#[inline]
fn skewed_cost(base: u64, i: usize) -> u64 {
    busy_work(
        base ^ i as u64,
        (1 + i * (SKEW_MAX_STEPS - 1) / SKEW_N) as u64,
    )
}

/// One compute-bound `foreach_reduce` whose cost rises with the index:
/// on-demand splitting does the balancing, launch cost is negligible and
/// no memory bandwidth is in the number.
pub struct LoopsSkewed {
    pools: Pools,
    base: u64,
    expected: u64,
    out: u64,
}

impl LoopsSkewed {
    pub fn new(w: usize, seed: u64) -> LoopsSkewed {
        let mut me = LoopsSkewed {
            pools: Pools::new(w),
            base: Rng::new(seed).next_u64(),
            expected: 0,
            out: 0,
        };
        me.call(SEQ);
        me.expected = me.out;
        me
    }
}

impl Workload for LoopsSkewed {
    fn ops(&self) -> u64 {
        SKEW_N as u64
    }
    fn loops(&self) -> u64 {
        1
    }
    fn pools(&self) -> &Pools {
        &self.pools
    }
    fn call_name(&self) -> &'static str {
        "foreach"
    }
    fn prepare(&mut self, _v: usize) {
        self.out = 0;
    }
    fn call(&mut self, v: usize) {
        let base = black_box(self.base);
        self.out = match v {
            SEQ => (0..SKEW_N).fold(0u64, |s, i| s.wrapping_add(skewed_cost(base, i))),
            _ => self.pools.get(v).foreach_reduce(
                0..SKEW_N,
                None,
                || 0u64,
                |s, i| *s = s.wrapping_add(skewed_cost(base, i)),
                u64::wrapping_add,
            ),
        };
    }
    fn verify(&mut self, _v: usize) -> (u64, u64) {
        (1, u64::from(self.out != self.expected))
    }
}
