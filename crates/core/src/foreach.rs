//! Adaptive parallel loops (`kaapic_foreach`).
//!
//! A `foreach` creates one adaptive *master* task on the calling worker.
//! The iteration interval is pre-partitioned into `p` slices, one reserved
//! per worker; a thief stealing from the master first receives its reserved
//! slice, and once none are left the splitter carves the victim's remaining
//! interval `[b_t, e)` into `k+1` near-equal parts for `k` aggregated
//! requests (keeping one for the victim). Every slice in flight is itself
//! adaptive — registered on its worker and re-splittable — and the interval
//! arithmetic uses the CAS protocol of
//! [`IntervalCell`](crate::adaptive::IntervalCell), so concurrent
//! owner-claims and thief-splits conserve iterations exactly.

use crate::adaptive::{split_even, Adaptive, IntervalCell};
use crate::attrs::TaskAttrs;
use crate::ctx::{help_until, Ctx, RawCtx, TaskBuilder};
use crate::runtime::RtInner;
use crate::stats::WorkerStats;
use crate::steal::Grab;
use crate::worker::Near;
use crossbeam_utils::CachePadded;
use parking_lot::Mutex;
use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Default loop grain is `n / (GRAIN_FACTOR × workers)`; a caller that
/// wants another grain passes it per loop.
const GRAIN_FACTOR: usize = 8;

/// Shared control block of one `foreach`.
struct LoopCtl {
    /// Chunk body `(range, worker_index)`. Lifetime-erased: the foreach
    /// caller blocks until `remaining == 0`, and the body is only invoked
    /// for claimed chunks, each of which is counted in `remaining`.
    body: &'static (dyn Fn(Range<usize>, usize) + Sync),
    /// Iterations not yet executed.
    remaining: AtomicUsize,
    grain: usize,
    /// Reserved slices, one per worker.
    shards: Box<[Arc<IntervalCell>]>,
    /// Reserved slice already handed out / started.
    touched: Box<[AtomicBool]>,
    /// Set after a body panic: remaining iterations are drained unexecuted.
    poisoned: AtomicBool,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Scheduling attributes of the whole loop (builder-lowered): the
    /// priority band orders this loop's splitters against other adaptive
    /// work on the same victim.
    attrs: TaskAttrs,
}

impl LoopCtl {
    #[inline]
    fn done(&self, n: usize) {
        self.remaining.fetch_sub(n, Ordering::AcqRel);
    }

    fn poison(&self, p: Box<dyn Any + Send>) {
        let mut slot = self.panic.lock();
        if slot.is_none() {
            *slot = Some(p);
        }
        drop(slot);
        self.poisoned.store(true, Ordering::Release);
    }

    /// Claim an untouched, non-empty reserved slice (preferring `prefer`).
    fn claim_untouched(&self, prefer: usize) -> Option<usize> {
        let p = self.shards.len();
        for off in 0..p {
            let i = (prefer + off) % p;
            if !self.shards[i].is_empty() && !self.touched[i].swap(true, Ordering::AcqRel) {
                return Some(i);
            }
        }
        None
    }
}

/// One in-flight slice: the unit thieves split.
struct LoopWork {
    ctl: Arc<LoopCtl>,
    cell: Arc<IntervalCell>,
}

fn runner(ctl: Arc<LoopCtl>, range: Range<usize>) -> Grab {
    Grab::Run(Box::new(move |rt: &Arc<RtInner>, widx: usize| {
        let cell = Arc::new(IntervalCell::new(range.start, range.end));
        process(rt, widx, &ctl, cell);
    }))
}

impl Adaptive for LoopWork {
    fn band(&self) -> u8 {
        self.ctl.attrs.band()
    }

    fn split(&self, thieves: &[usize], out: &mut Vec<Grab>) {
        let k = thieves.len();
        if k == 0 || self.ctl.poisoned.load(Ordering::Acquire) || self.ctl.attrs.is_cancelled() {
            return;
        }
        // Leave the victim at least one grain (the paper's k+1-way split).
        let Some(stolen) = self.cell.steal_back(k, self.ctl.grain) else {
            return;
        };
        for part in split_even(stolen, k) {
            out.push(runner(Arc::clone(&self.ctl), part));
        }
    }
}

/// The master adaptive task registered on the foreach caller.
struct MasterLoop {
    ctl: Arc<LoopCtl>,
}

impl Adaptive for MasterLoop {
    fn band(&self) -> u8 {
        self.ctl.attrs.band()
    }

    fn split(&self, thieves: &[usize], out: &mut Vec<Grab>) {
        // Adaptive-split cancellation boundary: a poisoned or cancelled
        // loop stops handing out slices (the owners drain what remains).
        if self.ctl.poisoned.load(Ordering::Acquire) || self.ctl.attrs.is_cancelled() {
            return;
        }
        let mut it = thieves.iter();
        let mut unserved = thieves.len();
        // 1. Hand out reserved slices (each thief preferring its own).
        while unserved > 0 {
            let Some(&t) = it.next() else { break };
            match self.ctl.claim_untouched(t) {
                Some(i) => {
                    let cell = Arc::clone(&self.ctl.shards[i]);
                    let ctl = Arc::clone(&self.ctl);
                    out.push(Grab::Run(Box::new(
                        move |rt: &Arc<RtInner>, widx: usize| {
                            process(rt, widx, &ctl, cell);
                        },
                    )));
                    unserved -= 1;
                }
                None => break,
            }
        }
        // 2. No reserved slices left: split the largest remaining slice.
        if unserved > 0 {
            let largest = self
                .ctl
                .shards
                .iter()
                .max_by_key(|c| c.len())
                .filter(|c| !c.is_empty());
            if let Some(cell) = largest {
                if let Some(stolen) = cell.steal_back(unserved, self.ctl.grain) {
                    for part in split_even(stolen, unserved) {
                        out.push(runner(Arc::clone(&self.ctl), part));
                    }
                }
            }
        }
    }
}

/// Process one slice on worker `widx`: claim grain-sized chunks from the
/// front while registered as adaptive (splittable) work.
fn process(rt: &Arc<RtInner>, widx: usize, ctl: &Arc<LoopCtl>, cell: Arc<IntervalCell>) {
    let work: Arc<LoopWork> = Arc::new(LoopWork {
        ctl: Arc::clone(ctl),
        cell: Arc::clone(&cell),
    });
    let ad: Arc<dyn Adaptive> = work;
    rt.workers[widx].register_adaptive(Arc::clone(&ad));
    loop {
        if ctl.poisoned.load(Ordering::Acquire) {
            // Drain without executing so the caller can unblock and rethrow.
            if let Some(r) = cell.take_all() {
                ctl.done(r.len());
            }
            break;
        }
        if ctl.attrs.is_cancelled() {
            // Cancelled mid-loop: skip the remaining chunks but still drain
            // the counters (`remaining` must reach zero to unblock the
            // caller — the dataflow obligation survives cancellation).
            if let Some(r) = cell.take_all() {
                ctl.done(r.len());
                WorkerStats::bump(&rt.workers[widx].stats.tasks_cancelled, 1);
            }
            break;
        }
        let Some(r) = cell.claim_front(ctl.grain) else {
            break;
        };
        let n = r.len();
        let res = catch_unwind(AssertUnwindSafe(|| (ctl.body)(r, widx)));
        WorkerStats::bump(&rt.workers[widx].stats.loop_chunks, 1);
        if let Err(p) = res {
            ctl.poison(p);
        }
        ctl.done(n);
    }
    rt.workers[widx].deregister_adaptive(&ad);
}

/// Run a foreach to completion on worker `widx` of `rt`.
///
/// # Safety contract (internal)
/// `body` is lifetime-erased; soundness comes from this function not
/// returning until every claimed chunk has executed (`remaining == 0`).
pub(crate) fn foreach_run(
    rt: &Arc<RtInner>,
    widx: usize,
    range: Range<usize>,
    grain: Option<usize>,
    attrs: TaskAttrs,
    body: &(dyn Fn(Range<usize>, usize) + Sync),
) {
    let n = range.end.saturating_sub(range.start);
    if n == 0 || attrs.is_cancelled() {
        return;
    }
    let p = rt.num_workers();
    let grain = grain
        .unwrap_or_else(|| (n / (GRAIN_FACTOR * p)).max(1))
        .max(1);
    if p == 1 || n <= grain {
        body(range, widx);
        return;
    }

    // Reserve one slice per worker (the caller's own slice first below).
    let parts = split_even(range, p);
    let shards: Box<[Arc<IntervalCell>]> = (0..p)
        .map(|i| {
            let r = parts.get(i).cloned().unwrap_or(0..0);
            Arc::new(IntervalCell::new(r.start, r.end))
        })
        .collect();
    let touched: Box<[AtomicBool]> = (0..p).map(|_| AtomicBool::new(false)).collect();

    // Safety: see function-level contract.
    let body: &'static (dyn Fn(Range<usize>, usize) + Sync) = unsafe { std::mem::transmute(body) };
    let ctl = Arc::new(LoopCtl {
        body,
        remaining: AtomicUsize::new(n),
        grain,
        shards,
        touched,
        poisoned: AtomicBool::new(false),
        panic: Mutex::new(None),
        attrs,
    });

    let master: Arc<dyn Adaptive> = Arc::new(MasterLoop {
        ctl: Arc::clone(&ctl),
    });
    rt.workers[widx].register_adaptive(Arc::clone(&master));
    rt.notify_work(Near::Worker(widx), p - 1);

    // Work through our reserved slice, then any slice nobody started.
    let mut next = ctl.claim_untouched(widx);
    while let Some(i) = next {
        let cell = Arc::clone(&ctl.shards[i]);
        process(rt, widx, &ctl, cell);
        next = ctl.claim_untouched(widx);
    }
    // Help until the last chunk (possibly on a thief) completes.
    help_until(rt, widx, || ctl.remaining.load(Ordering::Acquire) == 0);
    rt.workers[widx].deregister_adaptive(&master);

    let panic = ctl.panic.lock().take();
    if let Some(p) = panic {
        resume_unwind(p);
    }
}

impl<'scope> Ctx<'scope> {
    /// Adaptive parallel loop: apply `body` to every index in `range`.
    pub fn foreach<F>(&mut self, range: Range<usize>, body: &F)
    where
        F: Fn(usize) + Sync,
    {
        self.foreach_worker_chunks(range, None, &|r: Range<usize>, _w| {
            for i in r {
                body(i);
            }
        });
    }

    /// Adaptive parallel loop over chunks (`grain: None` = automatic:
    /// `n / (GRAIN_FACTOR × workers)`, eight chunks per worker).
    pub fn foreach_chunks<F>(&mut self, range: Range<usize>, grain: Option<usize>, body: &F)
    where
        F: Fn(Range<usize>) + Sync,
    {
        self.foreach_worker_chunks(range, grain, &|r: Range<usize>, _w| body(r));
    }

    /// Chunked loop whose body also receives the executing worker index
    /// (building block for reductions and worker-local state).
    pub fn foreach_worker_chunks(
        &mut self,
        range: Range<usize>,
        grain: Option<usize>,
        body: &(dyn Fn(Range<usize>, usize) + Sync),
    ) {
        self.foreach_worker_chunks_with(range, grain, TaskAttrs::default(), body);
    }

    /// Attribute-aware chunked loop shared by the plain loop entry points
    /// and [`TaskBuilder::foreach`] / [`TaskBuilder::foreach_chunks`].
    pub(crate) fn foreach_worker_chunks_with(
        &mut self,
        range: Range<usize>,
        grain: Option<usize>,
        mut attrs: TaskAttrs,
        body: &(dyn Fn(Range<usize>, usize) + Sync),
    ) {
        let raw: &RawCtx = self.as_raw();
        // Cancellation is inherited scope-wide: a loop inside a
        // cancellable cone is cancellable with it.
        if attrs.cancel.is_none() {
            attrs.cancel = raw.cancel().cloned();
        }
        foreach_run(&raw.rt, raw.widx, range, grain, attrs, body);
    }

    /// Parallel reduction: fold every index into per-worker accumulators,
    /// then combine them (deterministic up to `combine` reassociation).
    pub fn foreach_reduce<T, ID, FOLD, COMB>(
        &mut self,
        range: Range<usize>,
        grain: Option<usize>,
        identity: &ID,
        fold: &FOLD,
        combine: &COMB,
    ) -> T
    where
        T: Send,
        ID: Fn() -> T + Sync,
        FOLD: Fn(&mut T, usize) + Sync,
        COMB: Fn(T, T) -> T + Send + Sync,
    {
        let p = self.num_workers();
        // One line per worker: every fold writes its slot, and two slots
        // on one line made a two-worker reduction run no faster than one
        // worker, or not, depending on where the allocator put the array.
        let slots: Vec<CachePadded<Mutex<Option<T>>>> =
            (0..p).map(|_| CachePadded::new(Mutex::new(None))).collect();
        self.foreach_worker_chunks(range, grain, &|r: Range<usize>, w: usize| {
            let mut g = slots[w].lock();
            let acc = g.get_or_insert_with(identity);
            for i in r {
                fold(acc, i);
            }
        });
        let mut acc = identity();
        for s in slots {
            if let Some(v) = s.into_inner().into_inner() {
                acc = combine(acc, v);
            }
        }
        acc
    }
}

impl<'b, 'scope> TaskBuilder<'b, 'scope> {
    /// Run an adaptive parallel loop carrying this builder's attributes —
    /// [`Ctx::foreach`] with a [`TaskAttrs`] descriptor. The priority band
    /// orders this loop's splitters against other adaptive work on the
    /// same victim: when thieves ask a worker hosting several loops for
    /// work, the higher-band loop's slices are handed out first.
    pub fn foreach<F>(self, range: Range<usize>, body: &F)
    where
        F: Fn(usize) + Sync,
    {
        let attrs = self.attrs;
        self.ctx
            .foreach_worker_chunks_with(range, None, attrs, &|r: Range<usize>, _w| {
                for i in r {
                    body(i);
                }
            });
    }

    /// Chunked variant of [`TaskBuilder::foreach`]
    /// ([`Ctx::foreach_chunks`] with attributes).
    pub fn foreach_chunks<F>(self, range: Range<usize>, grain: Option<usize>, body: &F)
    where
        F: Fn(Range<usize>) + Sync,
    {
        let attrs = self.attrs;
        self.ctx
            .foreach_worker_chunks_with(range, grain, attrs, &|r: Range<usize>, _w| body(r));
    }
}
