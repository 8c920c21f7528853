//! The worker layer: per-worker state, the idle loop and the seat.
//!
//! One OS thread per configured worker ("one thread per core" in the
//! paper). Each [`Worker`] owns the engine-side state thieves interact
//! with — active frames, the ready list of released data-flow tasks,
//! adaptive-work registry, the steal point (request stack + combiner
//! lock) and statistics. The idle loop ([`worker_main`]) is the engine's
//! outermost layer:
//!
//! ```text
//! ready list → queue.pop → inject → steal → search → park
//! ```
//!
//! A worker that finds no work has two idle states. **Searching**: it
//! keeps probing (spin hint, a `yield_now` every few rounds) until
//! [`SEARCH_BUDGET`] of wall time has passed since it last acquired work;
//! at most ⌈W/2⌉ workers (but at least two) search at once, the rest
//! park straight away.
//! **Parked**: it blocks on its own slot of the [`ParkLot`] with no
//! timeout, so an idle runtime makes no context switches at all.
//!
//! A parked worker has a third state. **Lent**: a thread from outside
//! the pool that calls [`Runtime::scope`](crate::Runtime::scope) claims
//! the parked worker's *seat* and runs the scope's root on its own stack
//! *as that worker* — its queue lane, fast-lane deque, frame stack,
//! telemetry ring and statistics — while the worker thread stays blocked
//! ([`run_on_seat`]). There is no hand-off: no boxed root, no inject
//! lane, no wake in either direction. When no worker is parked, the
//! scope takes the inject path instead. Either way at most W threads run
//! tasks at once, and the pool has exactly W threads.
//!
//! Blocking without a timeout is safe because of one invariant, kept by a
//! Dekker-style handshake: *stealable work that no awake worker will
//! find always wakes a parked one.* A parker announces itself (it joins
//! the idle set, `sleepers += 1`), runs a `SeqCst` fence, then makes a
//! real acquisition attempt on every source — its queue lane and ready
//! list, the inject lanes, and the fast lane, frames, ready list and
//! adaptive loops of every victim the runtime's `Steal` allows — and blocks
//! only if all of them came back empty. A producer publishes its
//! work, issues a `SeqCst` fence, then reads the sleeper count. The two
//! fences are totally ordered, so either the parker's re-check sees the
//! work or the producer sees the parker and wakes a parked worker that
//! its `Steal` lets reach the work ([`Near`]): on the work's node
//! first, most recently parked first. The producer sites
//! ([`RtInner::notify_work`] and its callers):
//!
//! * `Ctx::join` — only when its push made the deque non-empty; a job
//!   pushed behind another is the owner's to reclaim anyway, so fib's
//!   join path pays no fence in the common case;
//! * `RawCtx::spawn_common` — every data-flow spawn into an unpromoted
//!   frame, so a thief comes to promote it;
//! * `complete_and_publish` — a completion that leaves its unpromoted
//!   frame with unfinished tasks;
//! * `Release::finish` — a push, promotion or completion in a promoted
//!   frame that released tasks onto a ready list, up to one wake per
//!   listed task;
//! * `foreach_run` — a loop launch, which wakes up to W−1 workers;
//! * `Runtime::submit` and the inject path of `Runtime::scope` — a root
//!   job;
//! * the seat's hand-back ([`ParkLot::hand_back`]) — it parks the lent
//!   worker again, so it re-checks the inject lanes and the seat's own
//!   lane and ready list, and wakes that worker if they hold work.
//!
//! A producer wakes no one while a searcher is awake to find its work.
//! That is why a searcher that finds work while it is the last searcher
//! wakes one parked worker (the Tokio/Go rule): the next unit then still
//! has someone looking for it.
//!
//! # Seat rules
//!
//! * **Handing the seat over is Acquire, handing it back is Release.**
//!   The worker commits to block with a Release store of `PARKED`, the
//!   caller claims the seat with an Acquire CAS `PARKED → LENT`, and the
//!   hand-back stores `PARKED` with Release again; the next claimer, or
//!   the worker when it is woken, acquires that store. So every write
//!   one holder of the seat made — the lane, the deque, the telemetry
//!   ring (single producer) and the owner-only `bump_owned` counters —
//!   happens before the next holder's first access, and a join on the
//!   seat still writes only lines its worker owns (`DESIGN.md` §6, "What
//!   a join may touch").
//! * **A lent worker is out of the idle set and out of `sleepers`.** No
//!   producer can pick it, so no wake is ever granted to a lent worker
//!   and a woken worker never finds its seat lent (`debug_assert`ed in
//!   [`ParkLot::wake_one`], where a wake marks the slot).
//! * **The hand-back is a park.** The caller puts the worker back in the
//!   idle set, fences, then re-checks the inject lanes and the seat's
//!   own lane and ready list. If they hold work it wakes that worker;
//!   it never runs the work itself (the caller's scope is over). A job
//!   submitted while the only worker was lent saw no sleeper and woke no
//!   one; this re-check is what runs it. Work published on another
//!   worker's deque or frames during the lend is that worker's to
//!   reclaim, as for a join pushed behind another.
//! * **Shutdown never touches a lent lane.** A lent worker ignores the
//!   shutdown flag until its seat is handed back; it then exits without
//!   acquiring anything.
//! * **A worker the seat holder wakes onto the holder's own CPU steps
//!   off it.** The seat holder never blocks while its root runs, so its
//!   CPU stays busy. A kernel that places a wakee on its waker's CPU
//!   would then time-share the two there. Nothing migrates either of
//!   them later, so a whole process ran its loops at one CPU's speed
//!   with another CPU idle (seen on a 2-vCPU VM, kernel 6.18). The
//!   holder passes its CPU with the wake ([`Slot::waker_cpu`]). A woken
//!   worker that finds itself on that CPU narrows its affinity to the
//!   other allowed CPUs and then restores it ([`crate::pin::step_off_cpu`]):
//!   one migration, after which the kernel wakes it on its own CPU. A
//!   worker confined to that one CPU (say, by `taskset`) stays. Wakes
//!   from anyone else are unchanged.

use crate::adaptive::Adaptive;
use crate::attrs::{NORMAL_BAND, PRIORITY_BANDS};
use crate::ctx::{Ctx, RawCtx};
use crate::frame::Frame;
use crate::runtime::{Job, RtInner};
use crate::stats::WorkerStats;
use crate::steal::{run_grab, steal_exact, try_steal_once, Grab, Request};
use crate::task::{Task, ST_INIT, ST_STOLEN};
use crate::telemetry::{self, EventKind, WorkerTelemetry};
use crossbeam_utils::CachePadded;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicPtr, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a worker keeps searching after it last acquired work before
/// it parks. Longer than a futex wake-up (a few µs), so back-to-back
/// submissions and loop launches find their workers awake; short enough
/// that an idle runtime is asleep well inside a millisecond.
const SEARCH_BUDGET: Duration = Duration::from_micros(50);

/// Searching rounds between two `yield_now` calls, so that searchers
/// timesliced on one core with a busy worker hand the core back.
const YIELD_EVERY: u32 = 8;

/// One worker: its frames (stealable task stacks), adaptive-work registry,
/// steal point (request stack + combiner lock) and statistics.
pub(crate) struct Worker {
    #[allow(dead_code)] // identity, useful in debugging/traces
    pub(crate) idx: usize,
    /// Active frames on this worker, oldest first (thieves scan from the
    /// oldest, as in the paper's victim-stack traversal).
    pub(crate) frames: Mutex<Vec<Arc<Frame>>>,
    /// Adaptive (splittable) work currently running on this worker.
    pub(crate) adaptives: Mutex<Vec<Arc<dyn Adaptive>>>,
    /// Combiner election: the thief holding this lock serves the victim's
    /// pending steal requests.
    pub(crate) steal_lock: Mutex<()>,
    /// Treiber stack of posted steal requests.
    pub(crate) req_head: AtomicPtr<Request>,
    /// This worker's own request node, posted to victims when idle.
    pub(crate) req: Request,
    pub(crate) stats: WorkerStats,
    /// Telemetry bundle: this worker's SPSC event ring and banded latency
    /// histograms (`DESIGN.md` §9). Allocated here, at construction, so
    /// enabling tracing later never allocates; the owning worker thread
    /// is the ring's only producer.
    pub(crate) tele: WorkerTelemetry,
    /// Consecutive failed steal attempts (reset on any acquired work).
    /// Read by hierarchical victim choice for escalation. Only the owning
    /// worker thread writes it, so plain load/store suffices.
    fail_streak: AtomicU32,
    /// Recycled quiescent frames.
    frame_pool: Mutex<Vec<Arc<Frame>>>,
    /// Data-flow tasks this worker released (or was handed by a steal),
    /// on a line of its own: the owner and combiner thieves write it.
    pub(crate) ready: CachePadded<ReadyList>,
    rng: AtomicU64,
}

impl Worker {
    pub(crate) fn new(idx: usize) -> Worker {
        Worker {
            idx,
            frames: Mutex::new(Vec::new()),
            adaptives: Mutex::new(Vec::new()),
            steal_lock: Mutex::new(()),
            req_head: AtomicPtr::new(std::ptr::null_mut()),
            req: Request::new(idx),
            stats: WorkerStats::default(),
            tele: WorkerTelemetry::new(),
            fail_streak: AtomicU32::new(0),
            frame_pool: Mutex::new(Vec::new()),
            ready: CachePadded::new(ReadyList::new()),
            rng: AtomicU64::new(0x9E37_79B9_7F4A_7C15 ^ ((idx as u64 + 1) << 17)),
        }
    }

    /// Current steal fail streak (consecutive failed attempts).
    #[inline]
    pub(crate) fn fail_streak(&self) -> u32 {
        self.fail_streak.load(Ordering::Relaxed)
    }

    /// Record one more failed steal attempt (saturating).
    #[inline]
    pub(crate) fn note_steal_failure(&self) {
        let s = self.fail_streak.load(Ordering::Relaxed);
        if s < u32::MAX {
            self.fail_streak.store(s + 1, Ordering::Relaxed);
        }
    }

    /// Reset the fail streak (work was acquired somewhere).
    #[inline]
    pub(crate) fn reset_fail_streak(&self) {
        self.fail_streak.store(0, Ordering::Relaxed);
    }

    /// xorshift64* victim selector (relaxed: statistical quality only).
    pub(crate) fn next_rand(&self) -> u64 {
        let mut x = self.rng.load(Ordering::Relaxed);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng.store(x, Ordering::Relaxed);
        x
    }

    pub(crate) fn register_frame(&self, f: Arc<Frame>) {
        self.frames.lock().push(f);
    }

    pub(crate) fn deregister_frame(&self, f: &Arc<Frame>) {
        let mut frames = self.frames.lock();
        if let Some(pos) = frames.iter().rposition(|x| Arc::ptr_eq(x, f)) {
            frames.remove(pos);
        }
    }

    /// Take a recycled frame, if any.
    pub(crate) fn pop_pooled_frame(&self) -> Option<Arc<Frame>> {
        self.frame_pool.lock().pop()
    }

    /// Recycle `f` if we are its only owner and it is quiescent.
    pub(crate) fn recycle_frame(&self, f: Arc<Frame>) {
        if Arc::strong_count(&f) == 1 && f.pending() == 0 {
            f.reset();
            let mut pool = self.frame_pool.lock();
            if pool.len() < 64 {
                pool.push(f);
            }
        }
    }

    pub(crate) fn register_adaptive(&self, a: Arc<dyn Adaptive>) {
        self.adaptives.lock().push(a);
    }

    pub(crate) fn deregister_adaptive(&self, a: &Arc<dyn Adaptive>) {
        let mut ads = self.adaptives.lock();
        if let Some(pos) = ads.iter().rposition(|x| Arc::ptr_eq(x, a)) {
            ads.remove(pos);
        }
    }
}

/// Ready entries, one FIFO per priority band.
type Bands = [VecDeque<Arc<Task>>; PRIORITY_BANDS];

/// One worker's ready list: released data-flow tasks of promoted frames
/// (`DESIGN.md` §2, "Ready lists"), banded, oldest first within a band.
///
/// Entries are *hints*. A task is claimed with its state CAS when it is
/// popped, not when it is listed, so the owner's FIFO walk may run a
/// listed task first; the pop then skips the stale entry. An entry holds
/// the task, never its frame, so a stale one pins no frame.
pub(crate) struct ReadyList {
    /// Entries listed, stale ones included: the lock-free emptiness hint.
    len: AtomicUsize,
    bands: Mutex<Bands>,
}

impl ReadyList {
    fn new() -> ReadyList {
        ReadyList {
            len: AtomicUsize::new(0),
            bands: Mutex::new(std::array::from_fn(|_| VecDeque::new())),
        }
    }

    /// One relaxed load. A parker reads it after the fence of its
    /// announcement, a producer's listing is followed by the fence of
    /// its notification, so one of the two sees the other.
    #[inline]
    pub(crate) fn is_empty_hint(&self) -> bool {
        self.len.load(Ordering::Relaxed) == 0
    }

    fn recount(&self, bands: &Bands) {
        let n = bands.iter().map(VecDeque::len).sum();
        self.len.store(n, Ordering::Relaxed);
    }

    /// List tasks under one lock acquisition, taken at the first push.
    pub(crate) fn batch(&self) -> ReadyBatch<'_> {
        ReadyBatch {
            list: self,
            bands: None,
        }
    }

    /// Pop and claim the oldest listed task, highest band first; stale
    /// entries met on the way are dropped.
    pub(crate) fn pop(&self) -> Option<Arc<Task>> {
        if self.is_empty_hint() {
            return None;
        }
        let mut bands = self.bands.lock();
        let found = bands.iter_mut().find_map(|band| {
            while let Some(t) = band.pop_front() {
                if t.try_claim(ST_STOLEN) {
                    return Some(t);
                }
            }
            None
        });
        self.recount(&bands);
        found
    }

    /// Move the oldest half of the live entries (at least one) into
    /// `out`, unclaimed: the highest band first and, within a band, the
    /// tasks whose affinity resolves to node `home` (of `nodes`) first.
    /// Stale entries are dropped on the way.
    pub(crate) fn steal_half(&self, home: Option<usize>, nodes: usize, out: &mut Vec<Arc<Task>>) {
        if self.is_empty_hint() {
            return;
        }
        let mut bands = self.bands.lock();
        let mut live = 0;
        for band in bands.iter_mut() {
            band.retain(|t| t.state() == ST_INIT);
            live += band.len();
        }
        let mut quota = (live / 2).max(1).min(live);
        for band in bands.iter_mut() {
            if let Some(node) = home {
                let mut i = 0;
                while quota > 0 && i < band.len() {
                    if band[i].target_node(nodes) == Some(node) {
                        out.extend(band.remove(i));
                        quota -= 1;
                    } else {
                        i += 1;
                    }
                }
            }
            let n = quota.min(band.len());
            out.extend(band.drain(..n));
            quota -= n;
        }
        self.recount(&bands);
    }

    /// Drop the stale entries; `true` when live ones remain. The owner
    /// runs this when a promoted frame finishes (its FIFO walk left most
    /// of that frame's entries stale), and a seat hand-back runs it to
    /// decide on a wake.
    pub(crate) fn purge(&self) -> bool {
        if self.is_empty_hint() {
            return false;
        }
        let mut bands = self.bands.lock();
        for band in bands.iter_mut() {
            band.retain(|t| t.state() == ST_INIT);
        }
        self.recount(&bands);
        !self.is_empty_hint()
    }
}

/// Pushes onto one [`ReadyList`] under a lock taken at the first push and
/// held until the batch is dropped.
pub(crate) struct ReadyBatch<'a> {
    list: &'a ReadyList,
    bands: Option<MutexGuard<'a, Bands>>,
}

impl ReadyBatch<'_> {
    pub(crate) fn push(&mut self, t: Arc<Task>) {
        let list = self.list;
        let bands = self.bands.get_or_insert_with(|| list.bands.lock());
        bands[t.band() as usize].push_back(t);
        list.len
            .store(list.len.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    }
}

/// Slot states (see the module docs). The worker moves its own slot
/// through `RUNNING → PARKING → PARKED`, and back to `RUNNING`. A producer
/// moves a `PARKING` or `PARKED` slot to `WOKEN`, and a scope caller a
/// `PARKED` one to `LENT` and back; both do so while taking the worker
/// out of (or putting it back into) the idle set, under the set's lock.
const RUNNING: u8 = 0;
/// Announced: in the idle set, re-checking every source.
const PARKING: u8 = 1;
/// The re-check came back empty: blocked, or about to block.
const PARKED: u8 = 2;
/// A scope caller holds the seat; the worker stays blocked.
const LENT: u8 = 3;
/// A producer took the worker out of the idle set: leave the wait.
const WOKEN: u8 = 4;

/// One worker's place in the [`ParkLot`]: its state word and the condvar
/// it blocks on, so a producer wakes the worker it chose and no other.
struct Slot {
    state: AtomicU8,
    /// The CPU of the seat holder that last woke this worker, or
    /// [`NO_CPU`] when the last wake came from anyone else. Written before
    /// the wake's `WOKEN` swap, read once the worker has seen `WOKEN`.
    waker_cpu: AtomicUsize,
    mx: Mutex<()>,
    cv: Condvar,
}

/// [`Slot::waker_cpu`] when the waker held no seat.
const NO_CPU: usize = usize::MAX;

impl Slot {
    fn with_lock(&self, f: impl FnOnce()) {
        let _g = self.mx.lock();
        f();
    }

    /// Wake the worker if it is blocked on this slot (taking the lock
    /// orders the notification after its last look at the state).
    #[cold]
    fn notify(&self) {
        self.with_lock(|| self.cv.notify_one());
    }
}

/// Where newly published work sits, which decides the workers a wake
/// may go to.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Near {
    /// In worker `w`'s deque, frames or loops: only a worker the steal
    /// policy lets steal from `w` can take it.
    Worker(usize),
    /// Somewhere every worker takes from (an inject lane, a shared
    /// queue), homed on node `n`.
    Node(usize),
}

/// The parking place idle workers block in, and producers wake them from.
///
/// One [`Slot`] per worker, plus the *idle set*: a stack of the workers
/// that announced they are about to block or are blocked, most recently
/// parked on top. `sleepers` mirrors its length so that a producer with
/// nobody to wake pays one load. A wake takes its worker out of the set
/// and marks its slot `WOKEN` under the set's lock, so a wake given to a
/// worker that announced but has not blocked yet is not lost: its commit
/// to block fails and it goes back to searching.
pub(crate) struct ParkLot {
    slots: Box<[CachePadded<Slot>]>,
    /// Parked and parking workers, most recently parked last. Allocated
    /// at full size: a worker appears at most once, so pushes never grow it.
    idle: Mutex<Vec<usize>>,
    /// Each count on a line of its own: searchers write `searching` on
    /// every idle stretch, and every producer reads `sleepers` — sharing
    /// a line with each other or with the runtime's read-mostly fields
    /// cost a 1-worker submit loop about 10 %.
    sleepers: CachePadded<AtomicUsize>,
    searching: CachePadded<AtomicUsize>,
    /// ⌈W/2⌉ but at least two: more would only contend on the victims,
    /// and with one a two-worker pool paid a futex wake on every loop
    /// launch (the searcher that took the launching job woke the other).
    max_searching: usize,
}

impl ParkLot {
    pub(crate) fn new(workers: usize) -> ParkLot {
        ParkLot {
            slots: (0..workers)
                .map(|_| {
                    CachePadded::new(Slot {
                        state: AtomicU8::new(RUNNING),
                        waker_cpu: AtomicUsize::new(NO_CPU),
                        mx: Mutex::new(()),
                        cv: Condvar::new(),
                    })
                })
                .collect(),
            idle: Mutex::new(Vec::with_capacity(workers)),
            sleepers: CachePadded::new(AtomicUsize::new(0)),
            searching: CachePadded::new(AtomicUsize::new(0)),
            max_searching: workers.div_ceil(2).max(2).min(workers.max(1)),
        }
    }

    /// Producer side, after publishing `units` new stealable units `near`
    /// some place: the fence of the handshake (see the module docs), then
    /// [`ParkLot::wake_if_needed`].
    #[inline]
    pub(crate) fn notify(&self, rt: &RtInner, near: Near, units: usize) {
        fence(Ordering::SeqCst);
        self.wake_if_needed(rt, near, units);
    }

    /// Wake one parked worker per unit no searcher is awake to take.
    /// Without the fence of [`ParkLot::notify`] this is a best-effort
    /// hint; one load when nobody sleeps.
    #[inline]
    pub(crate) fn wake_if_needed(&self, rt: &RtInner, near: Near, units: usize) {
        // Acquire: a parker decrements `searching` before it announces,
        // so seeing its announcement means seeing it leave the searchers.
        if self.sleepers.load(Ordering::Acquire) == 0 {
            return;
        }
        let searching = self.searching.load(Ordering::Acquire);
        if units > searching {
            self.wake(rt, near, units - searching);
        }
    }

    /// Wake up to `n` parked workers that may reach work `near` some
    /// place: among them, one on the work's node first, the most recently
    /// parked first.
    #[cold]
    fn wake(&self, rt: &RtInner, near: Near, n: usize) {
        let (home, from) = match near {
            Near::Worker(v) => (rt.topo.node_of(v), Some(v)),
            Near::Node(n) => (n, None),
        };
        let reach = |w: usize| from.is_none_or(|v| rt.steal.may_steal_from(w, v, &rt.topo));
        let waker_cpu = self.seat_holder_cpu(rt);
        for _ in 0..n {
            let woke = self.wake_one(waker_cpu, |idle| {
                idle.iter()
                    .rposition(|&w| rt.topo.node_of(w) == home && reach(w))
                    .or_else(|| idle.iter().rposition(|&w| reach(w)))
            });
            if !woke {
                return;
            }
        }
    }

    /// The CPU the calling thread runs on if it holds one of `rt`'s
    /// seats, else [`NO_CPU`]. Only the seat holder can name a worker
    /// whose slot is `LENT`: that worker's own thread is blocked.
    fn seat_holder_cpu(&self, rt: &RtInner) -> usize {
        match current_worker_of(rt) {
            Some(w) if self.slots[w].state.load(Ordering::Relaxed) == LENT => {
                crate::pin::current_cpu().unwrap_or(NO_CPU)
            }
            _ => NO_CPU,
        }
    }

    /// Take the worker at the position `pick` chooses out of the idle set
    /// and mark it `WOKEN`, both under the set's lock; then notify it if
    /// it had blocked (one still re-checking fails its commit to block).
    /// `waker_cpu` goes to the worker with the wake. `false` when `pick`
    /// chose no one.
    fn wake_one(&self, waker_cpu: usize, pick: impl FnOnce(&[usize]) -> Option<usize>) -> bool {
        let mut idle = self.idle.lock();
        let Some(pos) = pick(&idle) else {
            return false;
        };
        let w = idle.remove(pos);
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        self.slots[w].waker_cpu.store(waker_cpu, Ordering::Relaxed);
        let prev = self.slots[w].state.swap(WOKEN, Ordering::AcqRel);
        drop(idle);
        debug_assert!(
            prev == PARKING || prev == PARKED,
            "worker {w}: a wake landed on a slot in state {prev} (a lent seat?)"
        );
        if prev == PARKED {
            self.slots[w].notify();
        }
        true
    }

    /// Wake everyone unconditionally (shutdown: the waiters' `stop`
    /// condition is already set). A lent worker stays blocked: it leaves
    /// when its seat is handed back.
    pub(crate) fn wake_all(&self) {
        for slot in self.slots.iter() {
            slot.with_lock(|| slot.cv.notify_all());
        }
    }

    /// Enter the searching state unless `max_searching` workers already
    /// search.
    fn try_search(&self) -> bool {
        let mut n = self.searching.load(Ordering::Relaxed);
        while n < self.max_searching {
            match self.searching.compare_exchange_weak(
                n,
                n + 1,
                Ordering::SeqCst,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(cur) => n = cur,
            }
        }
        false
    }

    /// Searcher `idx` acquired work. If it was the last searcher, wake
    /// one parked worker to keep looking: producers skipped their wake
    /// because this worker was searching.
    fn found_work(&self, rt: &RtInner, idx: usize) {
        if self.searching.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.notify(rt, Near::Worker(idx), 1);
        }
    }

    /// A searcher gives up: it parks next.
    fn stop_searching(&self) {
        self.searching.fetch_sub(1, Ordering::SeqCst);
    }

    /// First half of parking: join the idle set, then fence. The caller
    /// must make its re-check of every work source after this, and then
    /// call either [`ParkLot::retract`] or [`ParkLot::park`].
    fn announce(&self, idx: usize) {
        self.slots[idx].state.store(PARKING, Ordering::Relaxed);
        self.join_idle(idx);
    }

    /// Put worker `w` on top of the idle set, then fence (the parker's
    /// half of the handshake).
    fn join_idle(&self, w: usize) {
        let mut idle = self.idle.lock();
        idle.push(w);
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        drop(idle);
        fence(Ordering::SeqCst);
    }

    /// The re-check found work: the worker is not parking after all.
    /// `true` when a producer woke it meanwhile; the caller passes that
    /// wake on, since it was meant for a unit this worker may not take.
    fn retract(&self, idx: usize) -> bool {
        let mut idle = self.idle.lock();
        let woken = match idle.iter().rposition(|&w| w == idx) {
            Some(pos) => {
                idle.remove(pos);
                self.sleepers.fetch_sub(1, Ordering::SeqCst);
                false
            }
            None => true,
        };
        self.slots[idx].state.store(RUNNING, Ordering::Relaxed);
        woken
    }

    /// Second half of parking: commit to block (the Release that makes
    /// this worker's state visible to a scope caller claiming its seat),
    /// then block until a producer wakes it or `stop()` holds. No timeout.
    /// A lent worker stays blocked whatever `stop()` says; a worker that
    /// leaves for `stop()` stays in the idle set, out of every seat.
    fn park(&self, idx: usize, stop: impl Fn() -> bool) {
        let slot = &self.slots[idx];
        if slot
            .state
            .compare_exchange(PARKING, PARKED, Ordering::Release, Ordering::Acquire)
            .is_ok()
        {
            let mut g = slot.mx.lock();
            loop {
                match slot.state.load(Ordering::Acquire) {
                    WOKEN => break,
                    PARKED if stop() => return,
                    state => {
                        debug_assert!(state == PARKED || state == LENT, "state {state}");
                        slot.cv.wait(&mut g);
                    }
                }
            }
        }
        slot.state.store(RUNNING, Ordering::Relaxed);
    }

    /// After [`ParkLot::park`]: if a seat holder woke worker `idx` and
    /// the kernel placed it on the seat holder's own CPU, step off that
    /// CPU (see "Seat rules"). A worker confined to that one CPU (say, by
    /// `taskset`) stays: [`crate::pin::step_off_cpu`] refuses the move.
    fn leave_waker_cpu(&self, idx: usize) {
        let cpu = self.slots[idx].waker_cpu.swap(NO_CPU, Ordering::Relaxed);
        if cpu != NO_CPU && crate::pin::current_cpu() == Some(cpu) {
            crate::pin::step_off_cpu(cpu);
        }
    }

    /// Claim a parked worker's seat for a scope caller: the most recently
    /// parked one, taken out of the idle set with an Acquire CAS
    /// `PARKED → LENT`. `None` (one load) when nobody sleeps, or when
    /// every announced worker is still re-checking its sources.
    pub(crate) fn lend(&self) -> Option<usize> {
        if self.sleepers.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let mut idle = self.idle.lock();
        let pos = idle.iter().rposition(|&w| {
            self.slots[w]
                .state
                .compare_exchange(PARKED, LENT, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
        })?;
        let w = idle.remove(pos);
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        Some(w)
    }

    /// Hand seat `w` back: a park on the worker's behalf. Release-store
    /// `PARKED`, rejoin the idle set and fence; then re-check the inject
    /// lanes, the seat's own lane and its ready list, and wake the worker
    /// if they hold work (the caller never runs it).
    pub(crate) fn hand_back(&self, rt: &RtInner, w: usize) {
        let slot = &self.slots[w];
        debug_assert_eq!(slot.state.load(Ordering::Relaxed), LENT);
        // Under the slot's lock, so that a shutdown either finds the
        // worker parked or is seen below.
        slot.with_lock(|| slot.state.store(PARKED, Ordering::Release));
        self.join_idle(w);
        if rt.inject.has_pending_hint() || rt.lanes.may_pop(w) || rt.workers[w].ready.purge() {
            // Unless a producer woke it already, or another caller took it.
            self.wake_one(NO_CPU, |idle| idle.iter().rposition(|&x| x == w));
        } else if rt.shutdown.load(Ordering::SeqCst) {
            // Shut down while lent: the worker skipped `wake_all`.
            slot.notify();
        }
    }
}

// ---------------------------------------------------------------------------
// Thread-local identity: which runtime/worker is this thread?

thread_local! {
    static CURRENT: std::cell::Cell<(usize, usize)> =
        const { std::cell::Cell::new((0, usize::MAX)) };
}

/// Make this thread worker `widx` of `rt`; returns the identity it had
/// (a seat holder restores it when it hands the seat back, so a thread
/// that is a worker or a seat holder of another runtime is again).
pub(crate) fn set_current(rt: &Arc<RtInner>, widx: usize) -> (usize, usize) {
    CURRENT.with(|c| c.replace((Arc::as_ptr(rt) as usize, widx)))
}

/// If the current thread is a worker of `rt`, or holds one of its seats,
/// its index.
pub(crate) fn current_worker_of(rt: &RtInner) -> Option<usize> {
    let (ptr, idx) = CURRENT.with(|c| c.get());
    (ptr == rt as *const RtInner as usize && idx != usize::MAX).then_some(idx)
}

// ---------------------------------------------------------------------------

/// Take one injected root job for worker `idx` — own node's lane first,
/// then remote lanes in ascending distance order. Any lane drain (own
/// *or* remote) resets the steal fail streak: acquired work is acquired
/// work, wherever the lane sat; the drain is classified under
/// `inject_own_lane` / `inject_remote_lane` so the locality of the
/// injection path stays observable.
fn pop_inject(rt: &Arc<RtInner>, idx: usize) -> Option<(Job, usize)> {
    #[cfg(feature = "fault-injection")]
    crate::fault::on_worker_boundary(rt, idx);
    let node = rt.topo.node_of(idx);
    let (job, lane) = rt.inject.pop_for(node)?;
    let my = &rt.workers[idx];
    if lane == node {
        WorkerStats::bump(&my.stats.inject_own_lane, 1);
    } else {
        WorkerStats::bump(&my.stats.inject_remote_lane, 1);
    }
    my.reset_fail_streak();
    Some((job, lane))
}

/// Run an injected root job taken from `lane` on worker `idx`.
fn run_job(rt: &Arc<RtInner>, idx: usize, job: Job, lane: usize) {
    let my = &rt.workers[idx];
    let mut raw = RawCtx::new(rt, idx);
    if rt.telemetry.enabled() {
        // Traced job span (`DESIGN.md` §9): drain instant, the
        // submit→start delta (stamped at submission) into the band's
        // queueing histogram, then the B/E pair.
        let band = job.band.min(crate::attrs::PRIORITY_BANDS as u8 - 1);
        let t0 = telemetry::tick();
        my.tele.emit(t0, EventKind::InjectDrain, band, lane as u32);
        if job.submit_tick != 0 {
            my.tele.submit_to_start[band as usize].record(t0.saturating_sub(job.submit_tick));
        }
        job_span(my, t0, band, lane as u32, || (job.run)(&mut raw));
    } else {
        (job.run)(&mut raw);
    }
}

/// A traced root job's B/E pair on `my`'s lane, begun at tick `t0`, and
/// the body's wall time into the band's service histogram.
fn job_span<R>(my: &Worker, t0: u64, band: u8, lane: u32, body: impl FnOnce() -> R) -> R {
    my.tele.emit(t0, EventKind::JobBegin, band, lane);
    let r = body();
    let t1 = telemetry::tick();
    my.tele.emit(t1, EventKind::JobEnd, band, lane);
    my.tele.start_to_done[band as usize].record(t1.saturating_sub(t0));
    r
}

/// Run a scope root on the calling thread as worker `seat` of `rt`, a
/// seat claimed with [`ParkLot::lend`]: the root uses the seat's lane,
/// deque, frames, telemetry ring and stats, and `CURRENT` names the seat
/// for the length of the call (then the caller's own identity again).
/// The root's job span goes on the seat's trace lane, as an injected
/// job's would. The seat is handed back before this returns, panic or
/// not; a panic comes back as the `Err` for the caller to re-raise.
pub(crate) fn run_on_seat<'scope, F, R>(
    rt: &Arc<RtInner>,
    seat: usize,
    f: F,
) -> std::thread::Result<R>
where
    F: FnOnce(&mut Ctx<'scope>) -> R,
{
    let prev = set_current(rt, seat);
    let mut raw = RawCtx::new(rt, seat);
    let r = if rt.telemetry.enabled() {
        let lane = rt.topo.node_of(seat) as u32;
        job_span(
            &rt.workers[seat],
            telemetry::tick(),
            NORMAL_BAND,
            lane,
            || raw.run_scoped_catch(f),
        )
    } else {
        raw.run_scoped_catch(f)
    };
    drop(raw);
    CURRENT.with(|c| c.set(prev));
    rt.park_lot.hand_back(rt, seat);
    r
}

/// Take and run one injected root job; `false` when every lane is empty.
pub(crate) fn try_drain_inject(rt: &Arc<RtInner>, idx: usize) -> bool {
    match pop_inject(rt, idx) {
        Some((job, lane)) => {
            run_job(rt, idx, job, lane);
            true
        }
        None => false,
    }
}

/// Work the idle loop acquired, not yet run: the loop leaves its idle
/// state before running it, so a long body never counts as a searcher.
enum Work {
    Grab(Grab),
    Job(Job, usize),
}

impl Work {
    fn run(self, rt: &Arc<RtInner>, idx: usize) {
        match self {
            Work::Grab(grab) => run_grab(rt, idx, grab),
            Work::Job(job, lane) => run_job(rt, idx, job, lane),
        }
    }
}

/// Work the searching round and the parker's re-check take first: the
/// worker's own ready list (one relaxed load when it is empty), then its
/// own lane. The list goes first because a thief working through released
/// tasks finds its next one there.
fn acquire_local(rt: &Arc<RtInner>, idx: usize) -> Option<Work> {
    if let Some(task) = rt.workers[idx].ready.pop() {
        return Some(Work::Grab(Grab::Task(task)));
    }
    rt.lanes.pop(idx).map(|job| Work::Grab(Grab::Fast(job)))
}

/// One searching round for worker `idx`: the local sources
/// ([`acquire_local`]), then root jobs from outside the pool (nearest
/// lane first), then one policy-driven steal attempt.
fn acquire(rt: &Arc<RtInner>, idx: usize) -> Option<Work> {
    if let Some(work) = acquire_local(rt, idx) {
        return Some(work);
    }
    if let Some((job, lane)) = pop_inject(rt, idx) {
        return Some(Work::Job(job, lane));
    }
    try_steal_once(rt, idx).map(Work::Grab)
}

/// The parker's re-check: like [`acquire`], but the steal part probes
/// *every* victim `Steal::may_steal_from` allows under its steal lock
/// ([`steal_exact`]) rather than one chosen victim, so `None` means
/// no source held work this worker may take at the time of the probe.
fn acquire_exact(rt: &Arc<RtInner>, idx: usize) -> Option<Work> {
    if let Some(work) = acquire_local(rt, idx) {
        return Some(work);
    }
    if let Some((job, lane)) = pop_inject(rt, idx) {
        return Some(Work::Job(job, lane));
    }
    let p = rt.num_workers();
    (1..p)
        .map(|k| (idx + k) % p)
        .filter(|&v| rt.steal.may_steal_from(idx, v, &rt.topo))
        .find_map(|v| steal_exact(rt, idx, v).map(Work::Grab))
}

/// The worker idle loop: acquire and run work; when there is none,
/// search for [`SEARCH_BUDGET`], then park (see the module docs for the
/// handshake that makes the park safe without a timeout).
pub(crate) fn worker_main(rt: Arc<RtInner>, idx: usize) {
    set_current(&rt, idx);
    let my = &rt.workers[idx];
    let lot = &rt.park_lot;
    let mut searching = false;
    // When the current idle stretch began (`None` while busy).
    let mut idle_since: Option<Instant> = None;
    let mut rounds = 0u32;
    while !rt.shutdown.load(Ordering::Acquire) {
        if let Some(work) = acquire(&rt, idx) {
            if searching {
                searching = false;
                lot.found_work(&rt, idx);
            }
            idle_since = None;
            my.reset_fail_streak();
            work.run(&rt, idx);
            continue;
        }
        let now = Instant::now();
        let since = *idle_since.get_or_insert(now);
        if !searching {
            searching = lot.try_search();
        }
        if searching && now.duration_since(since) < SEARCH_BUDGET {
            rounds = rounds.wrapping_add(1);
            if rounds.is_multiple_of(YIELD_EVERY) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
            continue;
        }
        if searching {
            searching = false;
            lot.stop_searching();
        }
        lot.announce(idx);
        if let Some(work) = acquire_exact(&rt, idx) {
            if lot.retract(idx) {
                // The wake that found this worker re-checking was meant
                // for a unit it may not be taking: pass it on.
                lot.wake_if_needed(&rt, Near::Worker(idx), 1);
            }
            idle_since = None;
            my.reset_fail_streak();
            work.run(&rt, idx);
            continue;
        }
        // Park/unpark span events are emitted here — on the worker
        // thread, the ring's single producer — not inside ParkLot,
        // which has no worker identity. Park goes out before the commit
        // to block: from then on a scope caller may hold this ring.
        telemetry::emit_current(&rt, idx, EventKind::Park, 0, my.fail_streak());
        lot.park(idx, || rt.shutdown.load(Ordering::Acquire));
        telemetry::emit_current(&rt, idx, EventKind::Unpark, 0, 0);
        lot.leave_waker_cpu(idx);
        // A woken worker searches with a fresh budget.
        idle_since = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::{Affinity, Priority, TaskAttrs};
    use crate::task::ST_OWNER;
    use crate::Runtime;

    fn task(priority: Priority, affinity: Affinity) -> Arc<Task> {
        let attrs = TaskAttrs {
            priority,
            affinity,
            cancel: None,
        };
        Arc::new(Task::new(Box::new(|_| {}), Box::new([]), attrs))
    }

    /// List `tasks` in order on a fresh ready list.
    fn listed(tasks: &[Arc<Task>]) -> ReadyList {
        let list = ReadyList::new();
        let mut batch = list.batch();
        for t in tasks {
            batch.push(Arc::clone(t));
        }
        drop(batch);
        list
    }

    /// Indices into `all` of the tasks in `got`.
    fn indices(all: &[Arc<Task>], got: &[Arc<Task>]) -> Vec<usize> {
        got.iter()
            .map(|t| all.iter().position(|a| Arc::ptr_eq(a, t)).unwrap())
            .collect()
    }

    /// `pop` claims High before Normal before Low, oldest first within a
    /// band, and skips an entry another claimant took first.
    #[test]
    fn ready_list_pops_by_band_then_age_and_skips_claimed() {
        use Priority::{High, Low, Normal};
        let all: Vec<Arc<Task>> = [Low, Normal, High, Low, Normal, High, Normal]
            .into_iter()
            .map(|p| task(p, Affinity::None))
            .collect();
        let list = listed(&all);
        assert!(all[4].try_claim(ST_OWNER), "the owner's FIFO walk ran it");
        let popped: Vec<Arc<Task>> = std::iter::from_fn(|| list.pop()).collect();
        assert_eq!(indices(&all, &popped), [2, 5, 1, 6, 0, 3]);
        assert!(popped.iter().all(|t| t.state() == ST_STOLEN), "pop claims");
        assert!(list.is_empty_hint());
    }

    /// `steal_half` moves half of the live entries, unclaimed: the highest
    /// band first and the oldest first, or, given a home node, the tasks
    /// whose affinity resolves to it first within each band.
    #[test]
    fn ready_list_steal_half_takes_the_oldest_half_home_node_first() {
        use Priority::{High, Normal};
        let on_1 = Affinity::Node(1);
        let all = || {
            vec![
                task(Normal, Affinity::None),
                task(High, Affinity::None),
                task(Normal, on_1),
                task(High, on_1),
                task(Normal, Affinity::None),
                task(Normal, on_1),
            ]
        };
        let steal = |home: Option<usize>| {
            let all = all();
            let list = listed(&all);
            let mut out = Vec::new();
            list.steal_half(home, 2, &mut out);
            assert!(out.iter().all(|t| t.state() == ST_INIT), "left unclaimed");
            let rest: Vec<Arc<Task>> = std::iter::from_fn(|| list.pop()).collect();
            (indices(&all, &out), indices(&all, &rest))
        };
        assert_eq!(steal(None), (vec![1, 3, 0], vec![2, 4, 5]));
        assert_eq!(steal(Some(1)), (vec![3, 1, 2], vec![0, 4, 5]));
        // One live entry still moves; stale ones are dropped, not moved.
        let all = all();
        let list = listed(&all[..2]);
        assert!(all[1].try_claim(ST_OWNER));
        let mut out = Vec::new();
        list.steal_half(None, 2, &mut out);
        assert_eq!(indices(&all, &out), [0]);
        assert!(list.is_empty_hint());
    }

    /// `purge` drops stale entries and says whether live ones remain.
    #[test]
    fn ready_list_purge_drops_stale_entries() {
        let all: Vec<Arc<Task>> = (0..3)
            .map(|_| task(Priority::Normal, Affinity::None))
            .collect();
        let list = listed(&all);
        assert!(all[0].try_claim(ST_OWNER) && all[2].try_claim(ST_OWNER));
        assert!(list.purge(), "one live entry remains");
        assert_eq!(list.len.load(Ordering::Relaxed), 1);
        assert!(all[1].try_claim(ST_OWNER));
        assert!(!list.purge(), "every entry was stale");
        assert!(list.is_empty_hint());
        assert!(!list.purge(), "an empty list has nothing live");
    }

    /// Seat rule: only a thread holding a lent seat passes its CPU with
    /// a wake.
    #[test]
    fn only_a_seat_holder_passes_its_cpu_with_a_wake() {
        let rt = Runtime::builder().workers(1).build();
        let inner = Arc::clone(&rt.inner);
        let lot = &inner.park_lot;
        assert_eq!(lot.seat_holder_cpu(&inner), NO_CPU, "not a seat holder");
        let t0 = Instant::now();
        let seat = loop {
            if let Some(seat) = lot.lend() {
                break seat;
            }
            assert!(
                t0.elapsed() < Duration::from_secs(30),
                "the worker never parked"
            );
            std::thread::sleep(Duration::from_millis(1));
        };
        let prev = set_current(&inner, seat);
        let cpu = lot.seat_holder_cpu(&inner);
        CURRENT.with(|c| c.set(prev));
        lot.hand_back(&inner, seat);
        if crate::pin::current_cpu().is_some() {
            assert_ne!(cpu, NO_CPU, "a seat holder names its CPU");
        }
        assert_eq!(lot.seat_holder_cpu(&inner), NO_CPU, "handed back");
    }

    /// Seat rule: a worker woken onto the seat holder's CPU steps off it
    /// unless that is the only CPU it may use. Each case runs on a thread
    /// of its own that stands in for the woken worker.
    #[test]
    fn a_worker_woken_onto_the_holders_cpu_steps_off_it() {
        let woken_on_holders_cpu = |confined: bool| {
            std::thread::spawn(move || {
                let lot = ParkLot::new(1);
                let here = crate::pin::current_cpu()?;
                if confined && !crate::pin::confine_to(here) {
                    return None;
                }
                lot.slots[0].waker_cpu.store(here, Ordering::Relaxed);
                lot.leave_waker_cpu(0);
                assert_eq!(lot.slots[0].waker_cpu.load(Ordering::Relaxed), NO_CPU);
                Some((here, crate::pin::current_cpu()?))
            })
            .join()
            .unwrap()
        };
        if let Some((here, now)) = woken_on_holders_cpu(true) {
            assert_eq!(here, now, "a confined worker stays on its CPU");
        }
        let others = std::thread::available_parallelism().map_or(0, |n| n.get() - 1);
        if let Some((here, now)) = woken_on_holders_cpu(false) {
            if others > 0 {
                assert_ne!(here, now, "the woken worker left the holder's CPU");
            }
        }
    }
}
