//! Work stealing with request aggregation (flat combining).
//!
//! An idle worker posts a request node onto the victim's Treiber stack, then
//! races to acquire the victim's *steal lock*. The winner — the **elected
//! combiner thief** — drains every pending request and serves all of them in
//! a single traversal of the victim's work: N pending requests are handled
//! by one ready-task detection, the paper's reduction of steal overhead
//! ([Hendler et al.] flat combining, [Tchiboukdjian et al.] analysis).
//!
//! The combiner first scans the victim's unpromoted frames from the oldest
//! for ready data-flow tasks (claiming them with the task-state CAS), then
//! moves the oldest half of the victim's ready list into each thief's own
//! list (`DESIGN.md` §2, "Ready lists"), then invokes the splitters of the
//! victim's adaptive tasks. Because splitters only run under the victim's
//! steal lock, at most one thief splits any adaptive task at a time — the
//! synchronisation contract the adaptive model relies on.
//!
//! *Which* victim a thief probes, how many drained requests a combiner
//! serves per pass and in what order are all delegated to the
//! [`StealPolicy`](crate::StealPolicy) (topology-aware victim selection,
//! bounded near-first batches — DESIGN.md §3); requests beyond a bounded
//! batch are re-queued onto the victim's stack while it still has work.

use crate::ctx::{execute_task, Release};
use crate::frame::Frame;
use crate::runtime::RtInner;
use crate::stats::WorkerStats;
use crate::task::{Task, ST_STOLEN};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU8, Ordering};
use std::sync::Arc;

/// Boxed closure a thief executes (typically a stolen adaptive-loop slice).
pub(crate) type RunFn = Box<dyn FnOnce(&Arc<RtInner>, usize) + Send>;

/// Work handed to a thief.
pub(crate) enum Grab {
    /// A stack job stolen from the fork-join fast lane.
    Fast(crate::fastlane::FastJob),
    /// A claimed data-flow task (state already `ST_STOLEN`). The task
    /// knows its frame and index, so inspection (band, affinity) and
    /// execution never lock the frame to look it up.
    Task(Arc<Task>),
    /// A closure to run (typically a stolen slice of an adaptive loop).
    Run(RunFn),
}

pub(crate) const REQ_FREE: u8 = 0;
pub(crate) const REQ_POSTED: u8 = 1;
pub(crate) const REQ_SERVED: u8 = 2;
pub(crate) const REQ_EMPTY: u8 = 3;

/// A steal request. Each worker owns exactly one, re-posted serially.
pub(crate) struct Request {
    next: AtomicPtr<Request>,
    status: AtomicU8,
    /// Index of the requesting (thief) worker.
    pub(crate) thief: usize,
    /// Set when a bounded combiner batch re-queued this request instead of
    /// answering it; a request is re-queued at most once per post, bounding
    /// how long a thief can be held inside one steal attempt.
    requeued: AtomicBool,
    grab: UnsafeCell<Option<Grab>>,
}

// Safety: `grab` is written by the combiner before the `Release` store of
// `status = SERVED`, and read by the owning thief after an `Acquire` load.
unsafe impl Sync for Request {}
unsafe impl Send for Request {}

impl Request {
    pub(crate) fn new(thief: usize) -> Request {
        Request {
            next: AtomicPtr::new(std::ptr::null_mut()),
            status: AtomicU8::new(REQ_FREE),
            thief,
            requeued: AtomicBool::new(false),
            grab: UnsafeCell::new(None),
        }
    }
}

/// Push a (already `REQ_POSTED`) node onto `victim`'s request stack.
/// Used both for fresh posts and for re-queueing requests a bounded
/// combiner batch could not serve this pass.
fn push_node(victim: &crate::worker::Worker, req: &Request) {
    let req_ptr = req as *const Request as *mut Request;
    let mut head = victim.req_head.load(Ordering::Relaxed);
    loop {
        req.next.store(head, Ordering::Relaxed);
        match victim.req_head.compare_exchange_weak(
            head,
            req_ptr,
            Ordering::Release,
            Ordering::Relaxed,
        ) {
            Ok(_) => return,
            Err(h) => head = h,
        }
    }
}

/// Push `req` onto `victim`'s request stack.
fn post_request(victim: &crate::worker::Worker, req: &Request) {
    req.status.store(REQ_POSTED, Ordering::Relaxed);
    req.requeued.store(false, Ordering::Relaxed);
    push_node(victim, req);
}

/// Drain all posted requests from `victim` (combiner side).
fn drain_requests(victim: &crate::worker::Worker) -> Vec<&Request> {
    let mut head = victim
        .req_head
        .swap(std::ptr::null_mut(), Ordering::Acquire);
    let mut out = Vec::new();
    while !head.is_null() {
        // Safety: request nodes live inside `Arc<Worker>`s owned by the
        // runtime; a node stays valid for the runtime's lifetime, and the
        // posting thief spins until we publish an answer.
        let req: &Request = unsafe { &*head };
        head = req.next.load(Ordering::Relaxed);
        out.push(req);
    }
    out
}

/// Serve `reqs` against `victim`: claim ready tasks (unpromoted frames,
/// oldest first), move ready-list halves, then split adaptive work.
/// Returns grabs (≤ `reqs.len()`), in an order matching `reqs` as far as
/// it goes.
fn serve(
    rt: &Arc<RtInner>,
    me: usize,
    victim_idx: usize,
    reqs: &[&Request],
    my_stats: &WorkerStats,
) -> Vec<Grab> {
    let victim = &rt.workers[victim_idx];
    let k = reqs.len();
    let mut grabs: Vec<Grab> = Vec::with_capacity(k);

    // 0. Queue layer: the victim's share of the ready-work store (fork-join
    // lane under DistributedLanes, the shared pool under a central queue).
    while grabs.len() < k {
        match rt.queue.steal(reqs[grabs.len()].thief, victim_idx) {
            Some(item) => grabs.push(item.into_grab()),
            None => break,
        }
    }

    // 1. Ready data-flow tasks from the victim's unpromoted frames, under
    // the victim's frame-list lock: no handle on a frame outlives the
    // scan, so none keeps a finished frame out of its owner's pool. A
    // promotion releases the frame's ready tasks onto the victim's ready
    // list, where step 2 finds them. One scratch Vec for the whole pass.
    let frames = victim.frames.lock();
    let (mut promotions, mut bound) = (0u64, 0u64);
    let mut claimed: Vec<Arc<Task>> = Vec::new();
    for f in frames.iter().filter(|f| !f.promoted()) {
        if grabs.len() >= k {
            break;
        }
        let mut release = Release::to(rt, me, victim_idx);
        let max = k - grabs.len();
        let promoted = f.steal_scan(max, &rt.tun.promotion, &mut bound, &mut claimed, |t| {
            release.push(t)
        });
        release.finish();
        promotions += u64::from(promoted);
        for task in claimed.drain(..) {
            ship(rt, me, task, &mut grabs);
        }
    }
    drop(frames);
    if promotions > 0 {
        WorkerStats::bump(&my_stats.promotions, promotions);
    }
    if bound > 0 {
        WorkerStats::bump(&my_stats.dataflow_pushes, bound);
    }

    // 2. Ready lists: each unserved thief takes the oldest half of the
    // victim's list. It runs the first task it can claim and lists the
    // rest as its own, so one served request carries a batch.
    let nodes = rt.topo.nodes();
    while grabs.len() < k {
        let thief = reqs[grabs.len()].thief;
        let home = (!rt.topo.is_flat()).then(|| rt.topo.node_of(thief));
        claimed.clear();
        victim.ready.steal_half(home, nodes, &mut claimed);
        if claimed.is_empty() {
            break;
        }
        let before = grabs.len();
        let mut rest = claimed.drain(..);
        for task in rest.by_ref() {
            if task.try_claim(ST_STOLEN) {
                ship(rt, me, task, &mut grabs);
                if grabs.len() > before {
                    break;
                }
            }
        }
        let mut mine = rt.workers[thief].ready.batch();
        rest.for_each(|t| mine.push(t));
    }

    // 3. Adaptive tasks: invoke splitters for the still-unserved thieves,
    //    higher-priority adaptives first (stable: registration order within
    //    one band — attribute-free loops keep the historical order).
    if grabs.len() < k {
        let mut ads: Vec<Arc<dyn crate::adaptive::Adaptive>> = victim.adaptives.lock().clone();
        ads.sort_by_key(|a| a.band());
        for ad in ads {
            if grabs.len() >= k {
                break;
            }
            let thieves: Vec<usize> = reqs[grabs.len()..].iter().map(|r| r.thief).collect();
            let before = grabs.len();
            ad.split(&thieves, &mut grabs);
            debug_assert!(grabs.len() - before <= thieves.len());
            if grabs.len() > before {
                WorkerStats::bump(&my_stats.splits, 1);
            }
        }
    }
    grabs
}

/// Hand a task claimed for a thief over as a grab. Steal-grab
/// cancellation boundary: a cancelled task is never worth shipping to a
/// thief, so the combiner retires it instead (body skipped, countdowns
/// drained) and the grab slot stays free for live work.
fn ship(rt: &Arc<RtInner>, me: usize, task: Arc<Task>, grabs: &mut Vec<Grab>) {
    if task.attrs.is_cancelled() {
        execute_task(rt, me, task);
    } else {
        grabs.push(Grab::Task(task));
    }
}

/// Data-affine grab assignment (the placement half of `DESIGN.md` §5):
/// `distribute` hands `grabs[i]` to `reqs[i]`, so before it runs, reorder
/// the grabs so a claimed task whose [`Affinity`](crate::Affinity)
/// resolves to a NUMA node lands on a thief of that node when one is in
/// the served batch. Best-effort single pass: a swap never displaces a
/// grab that was itself affine-matched to its thief.
fn place_affine(rt: &Arc<RtInner>, reqs: &[&Request], grabs: &mut [Grab], my_stats: &WorkerStats) {
    if rt.topo.is_flat() || grabs.is_empty() {
        return;
    }
    let nodes = rt.topo.nodes();
    let target_of = |g: &Grab| -> Option<usize> {
        match g {
            Grab::Task(task) => task.target_node(nodes),
            _ => None,
        }
    };
    let mut targets: Vec<Option<usize>> = grabs.iter().map(target_of).collect();
    if targets.iter().all(Option::is_none) {
        return; // attribute-free batch: nothing to place
    }
    let thief_node = |j: usize| rt.topo.node_of(reqs[j].thief);
    let mut placed = 0u64;
    for i in 0..grabs.len() {
        let Some(target) = targets[i] else { continue };
        if thief_node(i) == target {
            placed += 1;
            continue;
        }
        let better = (0..grabs.len()).find(|&j| {
            j != i && thief_node(j) == target && targets[j].is_none_or(|t| t != thief_node(j))
        });
        if let Some(j) = better {
            grabs.swap(i, j);
            targets.swap(i, j);
            placed += 1;
        }
    }
    if placed > 0 {
        WorkerStats::bump(&my_stats.affine_placements, placed);
    }
}

/// Answer `reqs` with `grabs` (missing ones get `REQ_EMPTY`).
fn distribute(reqs: Vec<&Request>, grabs: Vec<Grab>) {
    let mut grabs = grabs.into_iter();
    for req in reqs {
        match grabs.next() {
            Some(g) => {
                // Safety: we own the drained request until we publish status.
                unsafe {
                    *req.grab.get() = Some(g);
                }
                req.status.store(REQ_SERVED, Ordering::Release);
            }
            None => req.status.store(REQ_EMPTY, Ordering::Release),
        }
    }
}

/// One steal attempt by worker `me`: ask the steal policy for a victim
/// (topology- and fail-streak-aware), post a request, participate in
/// combining until answered. Returns work, or `None`.
///
/// The thief's *fail streak* (consecutive answered-empty attempts, kept on
/// the [`Worker`](crate::worker::Worker)) feeds the policy's victim
/// escalation; it is reset here on a successful grab and by the idle loop
/// on any acquired work.
pub(crate) fn try_steal_once(rt: &Arc<RtInner>, me: usize) -> Option<Grab> {
    #[cfg(feature = "fault-injection")]
    crate::fault::on_worker_boundary(rt, me);
    let p = rt.num_workers();
    let my = &rt.workers[me];
    if p < 2 {
        my.note_steal_failure();
        return None;
    }
    let choice = {
        let mut rng = || my.next_rand();
        rt.steal_pol
            .choose_victim(me, &mut rng, &rt.topo, my.fail_streak())
    };
    let v = if choice.victim == me || choice.victim >= p {
        // Defensive against misbehaving external policies: fall back to a
        // uniform legal victim rather than stealing from ourselves.
        debug_assert!(false, "policy chose an invalid victim {}", choice.victim);
        crate::policy::uniform_victim(me, p, &mut || my.next_rand())
    } else {
        choice.victim
    };
    if choice.escalated {
        WorkerStats::bump(&my.stats.victim_escalations, 1);
    }
    let victim = &rt.workers[v];
    WorkerStats::bump(&my.stats.steal_attempts, 1);
    crate::telemetry::emit_current(
        rt,
        me,
        crate::telemetry::EventKind::StealAttempt,
        0,
        v as u32,
    );
    post_request(victim, &my.req);

    loop {
        match my.req.status.load(Ordering::Acquire) {
            REQ_SERVED => {
                my.req.status.store(REQ_FREE, Ordering::Relaxed);
                // Safety: combiner wrote the grab before the Release store.
                let grab = unsafe { (*my.req.grab.get()).take() };
                WorkerStats::bump(&my.stats.steal_hits, 1);
                let local = rt.topo.same_node(me, v);
                if local {
                    WorkerStats::bump(&my.stats.steals_local_node, 1);
                } else {
                    WorkerStats::bump(&my.stats.steals_remote_node, 1);
                }
                // Telemetry distance class rides the band byte: 0 = the
                // victim shared the thief's NUMA node, 1 = remote.
                crate::telemetry::emit_current(
                    rt,
                    me,
                    crate::telemetry::EventKind::StealHit,
                    u8::from(!local),
                    v as u32,
                );
                my.reset_fail_streak();
                return grab;
            }
            REQ_EMPTY => {
                my.req.status.store(REQ_FREE, Ordering::Relaxed);
                crate::telemetry::emit_current(
                    rt,
                    me,
                    crate::telemetry::EventKind::StealFail,
                    0,
                    v as u32,
                );
                my.note_steal_failure();
                return None;
            }
            _ => {}
        }
        if let Some(_guard) = victim.steal_lock.try_lock() {
            // Elected combiner: serve a policy-sized batch of the pending
            // requests in one pass (all of them under full aggregation).
            let mut reqs = drain_requests(victim);
            if !reqs.is_empty() {
                // Distance-aware service order: near thieves get the grabs
                // first. The default policy keys everything 0, and the sort
                // is stable, so arrival order is preserved there.
                reqs.sort_by_key(|r| rt.steal_pol.thief_priority(v, r.thief, &rt.topo));
                let k = rt.steal_pol.serve_batch(reqs.len()).max(1).min(reqs.len());
                // Liveness: the combiner's own request must be in the batch
                // it serves — otherwise a bounded batch could re-queue us
                // forever while we keep doing everyone else's work.
                if let Some(pos) = reqs[k..].iter().position(|r| r.thief == me) {
                    reqs.swap(k - 1, k + pos);
                }
                let (serve_now, overflow) = reqs.split_at(k);
                let mut grabs = serve(rt, me, v, serve_now, &my.stats);
                place_affine(rt, serve_now, &mut grabs, &my.stats);
                WorkerStats::bump(&my.stats.combine_batches, 1);
                WorkerStats::bump(&my.stats.combine_served, serve_now.len() as u64);
                if serve_now.len() >= 2 {
                    WorkerStats::bump(&my.stats.aggregated_requests, serve_now.len() as u64);
                }
                let exhausted = grabs.len() < serve_now.len();
                distribute(serve_now.to_vec(), grabs);
                // Fairness: requests beyond the batch bound are *not*
                // failed while the victim still has work (the full batch
                // got grabs) — re-queue them so the next combiner pass
                // serves them. Once the victim ran dry mid-batch, answer
                // the rest empty so those thieves move on. Each request is
                // re-queued at most once per post: a thief in a join-wait
                // help loop must get back to re-checking its wait condition
                // within a bounded number of combiner passes, not be held
                // captive for the victim's whole work stream.
                for req in overflow {
                    if exhausted || req.requeued.swap(true, Ordering::Relaxed) {
                        req.status.store(REQ_EMPTY, Ordering::Release);
                    } else {
                        push_node(victim, req);
                    }
                }
            }
            continue; // re-check own status (we were among the drained)
        }
        std::hint::spin_loop();
    }
}

/// The parker's probe of one victim ([`crate::worker`]'s handshake): take
/// `victim`'s steal lock, blocking, and serve this thief's request alone.
/// Unlike [`try_steal_once`] it is exact — a request answered empty by a
/// bounded combiner batch, or re-queued past its turn, would read as "no
/// work" while the victim still had some, and the worker would then
/// block with stealable work in sight.
pub(crate) fn steal_exact(rt: &Arc<RtInner>, me: usize, victim: usize) -> Option<Grab> {
    let my = &rt.workers[me];
    WorkerStats::bump(&my.stats.steal_attempts, 1);
    let grab = {
        let _guard = rt.workers[victim].steal_lock.lock();
        serve(rt, me, victim, &[&my.req], &my.stats).pop()
    };
    if grab.is_some() {
        WorkerStats::bump(&my.stats.steal_hits, 1);
        let stat = if rt.topo.same_node(me, victim) {
            &my.stats.steals_local_node
        } else {
            &my.stats.steals_remote_node
        };
        WorkerStats::bump(stat, 1);
    }
    grab
}

/// Centralized-queue mode, unpromoted frame: claim every currently-ready
/// task of `frame` and publish it into the shared queue (insertion-time
/// scheduling, the QUARK/libGOMP model). Called by the engine on spawn and
/// on completion; a promoted frame publishes through its releases instead
/// (a released task goes straight to the queue).
pub(crate) fn publish_ready(rt: &Arc<RtInner>, me: usize, frame: &Frame) {
    debug_assert!(rt.queue.centralized());
    let mut claimed: Vec<Arc<Task>> = Vec::new();
    let mut release = Release::to(rt, me, me);
    let (pol, mut bound) = (&rt.tun.promotion, 0);
    let promoted = frame.steal_scan(usize::MAX, pol, &mut bound, &mut claimed, |t| {
        release.push(t)
    });
    for task in claimed {
        release.push_claimed(task);
    }
    release.finish();
    let stats = &rt.workers[me].stats;
    if promoted {
        WorkerStats::bump(&stats.promotions, 1);
    }
    if bound > 0 {
        WorkerStats::bump(&stats.dataflow_pushes, bound);
    }
}

/// Execute stolen work on worker `me`.
pub(crate) fn run_grab(rt: &Arc<RtInner>, me: usize, grab: Grab) {
    match grab {
        Grab::Fast(job) => {
            WorkerStats::bump(&rt.workers[me].stats.tasks_executed_stolen, 1);
            // Safety: the job's join does not return before the terminal
            // state we are about to set; the record is alive.
            unsafe { job.execute(rt, me) };
        }
        Grab::Task(task) => execute_task(rt, me, task),
        Grab::Run(f) => f(rt, me),
    }
}
