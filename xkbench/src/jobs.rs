//! `submit_jobs`: small root jobs through `Runtime::submit`, as a closed
//! loop (capacity: one submitter keeps 256 jobs in flight) and as an open
//! loop (what an independent caller sees: 100 000 jobs/s on a schedule,
//! each timed from the moment it was due).

use crate::spans::Spans;
use crate::stats::{busy_work, now_ns, Rng, Samples};
use crate::workloads::{Pools, Workload, SEQ};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use xkaapi_core::{JoinHandle, Runtime};

/// Jobs of one closed-loop sample, and of the sequential reference.
pub const BATCH: usize = 16 * 1024;
const IN_FLIGHT: usize = 256;
/// LCG steps per job (≈ 0.1 µs): the job is almost all runtime.
const WORK: u64 = 100;
/// Open-loop rate, 100 000 jobs/s.
pub const PERIOD_NS: u64 = 10_000;
/// Open-loop jobs per round: 50 ms on schedule.
const SLICE_JOBS: usize = 5_000;
/// In a traced run one job in 64 carries stamps and gets spans.
const SAMPLE_EVERY: usize = 64;
/// The fourth variant of a `submit_jobs` round.
const OPEN: usize = 3;

/// Call `send(i)` for `i in 0..n` on a fixed schedule: job `i` is due
/// `i * period_ns` after the start and is never sent early; after a stall
/// the generator sends back to back until it has caught up. Pushes how
/// late (ns) each send began and returns the start, on the [`now_ns`]
/// clock, so latencies can be taken from the due times.
pub fn paced(n: usize, period_ns: u64, late_ns: &mut Vec<u64>, mut send: impl FnMut(usize)) -> u64 {
    let t0 = now_ns();
    for i in 0..n {
        let due = t0 + i as u64 * period_ns;
        let mut now = now_ns();
        while now < due {
            std::hint::spin_loop();
            now = now_ns();
        }
        late_ns.push(now - due);
        send(i);
    }
    t0
}

/// Stamps written by job bodies, indexed by the job's position in its
/// call; read by the main thread after every handle was waited for.
struct Slots {
    start: Vec<AtomicU64>,
    done: Vec<AtomicU64>,
}

/// Submitter-side stamps of one sampled job.
struct Stamp {
    job: usize,
    submit_start: u64,
    submit_end: u64,
}

/// What the open loop measures, pooled over every slice.
#[derive(Default)]
pub struct OpenStats {
    /// Due time → the body has returned its result, µs.
    pub latency_us: Samples,
    /// How late the generator began each send, µs.
    pub late_us: Samples,
    /// Most jobs sent and not yet done at the moment of a send.
    pub backlog_max: u64,
    /// Duration of the `Runtime::submit` call, ns (sampled jobs).
    pub submit_ns: Samples,
    /// Return of `submit` → body start, µs (sampled jobs).
    pub queued_us: Samples,
}

/// The job generator shared by the workload and the ledger's `inject`
/// probes: seeded tags, their reference results, and the stamp slots.
pub struct Generator {
    tags: Vec<u64>,
    results: Vec<u64>,
    slots: Arc<Slots>,
    handles: Vec<(usize, JoinHandle<u64>)>,
    ring: VecDeque<JoinHandle<u64>>,
    late_ns: Vec<u64>,
    stamps: Vec<Stamp>,
    /// Stamp one job in 64 (traced rounds).
    pub traced: bool,
    /// Jobs sent and wrapping sum of the results of the last call.
    sent: usize,
    sum: u64,
    errs: u64,
    pub open: OpenStats,
}

impl Generator {
    /// `capacity` bounds the jobs of one call (stamp slots are per call).
    pub fn new(seed: u64, capacity: usize) -> Generator {
        let mut rng = Rng::new(seed);
        let tags: Vec<u64> = (0..BATCH).map(|_| rng.next_u64()).collect();
        let results = tags.iter().map(|&t| busy_work(t, WORK)).collect();
        let stamps = |n| (0..n).map(|_| AtomicU64::new(0)).collect();
        Generator {
            tags,
            results,
            slots: Arc::new(Slots {
                start: stamps(capacity),
                done: stamps(capacity),
            }),
            handles: Vec::with_capacity(capacity),
            ring: VecDeque::with_capacity(IN_FLIGHT),
            late_ns: Vec::with_capacity(capacity),
            stamps: Vec::new(),
            traced: false,
            sent: 0,
            sum: 0,
            errs: 0,
            open: OpenStats::default(),
        }
    }

    fn reset(&mut self) {
        self.stamps.clear();
        self.sent = 0;
        self.sum = 0;
        self.errs = 0;
    }

    /// The plain sequential code: the same jobs as direct calls.
    fn sequential(&mut self) {
        self.reset();
        self.sent = self.tags.len();
        self.sum = self
            .tags
            .iter()
            .fold(0, |s, &t| s.wrapping_add(busy_work(t, WORK)));
    }

    /// Submit job `i` with body stamps: `done` always, `start` when
    /// `sampled`.
    fn submit_stamped(&mut self, rt: &Runtime, i: usize, sampled: bool) -> Option<JoinHandle<u64>> {
        let tag = self.tags[i % BATCH];
        let slots = Arc::clone(&self.slots);
        let t0 = if sampled { now_ns() } else { 0 };
        let h = rt.submit(move |_| {
            if sampled {
                slots.start[i].store(now_ns(), Ordering::Relaxed);
            }
            let r = busy_work(tag, WORK);
            slots.done[i].store(now_ns(), Ordering::Relaxed);
            r
        });
        if sampled {
            self.stamps.push(Stamp {
                job: i,
                submit_start: t0,
                submit_end: now_ns(),
            });
        }
        if h.is_err() {
            self.errs += 1;
        }
        h.ok()
    }

    /// Closed loop: one submitter keeps up to 256 jobs in flight until
    /// `BATCH` jobs are done.
    pub fn closed_loop(&mut self, rt: &Runtime) {
        self.reset();
        self.sent = BATCH;
        for i in 0..BATCH {
            if self.ring.len() == IN_FLIGHT {
                let h = self.ring.pop_front().expect("ring is full");
                self.sum = self.sum.wrapping_add(h.wait());
            }
            let h = if self.traced && i % SAMPLE_EVERY == 0 {
                self.submit_stamped(rt, i, true)
            } else {
                let tag = self.tags[i];
                let h = rt.submit(move |_| busy_work(tag, WORK));
                self.errs += u64::from(h.is_err());
                h.ok()
            };
            self.ring.extend(h);
        }
        while let Some(h) = self.ring.pop_front() {
            self.sum = self.sum.wrapping_add(h.wait());
        }
    }

    /// Open loop: `n` jobs on the 100 000 jobs/s schedule; latencies,
    /// generator lateness and backlog go to [`Generator::open`].
    pub fn open_loop(&mut self, rt: &Runtime, n: usize) {
        self.reset();
        self.sent = n;
        let mut late = std::mem::take(&mut self.late_ns);
        let mut handles = std::mem::take(&mut self.handles);
        late.clear();
        let t0 = paced(n, PERIOD_NS, &mut late, |i| {
            let sampled = self.traced && i % SAMPLE_EVERY == 0;
            handles.extend(self.submit_stamped(rt, i, sampled).map(|h| (i, h)));
        });
        let mut done: Vec<u64> = Vec::with_capacity(handles.len());
        for (i, h) in handles.drain(..) {
            self.sum = self.sum.wrapping_add(h.wait());
            let end = self.slots.done[i].load(Ordering::Relaxed);
            done.push(end);
            let due = t0 + i as u64 * PERIOD_NS;
            self.open
                .latency_us
                .push(end.saturating_sub(due) as f64 / 1e3);
        }
        // Backlog at each send: jobs sent before it and not yet done.
        done.sort_unstable();
        let mut finished = 0;
        for (i, &l) in late.iter().enumerate() {
            let sent_at = t0 + i as u64 * PERIOD_NS + l;
            while finished < done.len() && done[finished] <= sent_at {
                finished += 1;
            }
            self.open.backlog_max = self.open.backlog_max.max((i - finished.min(i)) as u64);
            self.open.late_us.push(l as f64 / 1e3);
        }
        for s in &self.stamps {
            let start = self.slots.start[s.job].load(Ordering::Relaxed);
            self.open
                .submit_ns
                .push((s.submit_end - s.submit_start) as f64);
            self.open
                .queued_us
                .push(start.saturating_sub(s.submit_end) as f64 / 1e3);
        }
        self.late_ns = late;
        self.handles = handles;
    }

    /// (jobs checked, failed) of the last call: submits that returned
    /// `Err`, plus one for a checksum that does not match the reference.
    pub fn check(&self) -> (u64, u64) {
        let expected = (0..self.sent).fold(0u64, |s, i| s.wrapping_add(self.results[i % BATCH]));
        let mismatch = self.errs == 0 && self.sum != expected;
        (self.sent as u64, self.errs + u64::from(mismatch))
    }

    /// Spans of the last call's sampled jobs: the `submit` call on the
    /// bench's lane, queueing and the body on the job lane. There is no
    /// `job.done` span: no public hook observes the handle's completion
    /// without adding work to it.
    pub fn drain_spans(&mut self, spans: &mut Spans, parent: u32, round: u32) {
        for s in self.stamps.drain(..) {
            let start = self.slots.start[s.job].load(Ordering::Relaxed);
            let done = self.slots.done[s.job].load(Ordering::Relaxed);
            let call = spans.add(
                "inject.submit",
                s.submit_start,
                s.submit_end,
                parent,
                round,
                0,
            );
            spans.add(
                "job.queued",
                s.submit_end,
                start.max(s.submit_end),
                call,
                round,
                1,
            );
            spans.add("job.run", start, done.max(start), call, round, 1);
        }
    }
}

/// The workload: per round one sequential batch, one closed-loop batch on
/// the 1-worker runtime, one on the `W−1`-worker runtime (the submitter
/// is the remaining thread), and one open-loop slice on the latter.
pub struct SubmitJobs {
    pools: Pools,
    gen: Generator,
}

impl SubmitJobs {
    pub fn new(w: usize, seed: u64) -> SubmitJobs {
        SubmitJobs {
            pools: Pools::new((w - 1).max(1)),
            gen: Generator::new(seed, SLICE_JOBS.max(BATCH)),
        }
    }
}

impl Workload for SubmitJobs {
    fn ops(&self) -> u64 {
        BATCH as u64
    }
    fn variants(&self) -> usize {
        4
    }
    fn pools(&self) -> &Pools {
        &self.pools
    }
    fn call_name(&self) -> &'static str {
        "submit.closed"
    }
    fn span_name(&self, v: usize) -> &'static str {
        match v {
            SEQ => "seq",
            OPEN => "submit.open",
            _ => self.call_name(),
        }
    }
    fn prepare(&mut self, _v: usize) {}
    fn call(&mut self, v: usize) {
        match v {
            SEQ => self.gen.sequential(),
            OPEN => self.gen.open_loop(&self.pools.many, SLICE_JOBS),
            _ => self.gen.closed_loop(self.pools.get(v)),
        }
    }
    fn verify(&mut self, _v: usize) -> (u64, u64) {
        self.gen.check()
    }
    fn set_traced(&mut self, on: bool) {
        self.gen.traced = on;
    }
    fn drain_spans(&mut self, spans: &mut Spans, parent: u32, round: u32) {
        self.gen.drain_spans(spans, parent, round);
    }
    fn job_latencies(&mut self) -> Option<&mut Samples> {
        Some(&mut self.gen.open.latency_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A 5 ms stall of the generator must show in the latency of the jobs
    /// that were due during it: latency is taken from the due time, not
    /// from the moment the job was finally sent.
    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let (n, period, stall_at) = (2_000usize, 10_000u64, 500usize);
        let mut done = vec![0u64; n];
        let mut late = Vec::new();
        let t0 = paced(n, period, &mut late, |i| {
            if i == stall_at {
                std::thread::sleep(Duration::from_millis(5));
            }
            done[i] = now_ns(); // the "job" completes the moment it is sent
        });
        let latency = |i: usize| done[i] - (t0 + i as u64 * period);
        // Jobs due during the stall waited for it, although each was
        // "served" instantly once sent.
        assert!(
            latency(stall_at + 1) >= 4_000_000,
            "{}",
            latency(stall_at + 1)
        );
        assert!(latency(stall_at + 50) >= 4_000_000);
        assert!(late[stall_at + 1] >= 4_000_000, "lateness is reported");
        // The backlog drains: 500 periods = 5 ms later the schedule holds.
        assert!(latency(n - 1) < 2_000_000, "{}", latency(n - 1));
        // Never early.
        assert!((0..n).all(|i| done[i] >= t0 + i as u64 * period));
    }

    #[test]
    fn closed_and_open_loops_check_out() {
        let rt = crate::workloads::pool(1);
        let mut g = Generator::new(3, BATCH);
        g.sequential();
        assert_eq!(g.check(), (BATCH as u64, 0));
        g.traced = true;
        g.closed_loop(&rt);
        assert_eq!(g.check(), (BATCH as u64, 0));
        let mut spans = Spans::default();
        spans.on = true;
        g.drain_spans(&mut spans, crate::spans::ROOT, 0);
        assert_eq!(spans.len(), 3 * BATCH / SAMPLE_EVERY);
        g.open_loop(&rt, 1_000);
        assert_eq!(g.check(), (1_000, 0));
        assert_eq!(g.open.latency_us.len(), 1_000);
        assert_eq!(g.open.submit_ns.len(), 1_000_usize.div_ceil(SAMPLE_EVERY));
        g.sum ^= 1;
        assert_eq!(g.check(), (1_000, 1), "a wrong checksum is a failure");
    }
}
