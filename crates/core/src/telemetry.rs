//! Always-on runtime telemetry (`DESIGN.md` §9): per-worker lock-free
//! event rings, banded latency histograms, and a unified metrics registry
//! with live chrome-trace (Perfetto) export.
//!
//! Three pieces, one discipline:
//!
//! * **event rings** — every worker owns a fixed-capacity SPSC ring of
//!   16-byte typed events ([`EventKind`]): task/job run spans, steal
//!   protocol outcomes, park/unpark, inject drains, replay groups and the
//!   PR 8 shed paths (panic/cancel). The owning worker thread is
//!   the *only* producer; draining (the consumer side) is serialized by
//!   the session lock in `TelemetryState`. A full ring drops the newest
//!   event and counts the drop — recording never blocks and never
//!   allocates.
//! * **banded latency histograms** — HDR-style fixed 64-bucket
//!   power-of-two histograms per worker × priority band × direction
//!   (submit→start and start→done), merged at snapshot time (bucket-wise
//!   addition, associative by construction) into the
//!   [`LatencyBands`] quantiles of
//!   [`StatsSnapshot`](crate::StatsSnapshot).
//! * **metrics registry** — [`MetricsRegistry`] is the single merge path
//!   for every layer's counters (worker stats, inject-lane globals,
//!   telemetry event/drop counts, latency quantiles), serialized as one
//!   JSON blob.
//!
//! Tracing is compiled in unconditionally but gated by one relaxed-load
//! [`AtomicBool`]: a disabled instrumentation point is a single load and a
//! predictable branch — no tick is taken, no event is built. The
//! `tests/alloc_counter.rs` zero-alloc gate and xkbench's untraced runs
//! both measure tracing compiled-but-off to keep that claim honest.
//!
//! Timestamps are raw TSC-style ticks (`rdtsc` on x86_64, `cntvct_el0` on
//! aarch64, a monotonic-clock fallback elsewhere), calibrated against
//! [`Instant`] over the session's real duration at drain time, so the hot
//! path pays one register read instead of a `clock_gettime`.

use crate::attrs::PRIORITY_BANDS;
use parking_lot::Mutex;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Clock

/// Read the cheap monotonic tick counter (raw, uncalibrated units).
///
/// x86_64 `rdtsc` / aarch64 `cntvct_el0` are global, monotonic-enough
/// counters on the hardware this runtime targets (invariant TSC); other
/// architectures fall back to a process-epoch `Instant`, making ticks
/// nanoseconds (calibration then measures ~1.0 ns/tick).
#[inline(always)]
pub(crate) fn tick() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: `rdtsc` reads the time-stamp counter; every x86_64 CPU has it.
        unsafe { core::arch::x86_64::_rdtsc() }
    }
    #[cfg(target_arch = "aarch64")]
    {
        let v: u64;
        unsafe { core::arch::asm!("mrs {v}, cntvct_el0", v = out(reg) v) };
        v
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        use std::sync::OnceLock;
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

// ---------------------------------------------------------------------------
// Events

/// Typed telemetry event recorded in a worker's ring.
///
/// Span kinds come in begin/end pairs ([`EventKind::span`]); the rest are
/// instants. The `band` byte carries the priority band for task/job
/// events and the distance class (0 = same NUMA node, 1 = remote) for
/// steal outcomes; `arg` carries the kind-specific operand (task sequence
/// number, victim worker, inject lane, replay group…).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// A claimed task body starts running (`arg` = frame slot).
    TaskBegin = 0,
    /// The matching end of [`EventKind::TaskBegin`].
    TaskEnd = 1,
    /// A root job drained from the inject lanes starts (`arg` = lane).
    JobBegin = 2,
    /// The matching end of [`EventKind::JobBegin`].
    JobEnd = 3,
    /// A steal request was posted to a victim (`arg` = victim worker).
    StealAttempt = 4,
    /// A steal request was served with work (`arg` = victim worker,
    /// `band` = distance class: 0 same-node, 1 remote).
    StealHit = 5,
    /// A steal request found the victim empty (`arg` = victim worker).
    StealFail = 6,
    /// The worker is about to park (begin of a `park` span).
    Park = 7,
    /// The worker woke from parking (end of the `park` span).
    Unpark = 8,
    /// A root job was taken out of inject lane `arg`.
    InjectDrain = 9,
    /// A recorded-DAG replay group started (`arg` = group index).
    ReplayGroup = 10,
    /// A task body panicked (contained; `arg` = frame slot).
    Panic = 11,
    /// A task or job was elided by cooperative cancellation.
    Cancel = 12,
    /// A job was shed at drain time (cancelled before it started).
    Shed = 13,
}

impl EventKind {
    /// Decode the ring's raw `u8` back into a kind (drain side).
    fn from_u8(v: u8) -> EventKind {
        match v {
            0 => EventKind::TaskBegin,
            1 => EventKind::TaskEnd,
            2 => EventKind::JobBegin,
            3 => EventKind::JobEnd,
            4 => EventKind::StealAttempt,
            5 => EventKind::StealHit,
            6 => EventKind::StealFail,
            7 => EventKind::Park,
            8 => EventKind::Unpark,
            9 => EventKind::InjectDrain,
            10 => EventKind::ReplayGroup,
            11 => EventKind::Panic,
            12 => EventKind::Cancel,
            13 => EventKind::Shed,
            _ => {
                // Only `push` writes the byte, from a typed kind.
                debug_assert!(false, "unknown telemetry event kind {v}");
                EventKind::Shed
            }
        }
    }

    /// Short stable label used in the chrome trace and metrics JSON.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::TaskBegin | EventKind::TaskEnd => "task",
            EventKind::JobBegin | EventKind::JobEnd => "job",
            EventKind::StealAttempt => "steal_attempt",
            EventKind::StealHit => "steal_hit",
            EventKind::StealFail => "steal_fail",
            EventKind::Park | EventKind::Unpark => "park",
            EventKind::InjectDrain => "inject_drain",
            EventKind::ReplayGroup => "replay_group",
            EventKind::Panic => "panic",
            EventKind::Cancel => "cancel",
            EventKind::Shed => "shed",
        }
    }

    /// Span classification: `Some((name, is_begin))` for begin/end pairs
    /// (`task`, `job`, `park`), `None` for instant events.
    pub fn span(self) -> Option<(&'static str, bool)> {
        match self {
            EventKind::TaskBegin => Some(("task", true)),
            EventKind::TaskEnd => Some(("task", false)),
            EventKind::JobBegin => Some(("job", true)),
            EventKind::JobEnd => Some(("job", false)),
            EventKind::Park => Some(("park", true)),
            EventKind::Unpark => Some(("park", false)),
            _ => None,
        }
    }
}

/// The 16-byte packed form events take inside the ring.
#[derive(Clone, Copy)]
pub(crate) struct RawEvent {
    ts: u64,
    kind: u8,
    band: u8,
    arg: u32,
}

const ZERO_EVENT: RawEvent = RawEvent {
    ts: 0,
    kind: 0,
    band: 0,
    arg: 0,
};

/// A drained telemetry event with its timestamp converted to nanoseconds
/// since the runtime's construction.
#[derive(Clone, Copy, Debug)]
pub struct TelemetryEvent {
    /// Nanoseconds since the runtime was built (calibrated ticks).
    pub ts_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// Priority band (task/job events) or distance class (steal events).
    pub band: u8,
    /// Kind-specific operand (victim, lane, frame slot, group…).
    pub arg: u32,
}

// ---------------------------------------------------------------------------
// SPSC event ring

/// Events a worker's ring can hold before it starts dropping (and
/// counting) the newest ones. 4096 × 16 B = 64 KiB per worker, allocated
/// once at worker construction so enabling tracing never allocates.
pub(crate) const RING_CAP: usize = 4096;

/// Fixed-capacity single-producer single-consumer event ring.
///
/// Producer: the owning worker thread only (`push`). Consumer: whoever
/// holds the [`TelemetryState`] session lock (`drain`). `head`/`tail` are
/// monotonic u64 positions (never wrapped), so `head - tail` is the live
/// count and `head` doubles as the lifetime accepted-event counter.
pub(crate) struct EventRing {
    slots: Box<[UnsafeCell<RawEvent>]>,
    /// Next write position (producer-owned, Release on publish).
    head: AtomicU64,
    /// Next read position (consumer-owned, Release after reading).
    tail: AtomicU64,
    /// Events rejected because the ring was full (drop-newest).
    dropped: AtomicU64,
}

// SAFETY: slot `head % cap` is written only by the producer, and only
// after checking `head - tail < cap`; the consumer reads only slots in
// `tail..head`. The two index ranges are disjoint, and the Acquire/Release
// pairs on `head`/`tail` order the slot accesses.
unsafe impl Send for EventRing {}
// SAFETY: as for `Send`.
unsafe impl Sync for EventRing {}

impl EventRing {
    pub(crate) fn new(cap: usize) -> EventRing {
        EventRing {
            slots: (0..cap).map(|_| UnsafeCell::new(ZERO_EVENT)).collect(),
            head: AtomicU64::new(0),
            tail: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Record one event (producer side; owning worker thread only).
    /// Never blocks, never allocates; a full ring drops the event and
    /// bumps `dropped`.
    #[inline]
    pub(crate) fn push(&self, ts: u64, kind: EventKind, band: u8, arg: u32) {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if head - tail >= self.slots.len() as u64 {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let slot = self.slots[(head % self.slots.len() as u64) as usize].get();
        // SAFETY: `head - tail < cap`, so the consumer reads no slot at
        // `head` before the `Release` store of `head + 1` below.
        unsafe {
            *slot = RawEvent {
                ts,
                kind: kind as u8,
                band,
                arg,
            };
        }
        self.head.store(head + 1, Ordering::Release);
    }

    /// Move every pending event into `out` (consumer side; callers hold
    /// the session lock).
    pub(crate) fn drain(&self, out: &mut Vec<RawEvent>) {
        let head = self.head.load(Ordering::Acquire);
        let mut tail = self.tail.load(Ordering::Relaxed);
        while tail < head {
            let slot = self.slots[(tail % self.slots.len() as u64) as usize].get();
            // SAFETY: `tail < head` (`Acquire`): the producer wrote this
            // slot and writes it again only after our `tail` store.
            out.push(unsafe { *slot });
            tail += 1;
        }
        self.tail.store(tail, Ordering::Release);
    }

    /// Lifetime count of accepted events (the monotonic head position).
    pub(crate) fn pushed(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Lifetime count of events dropped on a full ring.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Discard pending events and zero the drop counter (stats reset;
    /// consumer side).
    pub(crate) fn reset(&self) {
        let head = self.head.load(Ordering::Acquire);
        self.tail.store(head, Ordering::Release);
        self.dropped.store(0, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Histograms

/// Bucket count of the fixed power-of-two histograms: bucket `k ≥ 1`
/// holds values in `[2^(k-1), 2^k)` (bucket 0 holds exactly 0), so 64
/// buckets cover the full `u64` range with ≤ 2× relative error.
pub(crate) const HIST_BUCKETS: usize = 64;

/// Concurrent log-bucketed histogram (HDR-style, fixed 64 power-of-two
/// buckets of relaxed `AtomicU64` counts). Any thread may record; reads
/// take a [`HistogramSnapshot`].
pub(crate) struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
}

#[inline]
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).min(HIST_BUCKETS - 1)
}

impl Histogram {
    pub(crate) fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Count one value (raw ticks on the hot path; units are whatever the
    /// caller recorded — quantiles convert at snapshot time).
    #[inline]
    pub(crate) fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Copy the counts out.
    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        let mut s = HistogramSnapshot::new();
        for (dst, src) in s.buckets.iter_mut().zip(self.buckets.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        s
    }

    /// Zero every bucket (stats reset).
    pub(crate) fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// Owned counts of one `Histogram`, mergeable bucket-wise.
///
/// Merging is plain per-bucket addition, which is associative and
/// commutative by construction — `tests/telemetry.rs` asserts it — so
/// per-worker histograms can be combined in any order without changing
/// the reported quantiles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: [u64; HIST_BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot::new()
    }
}

impl HistogramSnapshot {
    /// An empty snapshot (all buckets zero).
    pub fn new() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: [0; HIST_BUCKETS],
        }
    }

    /// Count one value into the owned snapshot (test/offline use; the
    /// runtime records through the atomic `Histogram`).
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
    }

    /// Bucket-wise addition of `other` into `self`.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += *src;
        }
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Upper bound of the bucket holding the `q`-quantile (`0 < q ≤ 1`),
    /// in the recorded units; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut cum = 0u64;
        for (k, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_upper(k);
            }
        }
        bucket_upper(HIST_BUCKETS - 1)
    }
}

/// Largest value bucket `k` can hold.
fn bucket_upper(k: usize) -> u64 {
    match k {
        0 => 0,
        63.. => u64::MAX,
        _ => (1u64 << k) - 1,
    }
}

// ---------------------------------------------------------------------------
// Quantile report types (embedded in StatsSnapshot)

/// p50/p99/p999 of one latency distribution, in nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Quantiles {
    /// Median latency (ns, bucket upper bound — ≤ 2× relative error).
    pub p50_ns: u64,
    /// 99th percentile latency (ns).
    pub p99_ns: u64,
    /// 99.9th percentile latency (ns).
    pub p999_ns: u64,
    /// Number of samples behind the quantiles.
    pub count: u64,
}

/// Per-priority-band latency quantiles carried in
/// [`StatsSnapshot`](crate::StatsSnapshot) (index = band: 0 high,
/// 1 normal, 2 low). All zeros while tracing is disabled.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencyBands {
    /// Queueing latency of root jobs: submit call → body start.
    pub submit_to_start: [Quantiles; PRIORITY_BANDS],
    /// Service latency: body start → body done (jobs and claimed tasks).
    pub start_to_done: [Quantiles; PRIORITY_BANDS],
}

fn quantiles_from(snap: &HistogramSnapshot, ns_per_tick: f64) -> Quantiles {
    let to_ns = |ticks: u64| -> u64 {
        if ticks == u64::MAX {
            u64::MAX
        } else {
            (ticks as f64 * ns_per_tick) as u64
        }
    };
    Quantiles {
        p50_ns: to_ns(snap.quantile(0.50)),
        p99_ns: to_ns(snap.quantile(0.99)),
        p999_ns: to_ns(snap.quantile(0.999)),
        count: snap.count(),
    }
}

// ---------------------------------------------------------------------------
// Per-worker bundle

/// The telemetry a worker owns: its event ring plus one histogram per
/// priority band and direction. Allocated once in `Worker::new` so the
/// enable flag never gates an allocation.
pub(crate) struct WorkerTelemetry {
    pub(crate) ring: EventRing,
    /// submit→start ticks per priority band (root jobs).
    pub(crate) submit_to_start: [Histogram; PRIORITY_BANDS],
    /// start→done ticks per priority band (jobs and claimed tasks).
    pub(crate) start_to_done: [Histogram; PRIORITY_BANDS],
}

impl WorkerTelemetry {
    pub(crate) fn new() -> WorkerTelemetry {
        WorkerTelemetry {
            ring: EventRing::new(RING_CAP),
            submit_to_start: std::array::from_fn(|_| Histogram::new()),
            start_to_done: std::array::from_fn(|_| Histogram::new()),
        }
    }

    /// Record one event stamped `ts` (owning worker thread only).
    #[inline]
    pub(crate) fn emit(&self, ts: u64, kind: EventKind, band: u8, arg: u32) {
        self.ring.push(ts, kind, band, arg);
    }

    fn reset(&self) {
        self.ring.reset();
        for h in self.submit_to_start.iter().chain(self.start_to_done.iter()) {
            h.reset();
        }
    }
}

// ---------------------------------------------------------------------------
// Runtime-wide state

/// Runtime-wide telemetry state: the relaxed-load enable flag, the clock
/// calibration epoch, and the accumulated drained events (the session).
pub(crate) struct TelemetryState {
    enabled: AtomicBool,
    epoch_instant: Instant,
    epoch_tick: u64,
    /// Drained-but-not-yet-taken raw events, one vec per worker. The lock
    /// also serializes the consumer side of every ring.
    session: Mutex<Vec<Vec<RawEvent>>>,
}

impl TelemetryState {
    /// One drained ring per worker.
    pub(crate) fn new(workers: usize, enabled: bool) -> TelemetryState {
        TelemetryState {
            enabled: AtomicBool::new(enabled),
            epoch_instant: Instant::now(),
            epoch_tick: tick(),
            session: Mutex::new((0..workers).map(|_| Vec::new()).collect()),
        }
    }

    /// The one gate every instrumentation point loads (relaxed).
    #[inline(always)]
    pub(crate) fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Flip tracing on or off at runtime.
    pub(crate) fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Nanoseconds per raw tick, calibrated over the elapsed session: two
    /// (Instant, tick) samples — construction and now — divided. The
    /// longer the session, the better the estimate; sub-microsecond
    /// sessions fall back to 1.0 (the fallback clock's exact rate).
    pub(crate) fn ns_per_tick(&self) -> f64 {
        let dt_ns = self.epoch_instant.elapsed().as_nanos() as f64;
        let dticks = tick().saturating_sub(self.epoch_tick) as f64;
        if dticks < 1.0 || dt_ns < 1000.0 {
            return 1.0;
        }
        dt_ns / dticks
    }

    /// Drain every worker ring into the accumulated session (consumer
    /// side, serialized by the session lock). Cheap no-op when nothing
    /// was recorded.
    pub(crate) fn drain(&self, tele: &[&WorkerTelemetry]) {
        let mut session = self.session.lock();
        for (i, t) in tele.iter().enumerate() {
            if let Some(buf) = session.get_mut(i) {
                t.ring.drain(buf);
            }
        }
    }

    /// Drain, then move the accumulated session out as a [`TraceSession`]
    /// with calibrated nanosecond timestamps.
    pub(crate) fn take_session(&self, tele: &[&WorkerTelemetry]) -> TraceSession {
        self.drain(tele);
        let ns_per_tick = self.ns_per_tick();
        let epoch = self.epoch_tick;
        let raw: Vec<Vec<RawEvent>> = {
            let mut session = self.session.lock();
            session.iter_mut().map(std::mem::take).collect()
        };
        let workers = raw
            .into_iter()
            .map(|evs| {
                evs.into_iter()
                    .map(|e| TelemetryEvent {
                        ts_ns: (e.ts.saturating_sub(epoch) as f64 * ns_per_tick) as u64,
                        kind: EventKind::from_u8(e.kind),
                        band: e.band,
                        arg: e.arg,
                    })
                    .collect()
            })
            .collect();
        TraceSession {
            workers,
            dropped: tele.iter().map(|t| t.ring.dropped()).sum(),
        }
    }

    /// Lifetime accepted-event count across all rings.
    pub(crate) fn events_recorded(&self, tele: &[&WorkerTelemetry]) -> u64 {
        tele.iter().map(|t| t.ring.pushed()).sum()
    }

    /// Lifetime dropped-event count across all rings.
    pub(crate) fn events_dropped(&self, tele: &[&WorkerTelemetry]) -> u64 {
        tele.iter().map(|t| t.ring.dropped()).sum()
    }

    /// Merge every worker's histograms into the banded quantile report.
    pub(crate) fn collect_latency(&self, tele: &[&WorkerTelemetry]) -> LatencyBands {
        let ns_per_tick = self.ns_per_tick();
        let mut out = LatencyBands::default();
        for band in 0..PRIORITY_BANDS {
            let mut s2s = HistogramSnapshot::new();
            let mut s2d = HistogramSnapshot::new();
            for t in tele {
                s2s.merge(&t.submit_to_start[band].snapshot());
                s2d.merge(&t.start_to_done[band].snapshot());
            }
            out.submit_to_start[band] = quantiles_from(&s2s, ns_per_tick);
            out.start_to_done[band] = quantiles_from(&s2d, ns_per_tick);
        }
        out
    }

    /// Reset rings, histograms and the accumulated session
    /// (`Runtime::reset_stats`).
    pub(crate) fn reset(&self, tele: &[&WorkerTelemetry]) {
        let mut session = self.session.lock();
        for t in tele {
            t.reset();
        }
        for buf in session.iter_mut() {
            buf.clear();
        }
    }
}

/// Record an instant event on worker `widx`'s ring when tracing is on —
/// one relaxed load and a predicted branch when it is off. Must be called
/// from the owning worker thread (the ring's single producer).
#[inline]
pub(crate) fn emit_current(
    rt: &crate::runtime::RtInner,
    widx: usize,
    kind: EventKind,
    band: u8,
    arg: u32,
) {
    if rt.telemetry.enabled() {
        rt.workers[widx].tele.emit(tick(), kind, band, arg);
    }
}

// ---------------------------------------------------------------------------
// Trace session & chrome-trace export

/// Events drained out of a runtime: one timeline per worker, timestamps
/// in nanoseconds since runtime construction, plus the ring-overflow drop
/// count. Produced by [`Runtime::take_trace`](crate::Runtime::take_trace);
/// export with [`to_chrome_trace`](TraceSession::to_chrome_trace).
pub struct TraceSession {
    workers: Vec<Vec<TelemetryEvent>>,
    dropped: u64,
}

impl TraceSession {
    /// Number of timelines, one per worker.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// The Perfetto lane name of timeline `w`: `worker {w}`.
    pub fn lane_name(&self, w: usize) -> String {
        format!("worker {w}")
    }

    /// The drained events of worker `w`, in recording order.
    pub fn events(&self, w: usize) -> &[TelemetryEvent] {
        &self.workers[w]
    }

    /// Total drained events across all workers.
    pub fn total_events(&self) -> usize {
        self.workers.iter().map(Vec::len).sum()
    }

    /// Events lost to ring overflow (counted, never silent).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Serialize as chrome-trace JSON (Perfetto / `chrome://tracing`):
    /// one lane (`tid`) per worker, `B`/`E` span pairs for task/job/park
    /// and `i` instants for the rest. Reuses the PR 7 JSON conventions
    /// (`pid` 0, microsecond `ts`).
    pub fn to_chrome_trace(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(self.total_events() * 96 + 256);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if first {
                first = false;
                out.push('\n');
            } else {
                out.push_str(",\n");
            }
        };
        for w in 0..self.workers.len() {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{w},\
                 \"args\":{{\"name\":\"worker {w}\"}}}}"
            );
        }
        for (w, evs) in self.workers.iter().enumerate() {
            for e in evs {
                sep(&mut out);
                let ts_us = e.ts_ns as f64 / 1000.0;
                match e.kind.span() {
                    Some((name, true)) => {
                        let _ = write!(
                            out,
                            "{{\"name\":\"{name}\",\"ph\":\"B\",\"pid\":0,\"tid\":{w},\
                             \"ts\":{ts_us:.3},\"args\":{{\"band\":{},\"arg\":{}}}}}",
                            e.band, e.arg
                        );
                    }
                    Some((name, false)) => {
                        let _ = write!(
                            out,
                            "{{\"name\":\"{name}\",\"ph\":\"E\",\"pid\":0,\"tid\":{w},\
                             \"ts\":{ts_us:.3}}}"
                        );
                    }
                    None => {
                        let _ = write!(
                            out,
                            "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\
                             \"tid\":{w},\"ts\":{ts_us:.3},\
                             \"args\":{{\"band\":{},\"arg\":{}}}}}",
                            e.kind.label(),
                            e.band,
                            e.arg
                        );
                    }
                }
            }
        }
        out.push_str("\n]}\n");
        out
    }
}

// ---------------------------------------------------------------------------
// Metrics registry

/// The unified metrics registry: one named bag of counters, gauges and
/// latency quantiles that every layer reports into, replacing the ad-hoc
/// counter merging previously spread across `Runtime::stats` and bench
/// glue. Build one with [`Runtime::metrics`](crate::Runtime::metrics);
/// serialize with [`to_json`](MetricsRegistry::to_json).
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Vec<(&'static str, u64)>,
    gauges: Vec<(String, u64)>,
    histograms: Vec<(String, Quantiles)>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Register a monotonic counter.
    pub fn counter(&mut self, name: &'static str, value: u64) {
        self.counters.push((name, value));
    }

    /// Register a point-in-time gauge.
    pub fn gauge(&mut self, name: impl Into<String>, value: u64) {
        self.gauges.push((name.into(), value));
    }

    /// Register a latency distribution's quantiles.
    pub fn histogram(&mut self, name: impl Into<String>, q: Quantiles) {
        self.histograms.push((name.into(), q));
    }

    /// Look a counter or gauge up by name.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .or_else(|| self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v))
    }

    /// Registered counters, in registration order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().copied()
    }

    /// Registered latency quantiles, in registration order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, Quantiles)> + '_ {
        self.histograms.iter().map(|(n, q)| (n.as_str(), *q))
    }

    /// Serialize the whole registry as one JSON blob:
    /// `{"counters":{…},"gauges":{…},"histograms":{name:{p50_ns,…}}}`.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(1024);
        out.push_str("{\"counters\":{");
        for (i, (n, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{v}", crate::record::json_escape(n));
        }
        out.push_str("},\"gauges\":{");
        for (i, (n, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{v}", crate::record::json_escape(n));
        }
        out.push_str("},\"histograms\":{");
        for (i, (n, q)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"p50_ns\":{},\"p99_ns\":{},\"p999_ns\":{},\"count\":{}}}",
                crate::record::json_escape(n),
                q.p50_ns,
                q.p99_ns,
                q.p999_ns,
                q.count
            );
        }
        out.push_str("}}");
        out
    }
}

// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_mapping_is_power_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 63);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(10), 1023);
        assert_eq!(bucket_upper(63), u64::MAX);
    }

    #[test]
    fn histogram_quantiles_walk_cumulative_counts() {
        let h = Histogram::new();
        for _ in 0..99 {
            h.record(100); // bucket 7, upper 127
        }
        h.record(1 << 20); // one outlier
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        assert_eq!(s.quantile(0.50), 127);
        assert_eq!(s.quantile(0.99), 127);
        assert!(s.quantile(1.0) >= 1 << 20);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let s = HistogramSnapshot::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.quantile(0.999), 0);
    }

    #[test]
    fn ring_drains_fifo_and_counts_overflow() {
        let r = EventRing::new(4);
        for i in 0..6u32 {
            r.push(i as u64, EventKind::StealAttempt, 0, i);
        }
        assert_eq!(r.pushed(), 4);
        assert_eq!(r.dropped(), 2);
        let mut out = Vec::new();
        r.drain(&mut out);
        assert_eq!(out.len(), 4);
        assert_eq!(out.iter().map(|e| e.arg).collect::<Vec<_>>(), [0, 1, 2, 3]);
        // Room again after the drain.
        r.push(9, EventKind::StealHit, 1, 9);
        out.clear();
        r.drain(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].arg, 9);
        assert_eq!(EventKind::from_u8(out[0].kind), EventKind::StealHit);
    }

    /// Every kind, in discriminant order.
    const ALL_KINDS: [EventKind; 14] = [
        EventKind::TaskBegin,
        EventKind::TaskEnd,
        EventKind::JobBegin,
        EventKind::JobEnd,
        EventKind::StealAttempt,
        EventKind::StealHit,
        EventKind::StealFail,
        EventKind::Park,
        EventKind::Unpark,
        EventKind::InjectDrain,
        EventKind::ReplayGroup,
        EventKind::Panic,
        EventKind::Cancel,
        EventKind::Shed,
    ];

    #[test]
    fn every_kind_round_trips_and_every_span_begin_has_its_end() {
        for (i, &k) in ALL_KINDS.iter().enumerate() {
            assert_eq!(k as u8, i as u8, "{k:?}: discriminants are dense");
            assert_eq!(EventKind::from_u8(k as u8), k);
            if let Some((name, is_begin)) = k.span() {
                let partners = ALL_KINDS
                    .iter()
                    .filter(|p| p.span() == Some((name, !is_begin)))
                    .count();
                assert_eq!(partners, 1, "{k:?}: span {name:?} needs one partner");
                assert_eq!(k.label(), name, "{k:?}: span name is its label");
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "unknown telemetry event kind")]
    fn unknown_kind_byte_is_caught_in_debug() {
        EventKind::from_u8(ALL_KINDS.len() as u8);
    }

    #[test]
    fn ring_reset_discards_pending() {
        let r = EventRing::new(4);
        r.push(1, EventKind::Park, 0, 0);
        r.reset();
        let mut out = Vec::new();
        r.drain(&mut out);
        assert!(out.is_empty());
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn tick_is_monotonic_enough() {
        let a = tick();
        std::thread::sleep(std::time::Duration::from_millis(1));
        let b = tick();
        assert!(b > a, "tick must advance: {a} !< {b}");
    }

    #[test]
    fn registry_json_shape() {
        let mut m = MetricsRegistry::new();
        m.counter("tasks_spawned", 7);
        m.gauge("lane0_submitted", 3);
        m.histogram(
            "submit_to_start_high",
            Quantiles {
                p50_ns: 10,
                p99_ns: 20,
                p999_ns: 30,
                count: 4,
            },
        );
        let j = m.to_json();
        assert!(j.contains("\"counters\":{\"tasks_spawned\":7}"));
        assert!(j.contains("\"gauges\":{\"lane0_submitted\":3}"));
        assert!(j.contains(
            "\"submit_to_start_high\":{\"p50_ns\":10,\"p99_ns\":20,\"p999_ns\":30,\"count\":4}"
        ));
        assert_eq!(m.get("tasks_spawned"), Some(7));
        assert_eq!(m.get("lane0_submitted"), Some(3));
        assert_eq!(m.get("absent"), None);
    }

    #[test]
    fn chrome_trace_emits_one_lane_per_worker() {
        let session = TraceSession {
            workers: vec![
                vec![
                    TelemetryEvent {
                        ts_ns: 1000,
                        kind: EventKind::TaskBegin,
                        band: 1,
                        arg: 0,
                    },
                    TelemetryEvent {
                        ts_ns: 3000,
                        kind: EventKind::TaskEnd,
                        band: 1,
                        arg: 0,
                    },
                ],
                vec![TelemetryEvent {
                    ts_ns: 2000,
                    kind: EventKind::StealHit,
                    band: 0,
                    arg: 0,
                }],
            ],
            dropped: 0,
        };
        let j = session.to_chrome_trace();
        assert!(j.starts_with("{\"traceEvents\":["));
        assert!(j.trim_end().ends_with("]}"));
        assert!(j.contains("\"tid\":0"));
        assert!(j.contains("\"tid\":1"));
        assert!(j.contains("\"name\":\"worker 0\""));
        assert!(j.contains("\"name\":\"worker 1\""));
        assert!(j.contains("\"ph\":\"B\""));
        assert!(j.contains("\"ph\":\"E\""));
        assert!(j.contains("\"ph\":\"i\""));
        assert!(j.contains("\"name\":\"steal_hit\""));
        assert_eq!(session.worker_count(), 2);
        assert_eq!(session.total_events(), 3);
    }

    #[test]
    fn state_take_session_accumulates_and_clears() {
        let tele = [WorkerTelemetry::new(), WorkerTelemetry::new()];
        let refs: Vec<&WorkerTelemetry> = tele.iter().collect();
        let state = TelemetryState::new(2, true);
        tele[0].emit(tick(), EventKind::Park, 0, 0);
        tele[1].emit(tick(), EventKind::Unpark, 0, 0);
        state.drain(&refs);
        tele[0].emit(tick(), EventKind::StealFail, 0, 1);
        let s = state.take_session(&refs);
        assert_eq!(s.worker_count(), 2);
        assert_eq!(s.total_events(), 3);
        assert_eq!(s.dropped(), 0);
        // Taken: a second take starts empty.
        let s2 = state.take_session(&refs);
        assert_eq!(s2.total_events(), 0);
    }
}
