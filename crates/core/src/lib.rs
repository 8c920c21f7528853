//! # xkaapi-core — a multi-paradigm task runtime for multicore machines
//!
//! Rust reproduction of the runtime described in *“X-Kaapi: a Multi Paradigm
//! Runtime for Multicore Architectures”* (Gautier, Lementec, Faucher,
//! Raffin — ICPP 2013 workshop P2S2). The runtime unifies three parallel
//! paradigms over one work-stealing scheduler:
//!
//! * **data-flow tasks** — tasks declare `(handle, region, mode)` accesses;
//!   the runtime derives dependencies and runs independent tasks in
//!   parallel, with sequential semantics ([`Ctx::spawn`]);
//! * **fork-join tasks** — Cilk-style `spawn`/`sync` and [`Ctx::join`];
//! * **adaptive parallel loops** — [`Ctx::foreach`] /
//!   [`Runtime::foreach`], loops that split on demand when workers go idle.
//!
//! Scheduling follows the paper's design decisions:
//!
//! * **work-first**: the owner executes children in FIFO (program) order and
//!   never consults dependencies on that path — they are bound once, when
//!   a task is pushed;
//! * **lazy readiness**: a thief proves a task ready by scanning the victim
//!   frame from the oldest task;
//! * **ready-list acceleration**: frames whose scans get expensive are
//!   promoted to per-task readiness — countdowns and successor cells
//!   release ready tasks onto per-worker ready lists, completions take no
//!   frame lock, and one steal moves half a victim's list (`DESIGN.md` §2);
//! * **one dependency engine**: scan-mode readiness and the promoted
//!   countdowns are both derived from the same versioned data-flow core
//!   ([`dataflow`]), so the two modes can never disagree;
//! * **renaming**: a write-only access on a renameable handle gets a fresh
//!   version of the data instead of serializing behind earlier
//!   readers/writers — WAR/WAW elimination (`DESIGN.md` §2,
//!   [`Shared::renameable`]);
//! * **request aggregation**: `N` concurrent steal requests to one victim
//!   are served by a single elected combiner thief;
//! * **topology-aware stealing**: victim selection is a policy over the
//!   machine [`Topology`] (worker→node map + distance matrix, shared with
//!   the simulator's platform model) — uniform, hierarchical
//!   (same-node-first with fail-streak escalation) or locality-first
//!   (distance-ranked), with bounded near-first combiner batches
//!   (`DESIGN.md` §3);
//! * **adaptive tasks**: running tasks publish splitters invoked under the
//!   victim's steal lock (at most one concurrent splitter per victim);
//! * **non-blocking injection**: [`Runtime::submit`] enqueues a root job
//!   into sharded per-NUMA-node inject lanes and returns a [`JoinHandle`]
//!   immediately (wait / poll / `on_complete` callback, and an
//!   `impl Future` behind the default-on `future` feature), with an
//!   [`InjectPolicy`] admission layer that throttles or sheds a flood of
//!   submissions (`DESIGN.md` §4); [`Runtime::scope`] runs its root on
//!   the calling thread, in the seat of a parked worker (`DESIGN.md` §3);
//! * **task attributes**: every front door lowers to one [`TaskAttrs`]
//!   descriptor via the [`Ctx::task`] / [`Runtime::task`] builders
//!   (`DESIGN.md` §5) — [`Priority`] bands order queue pops, ready lists,
//!   steal scans and inject drains (low is shed before high at the
//!   admission cap), and [`Affinity`] steers work toward the NUMA node
//!   owning its data (lane targeting on submit, affine grab matching in
//!   the steal combiner, handle homes from `set_home` or first-touch).
//!
//! ## Quickstart
//!
//! ```
//! use xkaapi_core::{Runtime, Shared};
//!
//! let rt = Runtime::new(4);
//!
//! // Data-flow: b waits for a (read-after-write on `h`), c is independent.
//! let h = Shared::new(0u64);
//! let c = Shared::new(0u64);
//! rt.scope(|ctx| {
//!     let (h1, h2, c1) = (h.clone(), h.clone(), c.clone());
//!     ctx.spawn([h.write()], move |t| *t.write(&h1) = 21);
//!     ctx.spawn([h.read(), c.write()], move |t| {
//!         *t.write(&c1) = 2 * *t.read(&h2);
//!     });
//! });
//! assert_eq!(*c.get(), 42);
//!
//! // Fork-join:
//! let (a, b) = rt.scope(|ctx| ctx.join(|_| 1 + 1, |_| 20 + 1));
//! assert_eq!(a * b, 42);
//!
//! // Adaptive parallel loop:
//! let sum = rt.foreach_reduce(0..1000, None, || 0u64, |s, i| *s += i as u64, |a, b| a + b);
//! assert_eq!(sum, 499_500);
//! ```

#![warn(missing_docs)]

mod access;
mod adaptive;
pub mod attrs;
mod ctx;
pub mod dataflow;
mod fastlane;
#[cfg(feature = "fault-injection")]
pub mod fault;
mod foreach;
mod frame;
mod handle;
mod inject;
mod pin;
mod policy;
mod queue;
pub mod record;
mod runtime;
mod smallvec;
mod stats;
mod steal;
mod task;
pub mod telemetry;
pub mod topology;
mod worker;

pub use access::{Access, AccessMode, HandleId, Region};
pub use adaptive::{split_even, IntervalCell};
pub use attrs::{Affinity, CancelToken, Priority, TaskAttrs, PRIORITY_BANDS};
pub use ctx::{with_runtime_ctx, Ctx, TaskBuilder};
pub use dataflow::DataflowEngine;
#[cfg(feature = "fault-injection")]
pub use fault::FaultPlan;
pub use frame::PromotionPolicy;
pub use handle::{PartView, Partitioned, Reduction, Ref, RefMut, Shared};
pub use inject::{InjectLaneStats, InjectPolicy, JoinHandle, OnFull, SubmitError};
pub use policy::{
    uniform_victim, AggregatedStealing, HierarchicalVictim, LocalityFirst, PerThiefStealing,
    RenamePolicy, StealPolicy, VictimChoice,
};
pub use queue::{DistributedLanes, TaskQueue, WorkItem};
pub use record::{RecCtx, RecTaskBuilder, RecordStats, RecordedDag, ReplayTrace, TraceEvent};
pub use runtime::{Builder, JobBuilder, Runtime, Tunables};
pub use stats::StatsSnapshot;
pub use telemetry::{
    EventKind, HistogramSnapshot, LatencyBands, MetricsRegistry, Quantiles, TelemetryEvent,
    TraceSession,
};
pub use topology::{DistanceMatrix, Topology};

#[cfg(test)]
mod tests;
