//! # xkaapi — workspace facade
//!
//! Reproduction of *“X-Kaapi: a Multi Paradigm Runtime for Multicore
//! Architectures”* (Gautier, Lementec, Faucher, Raffin — ICPP 2013 workshop
//! P2S2). This root crate re-exports every workspace crate so the examples
//! in `examples/` and the integration tests in `tests/` can reach the whole
//! system through one dependency. See `README.md` for the tour and the
//! layer-stack diagram (facade → paradigm front-ends → engine → queue/steal
//! layers).
//!
//! The commonly-used engine types are additionally re-exported at the top
//! level, so `xkaapi::Runtime` works alongside the per-subsystem paths
//! (`xkaapi::core::Runtime`, `xkaapi::omp::OmpPool`, …).

#![warn(missing_docs)]

pub use xkaapi_astl as astl;
pub use xkaapi_core as core;
pub use xkaapi_epx as epx;
pub use xkaapi_forkjoin as forkjoin;
pub use xkaapi_linalg as linalg;
pub use xkaapi_omp as omp;
pub use xkaapi_quark as quark;
pub use xkaapi_sim as sim;
pub use xkaapi_skyline as skyline;

#[cfg(feature = "fault-injection")]
pub use xkaapi_core::FaultPlan;
pub use xkaapi_core::JoinHandle;
pub use xkaapi_core::{
    Access, AccessMode, Affinity, Builder, CancelToken, Ctx, DataflowEngine, DistanceMatrix,
    HandleId, JobBuilder, Partitioned, Priority, RecCtx, RecordStats, RecordedDag, Reduction,
    Region, RenamePolicy, ReplayTrace, Runtime, Shared, StatsSnapshot, Steal, SubmitError,
    TaskAttrs, TaskBuilder, Topology, Tunables, Victim,
};
