//! Simulated distributed runtime.
//!
//! The paper evaluates on Ant Group production clusters (≈1000 Pregel
//! instances with 2 CPU / 10 GB each, ≈5000 MapReduce instances with
//! 2 CPU / 2 GB, 20 Gb/s network). A laptop-scale reproduction cannot rent
//! that hardware, so this crate substitutes a **deterministic simulated
//! cluster**: engines execute the real dataflow in-process, partitioned
//! exactly as they would be across workers, while every phase records *real*
//! per-worker byte counts (serialized frames) and FLOP counts. A calibrated
//! cost model then converts those counts into per-worker time, phase
//! wall-clock (max over workers — stragglers emerge naturally), total
//! runtime, and `cpu·min` resource usage.
//!
//! What is measured vs. modelled:
//! - **measured**: message bytes, record counts, arithmetic operation
//!   counts, per-worker memory residency, prediction values;
//! - **modelled**: FLOP/s per core, network bandwidth, per-phase scheduling
//!   overhead, per-worker memory caps (OOM).
//!
//! The paper's tables are about relative shapes (who wins, where stragglers
//! appear, linearity in scale); those are functions of the measured
//! distributions, not of the modelled constants.
//!
//! # Failure model
//!
//! InferTurbo's deployment argument is that riding mature Pregel/MapReduce
//! infrastructure gives fault tolerance for free; this reproduction models
//! that surface explicitly in [`fault`]:
//!
//! - **Failures are typed values.** Simulated worker OOM, lost workers
//!   ([`inferturbo_common::Error::WorkerLost`]) and spill I/O failures
//!   surface as `Error`s, never panics.
//!   [`Error::is_transient`](inferturbo_common::Error::is_transient)
//!   partitions them: lost workers and I/O are retryable; OOM, capacity
//!   and configuration errors are permanent and are **never** retried.
//! - **Faults are injected deterministically.** A [`FaultPlan`] schedules
//!   failure points ([`FaultSite`]) by (worker, superstep/round); each
//!   engine run arms a fresh [`FaultInjector`] whose per-site budgets make
//!   the schedule reproducible at every thread count. A schedule reaches
//!   an engine only through an explicit `with_fault_plan` / `fault_plan`
//!   call — nothing ambient arms one.
//! - **Recovery is bit-exact.** Under a [`RecoveryPolicy`] the Pregel
//!   engine checkpoints vertex state + sealed inboxes at the superstep
//!   barrier and replays from the last checkpoint on a transient failure;
//!   because inboxes are sealed deterministically, a fault-injected run
//!   with recovery is **bit-identical** to the fault-free run. The
//!   MapReduce engine retries failed tasks idempotently (a task's shuffle
//!   input is immutable). Retries, checkpoints and replayed
//!   supersteps are reported on [`RunReport`] planes.
//! - **A worker child is a real process boundary.** Under the
//!   [`WorkerProcess`] transport a torn socket — the child died or broke
//!   the framing — is a transient `WorkerLost`, healed by a respawn. A
//!   malformed frame (bad tag, out-of-range slot, a shard whose width is
//!   not its plane's) comes back from the child as a permanent
//!   `Error::Codec`, so a replay never retries a frame that cannot
//!   succeed.

#![forbid(unsafe_code)]

pub mod estimate;
pub mod fault;
pub mod metrics;
pub mod spec;
pub mod transport;

pub use estimate::{FleetEstimate, LayerEstimate, PlanEstimate};
pub use fault::{FaultInjector, FaultPlan, FaultSite, RecoveryPolicy};
pub use metrics::{MessagePlaneBytes, OverloadCounters, PhaseReport, RunReport, WorkerPhase};
pub use spec::ClusterSpec;
pub use transport::{
    BucketOut, BucketRef, ColsShards, ConcatDest, ConcatExchange, ConcatMerged, ConcatOut,
    DestMerged, DestShards, Exchange, ExchangeOut, InProcess, MergedCols, Transport, WorkerProcess,
};
