//! # inferturbo_obs — the deterministic flight recorder
//!
//! Structured event tracing and a unified metrics registry for the whole
//! workspace. The design constraint that makes this crate unusual is the
//! repo's determinism spine: **a trace is part of the result**. Sealed
//! trace bytes are bit-identical at every thread count, with spill
//! enabled or disabled, and across fault-recovery replays — the same
//! contract the engines already honour for logits, extended to
//! telemetry. Wall-clock time appears nowhere; durations and orderings
//! are logical ([`event::LogicalTime`]), and the optional real-time
//! [`sink::ClockSource`] implementation lives behind the bench-only door
//! (`inferturbo_bench`), the one crate exempt from the `itlint`
//! wallclock gate.
//!
//! # Event model
//!
//! A trace is a sequence of [`event::Event`] records, each keyed by:
//!
//! - **logical time** `(epoch, step)` — `epoch` is the engine-run index
//!   (sessions) or server tick (serving); `step` is the Pregel superstep
//!   or MapReduce phase round;
//! - **site** ([`event::Site`]) — the emission point in the simulated
//!   topology: the engine barrier, one worker, the recovery plane, the
//!   serving loop, or one request ticket;
//! - **seq** — the record's rank among records sharing its
//!   `(time, site)` group, assigned at seal time from emission order.
//!
//! Payloads ([`event::Payload`]) are typed: rows sealed and bytes moved
//! per wire plane at each superstep barrier, per-worker phase accounting,
//! map/reduce rounds, spill volume, checkpoint and replay records, cache
//! hits, breaker transitions, and the full request lifecycle. Emission
//! happens **only at single-threaded deterministic points** — the Pregel
//! seal barrier (ascending worker order), the MapReduce phase merge, and
//! the synchronous serving loop — never from inside worker tasks, which
//! is what makes the sealed order thread-count independent. Under
//! recovery, the engine marks the sink position inside each checkpoint
//! and rewinds it on restore; replayed supersteps re-emit bit-identical
//! records, while checkpoint/retry records live durably at
//! [`event::Site::Recovery`] so that stripping `site=recovery` lines from
//! a faulted trace yields exactly the fault-free trace.
//!
//! # Request lifecycle
//!
//! Serving traces record each ticket's walk through the overload
//! pipeline, one [`event::Site::Ticket`] per request:
//!
//! ```text
//! submit → admission → limiter → batcher → breaker → engine → terminal
//! ```
//!
//! - `submitted` — the request entered `GnnServer::submit`, with its
//!   tenant id (or untenanted);
//! - `admission` — quarantine fast-fail, fleet-budget rejection, or
//!   admitted;
//! - `limiter` — tenanted tickets: token paid (`pass`), `throttled`, or
//!   routed to the `degraded` stale path;
//! - `enqueued` — the ticket joined its plan's micro-batch (batcher);
//! - `breaker` — fast-fail on an open breaker, and open/close
//!   transitions observed at the serving loop ([`event::Site::Server`]);
//! - `engine_run` — one coalesced run on behalf of a flushed group
//!   (server site), with its retry count;
//! - `cache` — response-cache probes on the degraded path;
//! - `terminal` — exactly one terminal `ScoreStatus` per accepted ticket
//!   (`served`, `served_stale`, `shed`, `deadline_exceeded`,
//!   `throttled`, `failed`): the serve pipeline's "always resolves"
//!   invariant, now visible in the trace.
//!
//! `GnnServer::submit` above is `inferturbo_serve::GnnServer::submit`;
//! this crate sits below `serve` in the dependency order, so the link is
//! by name only.
//!
//! # Pieces
//!
//! - [`sink`] — the [`sink::TraceSink`] trait, the zero-cost disabled
//!   default, the in-memory [`sink::RecordingSink`], and the cheap
//!   clonable [`sink::TraceHandle`] the engines carry;
//! - [`registry`] — [`registry::MetricsRegistry`]: typed counters /
//!   gauges / denominator-guarded ratios with one text renderer, behind
//!   the `PlanSummary` and `ServerStats` Display paths;
//! - [`inspect`] — trace parsing and the `itrace` summaries
//!   (per-superstep, per-tenant, critical path).
//!
//! Recording is armed by handing a recording [`TraceHandle`] to a session
//! or server, never by the environment.

#![forbid(unsafe_code)]

pub mod event;
pub mod inspect;
pub mod registry;
pub mod sink;

pub use event::{
    AdmissionOutcome, BreakerAction, Event, LimiterOutcome, LogicalTime, Payload, RoundKind, Site,
    TerminalStatus,
};
pub use registry::{Metric, MetricValue, MetricsRegistry};
pub use sink::{
    ClockSource, LogicalClock, NullSink, RecordingSink, TraceHandle, TraceMark, TraceSink,
};
