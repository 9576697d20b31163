//! # inferturbo_serve — the traffic-facing layer over inference sessions
//!
//! The paper positions InferTurbo as production infrastructure: full-graph
//! inference feeding online systems (risk scoring, recommendations) for
//! millions of users. The session API (`inferturbo_core::session`) made
//! repeated inference cheap — plan once, run many — but still speaks
//! "runs". This crate speaks **requests**: long-lived plans, micro-batched
//! execution, fleet-wide admission control, and an overload-resilience
//! pipeline (deadlines, per-tenant rate limits, circuit breakers, and a
//! degraded-mode response cache) staged in front of the batcher.
//!
//! # Request lifecycle
//!
//! `admission → limiter → batcher → breaker → engine → cache`
//!
//! A [`ScoreRequest`] entering [`GnnServer::submit`] walks these stages:
//!
//! 1. **Intake admission** — quarantined plans fast-fail
//!    ([`ServeConfig::quarantine_after`]); ids, snapshot shapes and
//!    targets are validated; on first use of a configuration the
//!    [`AdmissionController`] gates the new plan's predicted peak
//!    residency against the fleet budget (paper §IV-A, applied
//!    fleet-wide), rejecting or shedding older plans per
//!    [`AdmissionPolicy`].
//! 2. **Limiter** — a request carrying a [`ScoreRequest::with_tenant`] id
//!    pays one token from that tenant's tick-refilled bucket
//!    ([`ServeConfig::rate_limit`], [`crate::limiter`]). An empty bucket
//!    either rejects the submit ([`OverflowPolicy::Reject`]) or routes
//!    the request to the *degraded path* ([`OverflowPolicy::Degrade`]):
//!    answered [`ScoreStatus::ServedStale`] from the response cache on a
//!    full hit, resolved [`ScoreStatus::Throttled`] otherwise — either
//!    way the ticket resolves, and no engine work happens.
//! 3. **Batcher** — admitted requests join their plan's queue, coalesced
//!    by feature-snapshot identity; a group flushes when it reaches
//!    [`ServeConfig::max_batch`] or ages past [`ServeConfig::max_wait`]
//!    full ticks. A request with a [`ScoreRequest::with_deadline`] that
//!    expires in the queue resolves [`ScoreStatus::DeadlineExceeded`]
//!    first — the expiry pass runs before aging, so dead work never
//!    occupies a batch slot.
//! 4. **Breaker** — each plan has a failure-rate circuit breaker
//!    ([`ServeConfig::breaker`], [`crate::breaker`]), the *soft*
//!    containment tier over the quarantine's hard consecutive-loss tier.
//!    Open breakers fast-fail fresh submits (or serve them stale); after
//!    a cooldown the next flushed batch is the probe that decides
//!    re-close vs re-open.
//! 5. **Engine** — one `run`/`run_with_features` call serves the whole
//!    coalesced group; transient failures are retried
//!    ([`ServeConfig::max_run_retries`]), terminal failures resolve the
//!    group [`ScoreStatus::Failed`] with the typed error.
//! 6. **Cache** — a successful run writes every node's logits row into
//!    the degraded-mode [`ResponseCache`] (keyed by plan × snapshot
//!    identity × node, [`ServeConfig::response_cache`] capacity), which
//!    is what stages 1–4's refusals fall back on.
//!
//! Every accepted submit reaches **exactly one** terminal [`ScoreStatus`]
//! — the pipeline resolves, it never drops.
//!
//! # Determinism contract
//!
//! The serving core is synchronous and wall-clock free — time is the
//! logical tick counter advanced by [`GnnServer::tick`], token buckets
//! refill from tick deltas, breakers trip and cool on tick windows, and
//! the response cache evicts in deterministic insertion order — so tests
//! replay traffic traces byte-for-byte, overload included. On top of the
//! session contract it guarantees:
//!
//! - **batching is invisible**: the logits a request receives are
//!   bit-identical to calling
//!   [`run_with_features`](inferturbo_core::InferencePlan::run_with_features)
//!   sequentially, once per coalesced group, at every thread count
//!   (`INFERTURBO_THREADS` / `Parallelism`) — a batch *is* one such call,
//!   and the per-request responses are row slices of its output;
//! - **stale answers are bit-identical to the fresh run that populated
//!   them**: a [`ScoreStatus::ServedStale`] row is a copy of the
//!   populating run's output row, never a recomputation;
//! - **FIFO responses per plan**: responses for one plan become ready in
//!   ticket (submission) order, even when a later-submitted group executes
//!   first ([`inferturbo_common::ReorderBuffer`] gates release). The one
//!   documented exception is the degraded path: throttled/stale
//!   resolutions never enter a plan's FIFO (they hold no per-plan seq) and
//!   resolve immediately;
//! - **admission is inclusive at the budget boundary**, matching
//!   `Backend::Auto`'s `pregel_fits` semantics: a fleet whose summed
//!   residency equals the budget still fits.
//!
//! `tests/serving.rs` at the workspace root enforces all of these.
//!
//! # Configuration
//!
//! Everything that shapes a server is a [`ServeConfig`] field; the crate
//! reads no environment variable. An unset knob is off: no rate limit, no
//! deadline clamp, no fault schedule, no recovery, a disabled trace, the
//! in-process transport. The overload knobs are inert for traffic that
//! does not opt in — untenanted requests bypass the limiter, and the clamp
//! tightens deadlines but never imposes one (`tests/scenario_sweep.rs`
//! holds armed and unarmed servers to byte-identical responses there).

#![forbid(unsafe_code)]

pub mod admission;
pub mod breaker;
pub mod cache;
pub mod limiter;
pub mod server;
pub mod stats;

pub use admission::{Admission, AdmissionController, AdmissionPolicy};
pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use cache::{PlanCache, PlanKey, ResponseCache};
pub use limiter::{OverflowPolicy, RateLimitConfig, TenantRateLimiter};
pub use server::{
    FeatureSnapshot, GnnServer, ScoreRequest, ScoreResponse, ScoreStatus, ServeConfig,
};
pub use stats::ServerStats;
