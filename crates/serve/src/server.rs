//! The serving loop: request intake, micro-batching, execution, FIFO
//! response release. See the crate docs for the architecture and the
//! determinism contract.

use crate::admission::{Admission, AdmissionController, AdmissionPolicy};
use crate::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
use crate::cache::{PlanKey, ResponseCache};
use crate::limiter::{OverflowPolicy, RateLimitConfig, TenantRateLimiter};
use crate::stats::ServerStats;
use inferturbo_cluster::ClusterSpec;
use inferturbo_common::{Error, FxHashMap, ReorderBuffer, Result, Ticket, TicketLine};
use inferturbo_core::models::GnnModel;
use inferturbo_core::session::{Backend, InferenceSession};
use inferturbo_core::{InferencePlan, StrategyConfig};
use inferturbo_graph::Graph;
use inferturbo_obs::{
    AdmissionOutcome, BreakerAction, LimiterOutcome, Payload, Site, TerminalStatus, TraceHandle,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A shared, immutable feature matrix (row `v` = node `v`'s features).
/// Requests naming the **same** snapshot (`Arc` identity, not value
/// equality) coalesce into one run — the intended pattern is one `Arc` per
/// feature refresh, shared by every request scoring against it.
pub type FeatureSnapshot = Arc<Vec<Vec<f32>>>;

/// Server configuration. All quantities are logical — no wall clock.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Flush a coalesced group as soon as it holds this many requests.
    pub max_batch: usize,
    /// Flush a group once its oldest request has waited at least this many
    /// **full** ticks (0 = flush at the next [`GnnServer::tick`]).
    ///
    /// A submit always lands mid-interval — after some `tick()` and before
    /// the next — and that partial interval does not count as waiting: a
    /// group opened at clock `N` flushes at the tick that moves the clock
    /// to `N + max_wait + 1`, having existed through `max_wait` whole
    /// ticks. (Counting the partial interval would make a group that
    /// arrived just before a tick age a full tick early, and would make
    /// `max_wait` 0 and 1 indistinguishable.)
    pub max_wait: u64,
    /// Global fleet memory budget the summed per-plan peak residency is
    /// gated on (paper §IV-A, fleet-wide; inclusive at the boundary).
    pub memory_budget: u64,
    /// What to do with a plan that does not fit the remaining budget.
    pub policy: AdmissionPolicy,
    /// Directory spill files are written to for requests that plan with a
    /// [`ScoreRequest::with_spill_budget`] (default: the OS temp dir).
    pub spill_dir: Option<std::path::PathBuf>,
    /// How many times a *transiently*-failed batch run
    /// ([`inferturbo_common::Error::is_transient`]) is re-executed before
    /// the whole group completes with [`ScoreStatus::Failed`]. Permanent
    /// errors (OOM, configuration) are never retried. Retry is safe
    /// because runs are deterministic and a plan's fault schedule drains
    /// its budgets across runs — the re-run does not replay the failure.
    pub max_run_retries: u32,
    /// Quarantine a plan after this many *consecutive* failed batch runs
    /// (counting a run as failed only after its retries are spent).
    /// Subsequent submits against a quarantined plan fast-fail with a
    /// typed error instead of queueing doomed work; one successful run —
    /// e.g. of a group that was already queued — lifts the quarantine.
    /// `0` disables quarantining.
    pub quarantine_after: u32,
    /// Deterministic fault schedule armed into every plan the server
    /// builds (the failure-drill knob; see `inferturbo_cluster::fault`).
    /// Budgets are per plan and shared across that plan's runs, so a
    /// drained fault does not re-fire on a retry. `None` means no faults.
    pub fault_plan: Option<inferturbo_cluster::FaultPlan>,
    /// Checkpoint/recovery policy armed into every plan the server builds
    /// (see `inferturbo_cluster::RecoveryPolicy`). With this `None`, runs
    /// fail fast and resilience lives entirely in
    /// the serve layer's retry/quarantine machinery.
    pub recovery: Option<inferturbo_cluster::RecoveryPolicy>,
    /// Per-tenant token-bucket rate limit (see [`crate::limiter`]). `None`
    /// disables the limiter; requests without a
    /// [`ScoreRequest::with_tenant`] id always bypass it.
    pub rate_limit: Option<RateLimitConfig>,
    /// Per-plan circuit breaker thresholds (see [`crate::breaker`]): the
    /// *soft*, failure-rate tier of containment over the quarantine's
    /// hard consecutive-loss tier. `None` disables breakers.
    pub breaker: Option<BreakerConfig>,
    /// Row capacity of the degraded-mode [`ResponseCache`] (`0` disables
    /// it): fresh runs record per-node logits, and throttled /
    /// breaker-open / shed requests are answered
    /// [`ScoreStatus::ServedStale`] from it when every requested node
    /// hits.
    pub response_cache: usize,
    /// Clamp applied to request deadlines: a request carrying a
    /// [`ScoreRequest::with_deadline`] larger than this is tightened to
    /// it. Never *imposes* a deadline on a request that has none, so a
    /// clamp is inert for deadline-free traffic.
    pub deadline_clamp: Option<u64>,
    /// Flight-recorder handle for the request lifecycle (see
    /// [`inferturbo_obs`]): every submit's path through admission, the
    /// limiter, the batcher, the breaker, the engine and its terminal
    /// `ScoreStatus` is emitted at `epoch = `the server's logical tick.
    /// Default: [`TraceHandle::disabled`] (zero-cost).
    pub trace: TraceHandle,
    /// Shuffle transport armed into every plan the server builds (see
    /// `inferturbo_cluster::transport`): in-process shard moves or spawned
    /// worker processes, each on one Unix socket pair. Backends are bit-identical, so this
    /// choice never enters [`PlanKey`] — two servers on
    /// different transports serve byte-identical responses from
    /// interchangeable caches. `None` means in-process.
    pub transport: Option<std::sync::Arc<dyn inferturbo_cluster::Transport>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 16,
            max_wait: 4,
            // One production Pregel worker's memory: the same default cap
            // a standalone session plans against.
            memory_budget: ClusterSpec::pregel_cluster(1).memory_bytes,
            policy: AdmissionPolicy::Reject,
            spill_dir: None,
            max_run_retries: 2,
            quarantine_after: 3,
            fault_plan: None,
            recovery: None,
            rate_limit: None,
            breaker: Some(BreakerConfig::default()),
            response_cache: 4096,
            deadline_clamp: None,
            trace: TraceHandle::disabled(),
            transport: None,
        }
    }
}

/// One inference request: which plan to score on, against which feature
/// snapshot (`None` = the graph's own features), and which nodes to return
/// logits for (empty = all nodes).
#[derive(Debug, Clone)]
pub struct ScoreRequest {
    /// Registered model id (see [`GnnServer::register_model`]).
    pub model: u64,
    /// Registered graph id (see [`GnnServer::register_graph`]).
    pub graph: u64,
    pub strategy: StrategyConfig,
    pub workers: usize,
    pub backend: Backend,
    /// Out-of-core spill budget the plan runs under (see
    /// `SessionBuilder::spill_budget`): shrinks the plan's resident
    /// estimate — what admission gates on — by paging columnar inbox rows
    /// to disk. `None` = no spilling.
    pub spill_budget: Option<u64>,
    pub features: Option<FeatureSnapshot>,
    /// Node ids whose logits the response carries; empty = every node.
    pub targets: Vec<u32>,
    /// Traffic source this request bills against for rate limiting
    /// ([`ServeConfig::rate_limit`]). `None` (internal traffic, tests)
    /// bypasses the limiter.
    pub tenant: Option<u64>,
    /// Logical-tick answer budget: the request tolerates waiting this many
    /// **full** ticks in the queue (same partial-tick rule as
    /// [`ServeConfig::max_wait`]). Expired requests resolve
    /// [`ScoreStatus::DeadlineExceeded`] instead of occupying a batch
    /// slot. `None` = wait forever.
    pub deadline: Option<u64>,
}

impl ScoreRequest {
    /// A request against `model` × `graph` with the production defaults
    /// (all strategies, 8 workers, `Backend::Auto`, graph features, all
    /// nodes).
    pub fn new(model: u64, graph: u64) -> Self {
        ScoreRequest {
            model,
            graph,
            strategy: StrategyConfig::all(),
            workers: 8,
            backend: Backend::Auto,
            spill_budget: None,
            features: None,
            targets: Vec::new(),
            tenant: None,
            deadline: None,
        }
    }

    /// Bill this request against `tenant`'s rate-limit bucket.
    pub fn with_tenant(mut self, tenant: u64) -> Self {
        self.tenant = Some(tenant);
        self
    }

    /// Give the request a queue-wait deadline of `ticks` full ticks (see
    /// [`ScoreRequest::deadline`]).
    pub fn with_deadline(mut self, ticks: u64) -> Self {
        self.deadline = Some(ticks);
        self
    }

    pub fn with_strategy(mut self, strategy: StrategyConfig) -> Self {
        self.strategy = strategy;
        self
    }

    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Plan (and run) under an out-of-core spill budget, shrinking the
    /// residency admission charges this plan for.
    pub fn with_spill_budget(mut self, bytes: u64) -> Self {
        self.spill_budget = Some(bytes);
        self
    }

    pub fn with_snapshot(mut self, snapshot: FeatureSnapshot) -> Self {
        self.features = Some(snapshot);
        self
    }

    pub fn with_targets(mut self, targets: Vec<u32>) -> Self {
        self.targets = targets;
        self
    }

    /// The plan-cache key this request resolves to.
    pub fn plan_key(&self) -> PlanKey {
        PlanKey {
            model: self.model,
            graph: self.graph,
            strategy: self.strategy.key(),
            workers: self.workers,
            backend: self.backend,
            spill_budget: self.spill_budget,
        }
    }
}

/// Terminal state of a request. Every accepted submit reaches exactly one
/// of these — the overload pipeline resolves, it never drops.
#[derive(Debug, Clone, PartialEq)]
pub enum ScoreStatus {
    /// Logits for the requested targets (request order), or for every node
    /// when the request named none. Behind an `Arc`: full-logits requests
    /// in one coalesced group all share the run's output allocation.
    Served(Arc<Vec<Vec<f32>>>),
    /// Degraded-mode answer: the same shape as [`ScoreStatus::Served`],
    /// but the rows come from the [`ResponseCache`] — bit-identical to
    /// the fresh run that populated them, possibly computed against an
    /// older cluster state. Produced when the rate limiter (under
    /// [`OverflowPolicy::Degrade`]), an open circuit breaker, or an
    /// admission eviction refused fresh work and every requested node had
    /// a cached row.
    ServedStale(Arc<Vec<Vec<f32>>>),
    /// The request's plan was evicted by [`AdmissionPolicy::ShedOldest`]
    /// before its batch ran (and the response cache had no complete
    /// answer for it).
    Shed,
    /// The request's [`deadline`](ScoreRequest::with_deadline) passed
    /// before its group flushed; the engine never ran for it. Carries the
    /// tick budget the request was willing to wait (post-clamp).
    DeadlineExceeded { deadline: u64 },
    /// The rate limiter refused the request under
    /// [`OverflowPolicy::Degrade`] and the response cache had no complete
    /// answer — the degraded path's "no" that still resolves the ticket.
    Throttled,
    /// The batch run failed (e.g. a simulated worker OOM); carries the
    /// typed run error.
    Failed(Error),
}

/// A completed request, tagged with its submission ticket.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreResponse {
    pub ticket: Ticket,
    pub status: ScoreStatus,
}

impl ScoreResponse {
    /// The answered logits — fresh **or stale** — if the request got any.
    pub fn logits(&self) -> Option<&[Vec<f32>]> {
        match &self.status {
            ScoreStatus::Served(l) | ScoreStatus::ServedStale(l) => Some(l.as_slice()),
            _ => None,
        }
    }

    /// True when the answer came from the degraded path's response cache.
    pub fn is_stale(&self) -> bool {
        matches!(self.status, ScoreStatus::ServedStale(_))
    }

    /// The response as a typed result: logits (fresh or stale) on
    /// success, the matching [`Error`] otherwise.
    pub fn as_result(&self) -> Result<&[Vec<f32>]> {
        match &self.status {
            ScoreStatus::Served(l) | ScoreStatus::ServedStale(l) => Ok(l.as_slice()),
            ScoreStatus::Shed => Err(Error::Overloaded(
                "plan evicted by admission before the batch ran".into(),
            )),
            ScoreStatus::DeadlineExceeded { deadline } => Err(Error::DeadlineExceeded {
                deadline: *deadline,
            }),
            ScoreStatus::Throttled => Err(Error::Overloaded(
                "tenant rate limit exceeded and no cached response".into(),
            )),
            ScoreStatus::Failed(e) => Err(e.clone()),
        }
    }
}

/// One pending request inside a coalesced group.
struct PendingReq {
    /// Position in the plan's FIFO (per-plan sequence number).
    seq: Ticket,
    /// Globally unique submission ticket (what the caller holds).
    ticket: Ticket,
    targets: Vec<u32>,
    /// Deadline as `(expires_after, budget)`: the request expires once
    /// the clock moves **past** `expires_after` (same `>` rule as
    /// `max_wait`); `budget` is the post-clamp tick allowance, carried
    /// into the terminal status.
    deadline: Option<(u64, u64)>,
}

/// Requests sharing one feature snapshot, awaiting one batched run.
struct Group {
    features: Option<FeatureSnapshot>,
    /// Logical tick the group was opened at (drives `max_wait`).
    first_tick: u64,
    requests: Vec<PendingReq>,
}

impl Group {
    fn matches(&self, features: &Option<FeatureSnapshot>) -> bool {
        match (&self.features, features) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// One plan's pending work: open groups (arrival order) plus the FIFO
/// release gate for completed responses.
#[derive(Default)]
struct RequestQueue {
    seqs: TicketLine,
    reorder: ReorderBuffer<ScoreResponse>,
    groups: Vec<Group>,
}

/// One admitted plan and everything the server keeps for it. The record
/// is created when admission accepts the plan and dropped whole when
/// admission sheds it; the server's [`AdmissionController`] holds it with
/// the plan's residency.
pub struct LivePlan<'a> {
    plan: InferencePlan<'a>,
    queue: RequestQueue,
    /// Consecutive failed batch runs (reset by any success).
    failures: u32,
    /// Refusing new submissions (see [`ServeConfig::quarantine_after`]).
    quarantined: bool,
    /// Failure-rate breaker ([`ServeConfig::breaker`]).
    breaker: CircuitBreaker,
}

/// Where every ticket ends: the server's counters and its released
/// responses. Kept apart from the plan records so a flush can resolve
/// tickets while it holds its plan's record.
#[derive(Default)]
struct Outcomes {
    stats: ServerStats,
    /// Released responses, keyed by ticket (ascending = submission order).
    ready: BTreeMap<u64, ScoreResponse>,
}

impl Outcomes {
    /// The terminal step every ticket takes exactly once: count `status`
    /// under its counter and emit its [`Payload::Terminal`] event.
    fn resolve(
        &mut self,
        trace: &TraceHandle,
        ticket: Ticket,
        status: ScoreStatus,
    ) -> ScoreResponse {
        let s = &mut self.stats;
        let (counter, terminal) = match &status {
            ScoreStatus::Served(_) => (&mut s.served, TerminalStatus::Served),
            ScoreStatus::ServedStale(_) => {
                (&mut s.overload.served_stale, TerminalStatus::ServedStale)
            }
            ScoreStatus::Shed => (&mut s.shed, TerminalStatus::Shed),
            ScoreStatus::DeadlineExceeded { .. } => (
                &mut s.overload.deadline_exceeded,
                TerminalStatus::DeadlineExceeded,
            ),
            ScoreStatus::Throttled => (&mut s.overload.throttled, TerminalStatus::Throttled),
            ScoreStatus::Failed(_) => (&mut s.failed, TerminalStatus::Failed),
        };
        *counter += 1;
        trace.emit(
            0,
            Site::Ticket(ticket.0),
            Payload::Terminal { status: terminal },
        );
        ScoreResponse { ticket, status }
    }

    /// Resolve a queued request through its plan's FIFO gate, releasing
    /// whatever the gate lets go.
    fn resolve_queued(
        &mut self,
        trace: &TraceHandle,
        gate: &mut ReorderBuffer<ScoreResponse>,
        req: &PendingReq,
        status: ScoreStatus,
    ) {
        let resp = self.resolve(trace, req.ticket, status);
        gate.push(req.seq, resp);
        while let Some(resp) = gate.pop_ready() {
            self.ready.insert(resp.ticket.0, resp);
        }
    }
}

/// The serving front end: a synchronous, deterministic core that owns the
/// admitted plans (each with its micro-batcher, failure streak and
/// breaker) and the admission ledger that orders them.
///
/// Drive it with [`GnnServer::submit`] (enqueue, possibly flush a full
/// batch), [`GnnServer::tick`] (advance logical time, flush aged groups),
/// and [`GnnServer::drain`] (flush everything). Completed responses are
/// collected with [`GnnServer::take`] or [`GnnServer::drain_ready`].
pub struct GnnServer<'a> {
    cfg: ServeConfig,
    models: FxHashMap<u64, &'a GnnModel>,
    graphs: FxHashMap<u64, &'a Graph>,
    /// Every live plan, oldest admission first: the order shedding evicts
    /// in and flushes walk.
    admission: AdmissionController<LivePlan<'a>>,
    tickets: TicketLine,
    clock: u64,
    pending: usize,
    out: Outcomes,
    /// Per-tenant token buckets ([`ServeConfig::rate_limit`]).
    limiter: TenantRateLimiter,
    /// Degraded-mode response rows ([`ServeConfig::response_cache`]).
    responses: ResponseCache,
}

impl<'a> GnnServer<'a> {
    pub fn new(cfg: ServeConfig) -> Self {
        assert!(cfg.max_batch >= 1, "max_batch must be at least 1");
        let admission = AdmissionController::new(cfg.memory_budget, cfg.policy);
        let responses = ResponseCache::new(cfg.response_cache);
        GnnServer {
            cfg,
            models: FxHashMap::default(),
            graphs: FxHashMap::default(),
            admission,
            tickets: TicketLine::new(),
            clock: 0,
            pending: 0,
            out: Outcomes::default(),
            limiter: TenantRateLimiter::new(),
            responses,
        }
    }

    /// Register a model under a caller-chosen id. Ids are immutable: a
    /// duplicate registration is a typed [`Error::InvalidConfig`] and
    /// leaves the original binding untouched (re-pointing an id under live
    /// cached plans would silently serve stale weights).
    pub fn register_model(&mut self, id: u64, model: &'a GnnModel) -> Result<()> {
        if let std::collections::hash_map::Entry::Vacant(e) = self.models.entry(id) {
            e.insert(model);
            Ok(())
        } else {
            Err(Error::InvalidConfig(format!(
                "duplicate model id {id}: ids are immutable once registered"
            )))
        }
    }

    /// Register a graph under a caller-chosen id (same rules as
    /// [`GnnServer::register_model`]).
    pub fn register_graph(&mut self, id: u64, graph: &'a Graph) -> Result<()> {
        if let std::collections::hash_map::Entry::Vacant(e) = self.graphs.entry(id) {
            e.insert(graph);
            Ok(())
        } else {
            Err(Error::InvalidConfig(format!(
                "duplicate graph id {id}: ids are immutable once registered"
            )))
        }
    }

    /// Enqueue a request. Plans (and admission-gates) the configuration on
    /// first use; flushes the request's group immediately when it reaches
    /// `max_batch`. Returns the ticket the response will carry.
    ///
    /// Errors do not enqueue anything: unknown ids, shape mismatches and
    /// admission rejections all fail fast.
    pub fn submit(&mut self, req: ScoreRequest) -> Result<Ticket> {
        let key = req.plan_key();
        // Serve-plane events carry `epoch = tick, step = 0`; pre-ticket
        // verdicts sit at `Site::Server`, per-ticket lifecycle at
        // `Site::Ticket`.
        let trace = self.cfg.trace.at_epoch(self.clock);
        // Quarantined plans fast-fail before any lookup or planning:
        // queueing more work onto a configuration that keeps failing only
        // manufactures more `Failed` responses.
        if self
            .admission
            .get(&key)
            .is_some_and(|live| live.quarantined)
        {
            self.out.stats.quarantine_rejections += 1;
            trace.emit(
                0,
                Site::Server,
                Payload::Admission {
                    outcome: AdmissionOutcome::Quarantined,
                },
            );
            return Err(Error::InvalidConfig(format!(
                "plan quarantined after {} consecutive failed runs \
                 (model {}, graph {}); a successful run of pending work \
                 lifts it",
                self.cfg.quarantine_after, req.model, req.graph
            )));
        }
        let model = *self
            .models
            .get(&req.model)
            .ok_or_else(|| Error::InvalidConfig(format!("unregistered model id {}", req.model)))?;
        let graph = *self
            .graphs
            .get(&req.graph)
            .ok_or_else(|| Error::InvalidConfig(format!("unregistered graph id {}", req.graph)))?;

        // Validate the request against the registered shapes before any
        // planning or queueing (and before any ticket is issued), so bad
        // requests never poison a batch or leave a gap in a plan's FIFO.
        // The O(V) snapshot scan runs only for a snapshot that would OPEN
        // a group: coalescing is by `Arc` identity, so every later request
        // naming the same snapshot joins an already-validated group.
        let joins_group = self
            .admission
            .get(&key)
            .is_some_and(|live| live.queue.groups.iter().any(|g| g.matches(&req.features)));
        if !joins_group {
            if let Some(snap) = &req.features {
                if snap.len() != graph.n_nodes() {
                    return Err(Error::InvalidConfig(format!(
                        "snapshot has {} rows for {} nodes",
                        snap.len(),
                        graph.n_nodes()
                    )));
                }
                if let Some(bad) = snap.iter().find(|r| r.len() != model.in_dim()) {
                    return Err(Error::InvalidConfig(format!(
                        "snapshot row width {} does not match model input ({})",
                        bad.len(),
                        model.in_dim()
                    )));
                }
            }
        }
        if let Some(&bad) = req.targets.iter().find(|&&v| v as usize >= graph.n_nodes()) {
            return Err(Error::InvalidGraph(format!(
                "target node {bad} out of range ({} nodes)",
                graph.n_nodes()
            )));
        }
        let n_nodes = graph.n_nodes();

        // Deadline clamp: tighten a deadline the request already carries,
        // never impose one (see `ServeConfig::deadline_clamp`).
        let deadline = match (req.deadline, self.cfg.deadline_clamp) {
            (Some(d), Some(clamp)) => Some(d.min(clamp)),
            (d, _) => d,
        };

        // Per-tenant rate limiting: one token per tenant-carrying request.
        // Checked before any planning — refusing work cheaply is the whole
        // point of back-pressure.
        if let (Some(rl), Some(tenant)) = (self.cfg.rate_limit, req.tenant) {
            if !self.limiter.try_acquire(&rl, tenant, self.clock) {
                return match rl.policy {
                    OverflowPolicy::Reject => {
                        self.out.stats.overload.throttled += 1;
                        trace.emit(
                            0,
                            Site::Server,
                            Payload::Limiter {
                                outcome: LimiterOutcome::Throttled,
                            },
                        );
                        Err(Error::Overloaded(format!(
                            "tenant {tenant} exceeded its rate limit \
                             ({} tokens, +{}/tick)",
                            rl.capacity, rl.refill_per_tick
                        )))
                    }
                    // The degraded path: answered stale on a full
                    // response-cache hit, `Throttled` otherwise — resolved
                    // at once, never enqueued.
                    OverflowPolicy::Degrade => {
                        trace.emit(
                            0,
                            Site::Server,
                            Payload::Limiter {
                                outcome: LimiterOutcome::Degraded,
                            },
                        );
                        let status =
                            match self.stale_lookup(&key, &req.features, &req.targets, n_nodes) {
                                Some(rows) => ScoreStatus::ServedStale(rows),
                                None => ScoreStatus::Throttled,
                            };
                        Ok(self.resolve_now(&trace, req.tenant, status))
                    }
                };
            }
        }

        // Circuit breaker: an Open plan runs nothing — answer stale from
        // the response cache when possible, fast-fail otherwise. HalfOpen
        // admits normally (the next flushed batch is the probe).
        if let Some(bc) = self.cfg.breaker {
            let clock = self.clock;
            let open = self
                .admission
                .get_mut(&key)
                .is_some_and(|live| live.breaker.state(&bc, clock) == BreakerState::Open);
            if open {
                self.out.stats.overload.breaker_rejections += 1;
                trace.emit(
                    0,
                    Site::Server,
                    Payload::Breaker {
                        action: BreakerAction::FastFail,
                    },
                );
                return match self.stale_lookup(&key, &req.features, &req.targets, n_nodes) {
                    Some(rows) => {
                        Ok(self.resolve_now(&trace, req.tenant, ScoreStatus::ServedStale(rows)))
                    }
                    None => Err(Error::Overloaded(format!(
                        "circuit breaker open for model {} graph {} \
                         (failure rate tripped; probes resume after {} ticks)",
                        req.model, req.graph, bc.cooldown_ticks
                    ))),
                };
            }
        }

        // Plan + admission-gate on first use of this configuration.
        let at = match self.admission.position(&key) {
            Some(at) => {
                self.out.stats.plan_cache_hits += 1;
                at
            }
            None => {
                // An Auto plan picks its backend against the budget the
                // policy can actually offer it — the per-plan §IV-A
                // decision nested inside the fleet-wide one. Under
                // `Reject` that is what is left of the fleet; under
                // `ShedOldest` it is the whole budget, because admission
                // will evict older plans to make room for the newcomer's
                // choice.
                let remaining = self.admission.remaining();
                let plannable = match self.cfg.policy {
                    AdmissionPolicy::Reject => remaining,
                    AdmissionPolicy::ShedOldest => self.cfg.memory_budget,
                };
                let mut builder = InferenceSession::builder()
                    .model(model)
                    .graph(graph)
                    .workers(req.workers)
                    .strategy(req.strategy)
                    .backend(req.backend)
                    .memory_budget(plannable);
                if let Some(bytes) = req.spill_budget {
                    builder = builder.spill_budget(bytes);
                    if let Some(dir) = &self.cfg.spill_dir {
                        builder = builder.spill_dir(dir.clone());
                    }
                }
                if let Some(fp) = &self.cfg.fault_plan {
                    builder = builder.fault_plan(fp.clone());
                }
                if let Some(rp) = self.cfg.recovery {
                    builder = builder.recovery(rp);
                }
                if let Some(t) = &self.cfg.transport {
                    builder = builder.transport(std::sync::Arc::clone(t));
                }
                let plan = builder.plan()?;
                let bytes = plan_residency(&plan);
                let live = LivePlan {
                    plan,
                    queue: RequestQueue::default(),
                    failures: 0,
                    quarantined: false,
                    breaker: CircuitBreaker::new(),
                };
                let shed = match self.admission.try_admit(key, bytes, live) {
                    Admission::Admitted => Vec::new(),
                    Admission::AdmittedAfterShedding(shed) => shed,
                    Admission::Rejected => {
                        self.out.stats.rejected += 1;
                        trace.emit(
                            0,
                            Site::Server,
                            Payload::Admission {
                                outcome: AdmissionOutcome::Rejected,
                            },
                        );
                        return Err(Error::InvalidConfig(format!(
                            "admission denied: plan needs {bytes} B peak residency, fleet has \
                             {remaining} of {} B",
                            self.admission.budget()
                        )));
                    }
                };
                trace.emit(
                    0,
                    Site::Server,
                    Payload::Admission {
                        outcome: AdmissionOutcome::Admitted,
                    },
                );
                for (shed_key, live) in shed {
                    self.evict(&shed_key, live);
                }
                self.out.stats.plans_built += 1;
                // `try_admit` appends the newcomer: it is the newest plan.
                self.admission.plans() - 1
            }
        };

        // Enqueue, coalescing by snapshot identity.
        let clock = self.clock;
        let ticket = self.tickets.issue();
        let q = &mut self.admission.at_mut(at).1.queue;
        let seq = q.seqs.issue();
        let gi = match q.groups.iter().position(|g| g.matches(&req.features)) {
            Some(i) => i,
            None => {
                q.groups.push(Group {
                    features: req.features.clone(),
                    first_tick: clock,
                    requests: Vec::new(),
                });
                q.groups.len() - 1
            }
        };
        q.groups[gi].requests.push(PendingReq {
            seq,
            ticket,
            targets: req.targets,
            deadline: deadline.map(|d| (clock + d, d)),
        });
        let group_len = q.groups[gi].requests.len();
        trace.emit(
            0,
            Site::Ticket(ticket.0),
            Payload::Submitted { tenant: req.tenant },
        );
        trace.emit(
            0,
            Site::Ticket(ticket.0),
            Payload::Enqueued {
                group_len: group_len as u64,
            },
        );
        self.pending += 1;
        let stats = &mut self.out.stats;
        stats.submitted += 1;
        stats.queue_depth_high_water = stats.queue_depth_high_water.max(self.pending);
        if group_len >= self.cfg.max_batch {
            self.flush_group(at, gi);
        }
        Ok(ticket)
    }

    /// Advance logical time by one tick and flush every group whose oldest
    /// request has now waited at least `max_wait` full ticks (see
    /// [`ServeConfig::max_wait`] for the same-tick-submit rule). Returns
    /// the number of requests completed by this tick.
    pub fn tick(&mut self) -> usize {
        self.clock += 1;
        self.flush_due(false)
    }

    /// Flush every pending group regardless of age (shutdown / test
    /// barrier). Returns the number of requests completed.
    pub fn drain(&mut self) -> usize {
        self.flush_due(true)
    }

    /// Remove and return the response for `ticket`, if it is ready.
    pub fn take(&mut self, ticket: Ticket) -> Option<ScoreResponse> {
        self.out.ready.remove(&ticket.0)
    }

    /// Remove and return every ready response, in ascending ticket
    /// (submission) order.
    pub fn drain_ready(&mut self) -> Vec<ScoreResponse> {
        std::mem::take(&mut self.out.ready).into_values().collect()
    }

    /// Requests enqueued but not yet executed.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Responses ready for pickup.
    pub fn ready_len(&self) -> usize {
        self.out.ready.len()
    }

    /// The logical clock ([`GnnServer::tick`] increments it).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    pub fn stats(&self) -> &ServerStats {
        &self.out.stats
    }

    /// The admission ledger: budget, residency and every live plan.
    pub fn admission(&self) -> &AdmissionController<LivePlan<'a>> {
        &self.admission
    }

    /// Cached plans alive right now.
    pub fn cached_plans(&self) -> usize {
        self.admission.plans()
    }

    /// Plans currently quarantined against new submissions (tripped by
    /// [`ServeConfig::quarantine_after`], lifted by a successful run).
    pub fn quarantined_plans(&self) -> usize {
        self.admission
            .iter()
            .filter(|(_, live)| live.quarantined)
            .count()
    }

    /// Flush due (or, with `all`, every) groups in deterministic order:
    /// plans in admission order, groups in arrival order. The
    /// deadline-expiry pass runs first, so expired work never occupies a
    /// batch slot in the flushes that follow.
    fn flush_due(&mut self, all: bool) -> usize {
        let completed_before = self.completed();
        self.expire_deadlines();
        let (clock, max_wait) = (self.clock, self.cfg.max_wait);
        for at in 0..self.admission.plans() {
            // `>` not `>=`: the partial interval a submit lands in is not
            // a full tick of waiting. A group opened at clock N has waited
            // `clock - N - 1` full ticks, so it is due once `clock - N >
            // max_wait` — which keeps `max_wait: 0` as "flush at the very
            // next tick" while giving every larger value its documented
            // full-tick meaning.
            loop {
                let groups = &self.admission.at_mut(at).1.queue.groups;
                let due = groups
                    .iter()
                    .position(|g| all || clock.saturating_sub(g.first_tick) > max_wait);
                let Some(gi) = due else { break };
                self.flush_group(at, gi);
            }
        }
        self.completed() - completed_before
    }

    fn completed(&self) -> usize {
        let s = &self.out.stats;
        (s.served
            + s.failed
            + s.shed
            + s.overload.deadline_exceeded
            + s.overload.served_stale
            + s.overload.throttled) as usize
    }

    /// The deadline-expiry pass: resolve every queued request whose
    /// deadline has passed (`clock > submit_clock + deadline` — the same
    /// full-tick rule as `max_wait` aging) as
    /// [`ScoreStatus::DeadlineExceeded`], *through the plan's FIFO gate*
    /// (expired requests hold per-plan seqs, so releasing them any other
    /// way would wedge the gate). Groups emptied by expiry are removed so
    /// they can never flush as zero-request batches.
    fn expire_deadlines(&mut self) {
        let clock = self.clock;
        let trace = self.cfg.trace.at_epoch(clock);
        for at in 0..self.admission.plans() {
            let q = &mut self.admission.at_mut(at).1.queue;
            for g in &mut q.groups {
                g.requests.retain(|req| match req.deadline {
                    Some((expires_after, budget)) if clock > expires_after => {
                        self.pending -= 1;
                        let status = ScoreStatus::DeadlineExceeded { deadline: budget };
                        self.out.resolve_queued(&trace, &mut q.reorder, req, status);
                        false
                    }
                    _ => true,
                });
            }
            q.groups.retain(|g| !g.requests.is_empty());
        }
    }

    /// Assemble a stale answer for `targets` (empty = every node) if the
    /// response cache holds **every** requested row — a partial answer is
    /// no answer. Counts one response-cache hit or miss per lookup.
    fn stale_lookup(
        &mut self,
        key: &PlanKey,
        features: &Option<FeatureSnapshot>,
        targets: &[u32],
        n_nodes: usize,
    ) -> Option<Arc<Vec<Vec<f32>>>> {
        let all: Vec<u32>;
        let wanted: &[u32] = if targets.is_empty() {
            all = (0..n_nodes as u32).collect();
            &all
        } else {
            targets
        };
        let mut rows = Vec::with_capacity(wanted.len());
        for &v in wanted {
            match self.responses.get(key, features, v) {
                Some(row) => rows.push(row.to_vec()),
                None => {
                    self.out.stats.overload.cache_misses += 1;
                    self.cfg.trace.at_epoch(self.clock).emit(
                        0,
                        Site::Server,
                        Payload::Cache { hit: false },
                    );
                    return None;
                }
            }
        }
        self.out.stats.overload.cache_hits += 1;
        self.cfg
            .trace
            .at_epoch(self.clock)
            .emit(0, Site::Server, Payload::Cache { hit: true });
        Some(Arc::new(rows))
    }

    /// Issue a ticket and resolve it at once — the out-of-FIFO form of
    /// [`Outcomes::resolve`], shared by the limiter's degraded path and
    /// the open breaker's stale answer. The ticket takes **no per-plan
    /// seq**: it must neither wait behind nor hold up fresh work.
    fn resolve_now(
        &mut self,
        trace: &TraceHandle,
        tenant: Option<u64>,
        status: ScoreStatus,
    ) -> Ticket {
        let ticket = self.tickets.issue();
        self.out.stats.submitted += 1;
        trace.emit(0, Site::Ticket(ticket.0), Payload::Submitted { tenant });
        let resp = self.out.resolve(trace, ticket, status);
        self.out.ready.insert(ticket.0, resp);
        ticket
    }

    /// Execute group `gi` of the `at`-th live plan: one
    /// `run`/`run_with_features` call, per-request logits sliced from its
    /// output, responses released through the plan's FIFO gate.
    fn flush_group(&mut self, at: usize, gi: usize) {
        let trace = self.cfg.trace.at_epoch(self.clock);
        let (&key, live) = self.admission.at_mut(at);
        let group = live.queue.groups.remove(gi);
        self.pending -= group.requests.len();
        let stats = &mut self.out.stats;
        stats.batches += 1;
        // THE batching contract: a coalesced group is served by exactly
        // one *successful* plan execution — bit-identical to the caller
        // making this very call itself. A transient failure (lost worker,
        // spill I/O) is re-run up to `max_run_retries` times: runs are
        // deterministic and the plan's fault budgets drain across runs,
        // so the re-run reflects the cluster after the event, not a
        // replay of it. Permanent errors surface immediately.
        let mut attempts_left = self.cfg.max_run_retries;
        let outcome = loop {
            let r = match &group.features {
                Some(snap) => live.plan.run_with_features(snap),
                None => live.plan.run(),
            };
            match r {
                Err(e) if e.is_transient() && attempts_left > 0 => {
                    attempts_left -= 1;
                    stats.run_retries += 1;
                }
                other => break other,
            }
        };
        trace.emit(
            0,
            Site::Server,
            Payload::EngineRun {
                // A compact, deterministic plan fingerprint for the trace
                // (the full key does not fit one u64).
                plan: (key.model << 32) ^ key.graph,
                batch: group.requests.len() as u64,
                retries: u64::from(self.cfg.max_run_retries - attempts_left),
                ok: outcome.is_ok(),
            },
        );
        // Feed the run's outcome to the plan's circuit breaker (the soft,
        // failure-rate containment tier; see `crate::breaker`). A HalfOpen
        // breaker treats this run as its probe.
        if let Some(bc) = self.cfg.breaker {
            if live.breaker.record(&bc, self.clock, outcome.is_ok()) {
                stats.overload.breaker_opens += 1;
                trace.emit(
                    0,
                    Site::Server,
                    Payload::Breaker {
                        action: BreakerAction::Opened,
                    },
                );
            }
        }
        // A successful run refreshes the degraded-mode response cache:
        // every node's row, keyed by (plan, snapshot identity, node), in
        // deterministic node order — only the rows that stay in it.
        if let Ok(out) = &outcome {
            self.responses.insert_run(key, &group.features, &out.logits);
        }
        match outcome {
            Ok(out) => {
                // One good run lifts a quarantine: the plan demonstrably
                // serves again (the failure streak was a transient cluster
                // condition, now drained).
                live.failures = 0;
                live.quarantined = false;
                stats.message_bytes.add(out.report.message_bytes);
                stats.spilled_bytes += out.report.spilled_bytes;
                stats.engine_retries += out.report.retries;
                stats.checkpoints += out.report.checkpoints;
                stats.modelled_run_secs += out.report.total_wall_secs();
                // Full-logits requests share the run's output behind one
                // Arc — a group of them costs one allocation, not one V×C
                // copy per request.
                let full = Arc::new(out.logits);
                for req in group.requests {
                    let logits = if req.targets.is_empty() {
                        Arc::clone(&full)
                    } else {
                        Arc::new(
                            req.targets
                                .iter()
                                .map(|&v| full[v as usize].clone())
                                .collect(),
                        )
                    };
                    let status = ScoreStatus::Served(logits);
                    self.out
                        .resolve_queued(&trace, &mut live.queue.reorder, &req, status);
                }
            }
            Err(e) => {
                // The failed run poisons nothing beyond this group: the
                // plan and its FIFO stay live, and the next group runs
                // independently. Only the *streak* is tracked — enough
                // consecutive failures quarantine the plan against new
                // submissions.
                live.failures += 1;
                if self.cfg.quarantine_after > 0
                    && live.failures >= self.cfg.quarantine_after
                    && !live.quarantined
                {
                    live.quarantined = true;
                    stats.quarantined += 1;
                }
                for req in group.requests {
                    let status = ScoreStatus::Failed(e.clone());
                    self.out
                        .resolve_queued(&trace, &mut live.queue.reorder, &req, status);
                }
            }
        }
    }

    /// Resolve an evicted plan's pending requests —
    /// [`ScoreStatus::ServedStale`] when the response cache still holds a
    /// full answer, [`ScoreStatus::Shed`] otherwise — released in ticket
    /// order. Admission has already dropped the plan and released its
    /// residency; response-cache rows outlive the plan on purpose.
    fn evict(&mut self, key: &PlanKey, mut live: LivePlan<'a>) {
        let n_nodes = self.graphs.get(&key.graph).map_or(0, |g| g.n_nodes());
        let trace = self.cfg.trace.at_epoch(self.clock);
        for group in live.queue.groups.drain(..) {
            self.pending -= group.requests.len();
            for req in group.requests {
                let status = match self.stale_lookup(key, &group.features, &req.targets, n_nodes) {
                    Some(rows) => ScoreStatus::ServedStale(rows),
                    None => ScoreStatus::Shed,
                };
                self.out
                    .resolve_queued(&trace, &mut live.queue.reorder, &req, status);
            }
        }
    }
}

/// The residency admission gates on: the plan's predicted peak per-worker
/// bytes on its *resolved* backend (the number `Backend::Auto` itself
/// compares, so fleet admission and per-plan backend choice speak the same
/// units).
fn plan_residency(plan: &InferencePlan<'_>) -> u64 {
    match plan.backend() {
        Backend::MapReduce => plan.estimate().mapreduce_peak_worker_bytes,
        // Reference plans build no records (see `InferencePlan::build`),
        // so their estimated residency is exactly zero.
        _ => plan.estimate().pregel_peak_worker_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inferturbo_core::models::PoolOp;
    use inferturbo_graph::gen::{generate, DegreeSkew, GenConfig};

    fn graph() -> Graph {
        generate(&GenConfig {
            n_nodes: 80,
            n_edges: 400,
            feat_dim: 4,
            classes: 2,
            skew: DegreeSkew::In,
            seed: 11,
            ..GenConfig::default()
        })
    }

    fn model() -> GnnModel {
        GnnModel::sage(4, 8, 2, 2, false, PoolOp::Mean, 1)
    }

    #[test]
    fn coalesced_requests_share_one_run() {
        let g = graph();
        let m = model();
        let mut server = GnnServer::new(ServeConfig {
            max_batch: 3,
            max_wait: 10,
            ..ServeConfig::default()
        });
        server.register_model(1, &m).unwrap();
        server.register_graph(1, &g).unwrap();
        let req = ScoreRequest::new(1, 1)
            .with_workers(4)
            .with_targets(vec![0]);
        // Three graph-feature requests coalesce; the third fills the batch
        // and flushes inside submit.
        for _ in 0..3 {
            server.submit(req.clone()).unwrap();
        }
        assert_eq!(server.pending(), 0);
        assert_eq!(server.stats().batches, 1, "one run serves all three");
        assert_eq!(server.stats().served, 3);
        let stats = server.stats();
        assert!((stats.served as f64 / stats.batches as f64 - 3.0).abs() < 1e-12);
        assert_eq!(server.drain_ready().len(), 3);
    }

    #[test]
    fn max_wait_flushes_on_tick_and_distinct_snapshots_do_not_coalesce() {
        let g = graph();
        let m = model();
        let mut server = GnnServer::new(ServeConfig {
            max_batch: 100,
            max_wait: 2,
            ..ServeConfig::default()
        });
        server.register_model(1, &m).unwrap();
        server.register_graph(1, &g).unwrap();
        let snap_a: FeatureSnapshot = Arc::new(
            (0..g.n_nodes() as u32)
                .map(|v| g.node_feat(v).to_vec())
                .collect(),
        );
        let snap_b: FeatureSnapshot = Arc::new(
            (0..g.n_nodes() as u32)
                .map(|v| g.node_feat(v).iter().map(|x| x * 0.5).collect())
                .collect(),
        );
        let base = ScoreRequest::new(1, 1)
            .with_workers(4)
            .with_targets(vec![1]);
        server
            .submit(base.clone().with_snapshot(Arc::clone(&snap_a)))
            .unwrap();
        server
            .submit(base.clone().with_snapshot(Arc::clone(&snap_b)))
            .unwrap();
        server
            .submit(base.clone().with_snapshot(Arc::clone(&snap_a)))
            .unwrap();
        assert_eq!(server.pending(), 3);
        assert_eq!(server.tick(), 0, "groups younger than max_wait hold");
        assert_eq!(server.tick(), 0, "one full tick waited, max_wait is 2");
        assert_eq!(server.tick(), 3, "both groups aged out together");
        // Two distinct snapshots -> two runs, three requests.
        assert_eq!(server.stats().batches, 2);
        assert_eq!(server.stats().served, 3);
        assert_eq!(server.stats().queue_depth_high_water, 3);
    }

    #[test]
    fn max_wait_zero_flushes_at_the_very_next_tick() {
        let g = graph();
        let m = model();
        let mut server = GnnServer::new(ServeConfig {
            max_batch: 100,
            max_wait: 0,
            ..ServeConfig::default()
        });
        server.register_model(1, &m).unwrap();
        server.register_graph(1, &g).unwrap();
        let req = ScoreRequest::new(1, 1)
            .with_workers(4)
            .with_targets(vec![0]);
        server.submit(req).unwrap();
        assert_eq!(server.tick(), 1, "max_wait 0 = next tick");
    }

    #[test]
    fn same_tick_submit_does_not_age_a_tick_early() {
        // A group opened by a submit landing AFTER a tick() — i.e. during
        // the current logical tick — must still wait max_wait FULL ticks:
        // the partial interval it was born into does not count. With the
        // old `>=` comparison this group flushed one tick early, making
        // max_wait 1 indistinguishable from 0.
        let g = graph();
        let m = model();
        let mut server = GnnServer::new(ServeConfig {
            max_batch: 100,
            max_wait: 1,
            ..ServeConfig::default()
        });
        server.register_model(1, &m).unwrap();
        server.register_graph(1, &g).unwrap();
        let req = ScoreRequest::new(1, 1)
            .with_workers(4)
            .with_targets(vec![0]);
        // Advance the clock first so the submit demonstrably lands after
        // a tick within the same logical tick.
        server.tick();
        server.submit(req).unwrap();
        assert_eq!(
            server.tick(),
            0,
            "only a partial tick has passed; max_wait 1 must hold"
        );
        assert_eq!(server.tick(), 1, "one full tick waited; due now");
        // drain() remains the age-independent barrier.
        let req2 = ScoreRequest::new(1, 1)
            .with_workers(4)
            .with_targets(vec![1]);
        server.submit(req2).unwrap();
        assert_eq!(server.drain(), 1);
    }

    #[test]
    fn duplicate_registration_is_a_typed_error_and_keeps_the_original() {
        let g = graph();
        let m = model();
        let m2 = GnnModel::sage(4, 8, 2, 2, false, PoolOp::Mean, 2);
        let mut server = GnnServer::new(ServeConfig {
            max_batch: 1,
            ..ServeConfig::default()
        });
        server.register_model(1, &m).unwrap();
        server.register_graph(1, &g).unwrap();
        let err = server.register_model(1, &m2).unwrap_err();
        assert!(err.to_string().contains("duplicate model id 1"), "{err}");
        let err = server.register_graph(1, &g).unwrap_err();
        assert!(err.to_string().contains("duplicate graph id 1"), "{err}");
        // The original binding survives: a submit still runs against `m`.
        server
            .submit(
                ScoreRequest::new(1, 1)
                    .with_workers(4)
                    .with_targets(vec![0]),
            )
            .unwrap();
        assert_eq!(server.stats().served, 1);
    }

    #[test]
    fn submit_validates_ids_shapes_and_targets() {
        let g = graph();
        let m = model();
        let mut server = GnnServer::new(ServeConfig::default());
        server.register_model(1, &m).unwrap();
        server.register_graph(1, &g).unwrap();
        assert!(server.submit(ScoreRequest::new(9, 1)).is_err());
        assert!(server.submit(ScoreRequest::new(1, 9)).is_err());
        let short: FeatureSnapshot = Arc::new(vec![vec![0.0; 4]; 3]);
        assert!(server
            .submit(ScoreRequest::new(1, 1).with_snapshot(short))
            .is_err());
        let ragged: FeatureSnapshot = Arc::new(vec![vec![0.0; 5]; 80]);
        assert!(server
            .submit(ScoreRequest::new(1, 1).with_snapshot(ragged))
            .is_err());
        assert!(server
            .submit(ScoreRequest::new(1, 1).with_targets(vec![80]))
            .is_err());
        assert_eq!(server.pending(), 0, "failed submissions never enqueue");
        assert_eq!(server.stats().submitted, 0);
    }

    #[test]
    fn negative_zero_lambda_hits_the_same_cached_plan() {
        // Regression: StrategyConfig::key() used to hash lambda by raw bit
        // pattern, so 0.0 vs -0.0 produced distinct PlanKeys for
        // numerically identical strategies — the cache planned (and
        // admission charged) the same configuration twice.
        let g = graph();
        let m = model();
        let mut server = GnnServer::new(ServeConfig {
            max_batch: 1,
            ..ServeConfig::default()
        });
        server.register_model(1, &m).unwrap();
        server.register_graph(1, &g).unwrap();
        let mut pos = StrategyConfig::all();
        pos.lambda = 0.0;
        let mut neg = StrategyConfig::all();
        neg.lambda = -0.0;
        let base = ScoreRequest::new(1, 1)
            .with_workers(4)
            .with_targets(vec![0]);
        server.submit(base.clone().with_strategy(pos)).unwrap();
        server.submit(base.with_strategy(neg)).unwrap();
        assert_eq!(server.stats().plans_built, 1, "one plan for one strategy");
        assert_eq!(server.stats().plan_cache_hits, 1);
        assert_eq!(server.cached_plans(), 1);
        assert_eq!(
            server.admission().plans(),
            1,
            "residency must not be double-counted"
        );
    }

    #[test]
    fn plan_cache_amortises_planning_across_requests() {
        let g = graph();
        let m = model();
        let mut server = GnnServer::new(ServeConfig {
            max_batch: 1, // every request runs alone
            ..ServeConfig::default()
        });
        server.register_model(1, &m).unwrap();
        server.register_graph(1, &g).unwrap();
        let req = ScoreRequest::new(1, 1)
            .with_workers(4)
            .with_targets(vec![2]);
        for _ in 0..4 {
            server.submit(req.clone()).unwrap();
        }
        assert_eq!(server.stats().plans_built, 1);
        assert_eq!(server.stats().plan_cache_hits, 3);
        assert_eq!(server.cached_plans(), 1);
        assert_eq!(server.stats().batches, 4);
    }
}
