//! One seeded scenario sweep: every knob at once, against invariants.
//!
//! The library reads no ambient configuration — every knob is an argument —
//! so this suite composes them **explicitly and simultaneously**: graph
//! shape × model × strategy × workers × threads × spill × transport × fault
//! schedule (with a recovery policy) × trace, drawn by a pure
//! `scenario(seed)`.
//!
//! # The per-backend contract (engine half)
//!
//! For each scenario and each backend (Pregel, MapReduce):
//!
//! 1. the **plain** run — 1 thread, in-process, resident, fault-free,
//!    untraced — is within 2e-3 of `Backend::Reference`;
//! 2. the **knobbed** run's logit bits equal the plain run's, and so do
//!    `message_bytes` and `records_out`. A knob may only show on
//!    `wire_bytes`, `spilled_bytes` and the retry / checkpoint / replay
//!    planes: a replayed superstep rewinds its modelled accounting with
//!    its state, so recovery re-counts nothing;
//! 3. the recorded trace with the retry plane stripped (Pregel's
//!    `site=recovery` lines; the `retries=` count MapReduce keeps on its
//!    round records) equals the trace of the plain configuration under the
//!    same spill budget — transport, threads and recovery are invisible on
//!    the core plane; a spill budget is a modelled input (it moves bytes
//!    from the resident to the spilled plane, and the trace says so);
//! 4. a second `run()` of the same plan (fault budgets drained) and a
//!    `run_with_features` on the graph's own features give the same bits.
//!
//! Bits are compared *within* a backend, never across: the two engines fold
//! in different orders and only agree with the reference to a tolerance.
//!
//! # The serve half
//!
//! Random request traces (tenanted / untenanted, with / without deadlines,
//! rotating snapshots) × random overload knobs × fault plan × trace through
//! a `GnnServer`: exactly one terminal status per ticket; every answer
//! bit-equal to a direct plan run on that snapshot; untenanted,
//! deadline-free requests answered identically with the overload knobs
//! armed and unarmed; status counters sum to submissions; admitted
//! residency never above the budget.
//!
//! # Replaying a failure
//!
//! A failing scenario panics with `seed=<n>` and the scenario's debug form.
//! To replay it, add the seed to [`REGRESSIONS`]; it then runs first, every
//! time. After the loop each half asserts that every value of every
//! dimension was drawn, so editing a generator cannot silently retire one.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

mod common;
use common::worker_bin;

use inferturbo::cluster::{
    FaultPlan, InProcess, MessagePlaneBytes, RecoveryPolicy, Transport, WorkerProcess,
};
use inferturbo::common::{Error, Parallelism, Ticket, Xoshiro256};
use inferturbo::core::models::{GnnModel, PoolOp};
use inferturbo::core::session::{Backend, InferenceSession, SessionBuilder};
use inferturbo::core::strategy::StrategyConfig;
use inferturbo::core::{InferenceOutput, InferencePlan};
use inferturbo::graph::gen::{generate, DegreeSkew, GenConfig};
use inferturbo::graph::Graph;
use inferturbo::obs::{Payload, Site, TraceHandle};
use inferturbo::serve::{
    AdmissionPolicy, BreakerConfig, FeatureSnapshot, GnnServer, OverflowPolicy, RateLimitConfig,
    ScoreRequest, ScoreStatus, ServeConfig,
};

/// Seeds of scenarios that once failed; each runs before the sweep proper.
const REGRESSIONS: &[u64] = &[];

/// Engine scenarios are seeds `0..ENGINE_SCENARIOS`, serve scenarios seeds
/// `0..SERVE_SCENARIOS` (of a different generator).
const ENGINE_SCENARIOS: u64 = 96;
const SERVE_SCENARIOS: u64 = 32;

const FEAT_DIM: usize = 5;
const LAYERS: usize = 2;
const CLASSES: usize = 3;

fn seeds(n: u64) -> impl Iterator<Item = u64> {
    REGRESSIONS.iter().copied().chain(0..n)
}

/// Run one scenario's checks; if any panics, print the one-line repro
/// (`seed=<n>` plus the scenario) before the panic continues.
fn reporting_seed(half: &str, seed: u64, scenario: &impl std::fmt::Debug, check: impl FnOnce()) {
    if let Err(cause) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(check)) {
        eprintln!("{half} scenario failed: seed={seed} {scenario:?}");
        std::panic::resume_unwind(cause);
    }
}

fn pick<T: Copy>(rng: &mut Xoshiro256, values: &[T]) -> T {
    values[rng.index(values.len())]
}

fn bits(logits: &[Vec<f32>]) -> Vec<Vec<u32>> {
    logits
        .iter()
        .map(|row| row.iter().map(|x| x.to_bits()).collect())
        .collect()
}

fn own_features(g: &Graph) -> Vec<Vec<f32>> {
    (0..g.n_nodes() as u32)
        .map(|v| g.node_feat(v).to_vec())
        .collect()
}

/// Which values of which dimension a sweep drew: `seen[dimension]` is the
/// set of value labels. [`Coverage::assert_full`] holds it to the
/// generator's declared value lists.
#[derive(Default)]
struct Coverage {
    seen: BTreeMap<&'static str, BTreeSet<String>>,
}

impl Coverage {
    fn saw(&mut self, dimension: &'static str, value: impl std::fmt::Debug) {
        self.seen
            .entry(dimension)
            .or_default()
            .insert(format!("{value:?}"));
    }

    fn assert_full<V: std::fmt::Debug>(&self, dimension: &'static str, values: &[V]) {
        let seen = self.seen.get(dimension).cloned().unwrap_or_default();
        let want: BTreeSet<String> = values.iter().map(|v| format!("{v:?}")).collect();
        assert_eq!(
            seen, want,
            "dimension `{dimension}`: the sweep must draw every declared value \
             and nothing else — widen the sweep or fix the generator"
        );
    }
}

/// Three-way bucket of a numeric range, for dimensions too wide to demand
/// every value of.
fn bucket(x: u64, lo: u64, hi: u64) -> &'static str {
    let third = (hi - lo + 1).div_ceil(3);
    match (x - lo) / third {
        0 => "low",
        1 => "mid",
        _ => "high",
    }
}
const BUCKETS: [&str; 3] = ["low", "mid", "high"];

// ---------------------------------------------------------------------------
// Engine half
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ModelKind {
    SageMean,
    SageMax,
    SageSum,
    Gcn,
    Gat,
}
const MODELS: [ModelKind; 5] = [
    ModelKind::SageMean,
    ModelKind::SageMax,
    ModelKind::SageSum,
    ModelKind::Gcn,
    ModelKind::Gat,
];

fn gnn(kind: ModelKind, seed: u64) -> GnnModel {
    let pool = |op| GnnModel::sage(FEAT_DIM, 6, LAYERS, CLASSES, false, op, seed);
    match kind {
        ModelKind::SageMean => pool(PoolOp::Mean),
        ModelKind::SageMax => pool(PoolOp::Max),
        ModelKind::SageSum => pool(PoolOp::Sum),
        ModelKind::Gcn => GnnModel::gcn(FEAT_DIM, 6, LAYERS, CLASSES, false, seed),
        ModelKind::Gat => GnnModel::gat(FEAT_DIM, 6, 2, LAYERS, CLASSES, false, seed),
    }
}

/// Fault kinds by the backend whose sites they address; a schedule carries
/// one of each so both backends of a scenario are drilled.
const PREGEL_FAULTS: [&str; 4] = ["worker", "seal", "spill-write", "spill-read"];
const MR_FAULTS: [&str; 2] = ["map", "reduce"];
const SKEWS: [DegreeSkew; 3] = [DegreeSkew::In, DegreeSkew::Out, DegreeSkew::None];
const THREADS: [usize; 3] = [1, 2, 4];
const SPILLS: [Option<u64>; 3] = [None, Some(256), Some(4096)];

#[derive(Debug, Clone)]
struct Faults {
    pregel_kind: &'static str,
    mr_kind: &'static str,
    /// The schedule in `FaultPlan::parse` form, one Pregel site and one
    /// MapReduce site.
    spec: String,
    recovery: RecoveryPolicy,
}

#[derive(Debug, Clone)]
struct Scenario {
    seed: u64,
    nodes: usize,
    avg_degree: usize,
    skew: DegreeSkew,
    model: ModelKind,
    strategy: StrategyConfig,
    workers: usize,
    threads: usize,
    spill: Option<u64>,
    process: bool,
    faults: Option<Faults>,
    trace: bool,
}

fn scenario(seed: u64) -> Scenario {
    let mut rng = Xoshiro256::seed_from_u64(0x5CE9_A210 ^ seed);
    let workers = rng.range_u64(1, 9) as usize;
    let faults = rng.chance(0.75).then(|| {
        let pregel_kind = pick(&mut rng, &PREGEL_FAULTS);
        let mr_kind = pick(&mut rng, &MR_FAULTS);
        let step = rng.index(LAYERS);
        // The one map phase is round 0; reduce rounds count from 0 too.
        let round = if mr_kind == "map" {
            0
        } else {
            rng.index(LAYERS)
        };
        let budget = rng.range_u64(1, 3);
        Faults {
            pregel_kind,
            mr_kind,
            spec: format!(
                "{pregel_kind}:{}@step:{step}x{budget},{mr_kind}:{}@round:{round}",
                rng.index(workers),
                rng.index(workers),
            ),
            recovery: RecoveryPolicy::new(rng.range_u64(1, 3) as usize, 3),
        }
    });
    Scenario {
        seed,
        nodes: rng.range_u64(40, 301) as usize,
        avg_degree: rng.range_u64(1, 9) as usize,
        skew: pick(&mut rng, &SKEWS),
        model: pick(&mut rng, &MODELS),
        strategy: StrategyConfig {
            partial_gather: rng.chance(0.5),
            broadcast: rng.chance(0.5),
            shadow_nodes: rng.chance(0.5),
            ..StrategyConfig::none().with_threshold(rng.range_u64(2, 31) as u32)
        },
        workers,
        threads: pick(&mut rng, &THREADS),
        spill: pick(&mut rng, &SPILLS),
        process: rng.chance(0.5),
        faults,
        trace: rng.chance(0.5),
    }
}

impl Scenario {
    fn graph(&self) -> Graph {
        generate(&GenConfig {
            n_nodes: self.nodes,
            n_edges: self.nodes * self.avg_degree,
            feat_dim: FEAT_DIM,
            classes: CLASSES as u32,
            skew: self.skew,
            seed: self.seed,
            ..GenConfig::default()
        })
    }

    /// The plain configuration: the scenario's graph, model, strategy and
    /// cluster size with every other knob off.
    fn plain<'a>(&self, m: &'a GnnModel, g: &'a Graph, backend: Backend) -> SessionBuilder<'a> {
        InferenceSession::builder()
            .model(m)
            .graph(g)
            .workers(self.workers)
            .strategy(self.strategy)
            .backend(backend)
    }

    /// [`Scenario::plain`] under the scenario's spill budget. Spilling is
    /// the one knob that is a modelled *input*: it moves bytes from the
    /// resident plane to the spilled plane, which the trace reports.
    fn spilled<'a>(&self, m: &'a GnnModel, g: &'a Graph, backend: Backend) -> SessionBuilder<'a> {
        let b = self.plain(m, g, backend);
        match self.spill {
            Some(bytes) => b
                .spill_budget(bytes)
                .spill_dir(std::env::temp_dir().join("inferturbo-sweep-tests")),
            None => b,
        }
    }

    /// [`Scenario::plain`] with every knob the scenario drew turned on.
    fn knobbed<'a>(
        &self,
        m: &'a GnnModel,
        g: &'a Graph,
        backend: Backend,
        procs: &Arc<dyn Transport>,
        trace: &TraceHandle,
    ) -> SessionBuilder<'a> {
        let b = self
            .spilled(m, g, backend)
            .trace(trace.clone())
            .transport(if self.process {
                Arc::clone(procs)
            } else {
                Arc::new(InProcess)
            });
        match &self.faults {
            Some(f) => b
                .fault_plan(FaultPlan::parse(&f.spec).expect("generated fault spec"))
                .recovery(f.recovery),
            None => b,
        }
    }

    /// Does the schedule's site for `backend` fire? Pregel's spill sites
    /// exist only under a spill policy; every other site always does.
    fn fault_fires(&self, backend: Backend) -> bool {
        self.faults.as_ref().is_some_and(|f| {
            backend == Backend::MapReduce
                || self.spill.is_some()
                || !f.pregel_kind.starts_with("spill")
        })
    }
}

/// A trace with the retry plane removed. Pregel records replays as
/// durable `site=recovery` lines; MapReduce has no recovery site — an
/// absorbed task re-launch shows only as the trailing `retries=` count of
/// its `kind=round` record, which is zeroed here.
fn strip_recovery(trace: &str) -> String {
    trace
        .lines()
        .filter(|l| !l.contains("site=recovery"))
        .map(|l| match l.rsplit_once(" retries=") {
            Some((head, _)) if l.contains("kind=round") => format!("{head} retries=0\n"),
            _ => format!("{l}\n"),
        })
        .collect()
}

/// What a run is compared on: logit bits plus the modelled planes no knob
/// may move.
#[derive(Debug, PartialEq)]
struct Modelled {
    logits: Vec<Vec<u32>>,
    message_bytes: MessagePlaneBytes,
    records_out: u64,
}

fn modelled(out: &InferenceOutput) -> Modelled {
    Modelled {
        logits: bits(&out.logits),
        message_bytes: out.report.message_bytes,
        records_out: out
            .report
            .worker_totals()
            .iter()
            .map(|w| w.records_out)
            .sum(),
    }
}

/// Mechanisms the sweep must engage at least once somewhere, so a knob
/// cannot be on in name only.
#[derive(Default)]
struct Engaged {
    wire: bool,
    spilled: bool,
    retried: BTreeSet<&'static str>,
    recovery_traced: bool,
    hubs: bool,
    mirrors: bool,
}

fn check_engine(s: &Scenario, procs: &Arc<dyn Transport>, engaged: &mut Engaged) {
    let g = s.graph();
    let m = gnn(s.model, s.seed);
    let reference = InferenceSession::builder()
        .model(&m)
        .graph(&g)
        .backend(Backend::Reference)
        .plan()
        .expect("reference plan")
        .run()
        .expect("reference run")
        .logits;
    let own = own_features(&g);

    for backend in [Backend::Pregel, Backend::MapReduce] {
        // (1) plain vs the reference oracle.
        let plain_plan = s.plain(&m, &g, backend).plan().expect("plain plan");
        let summary = plain_plan.summary();
        engaged.hubs |= summary.hubs > 0;
        engaged.mirrors |= summary.mirrors > 0;
        let plain_out = Parallelism::with(1, || plain_plan.run()).expect("plain run");
        for (v, (got, want)) in plain_out.logits.iter().zip(&reference).enumerate() {
            for (c, (x, y)) in got.iter().zip(want).enumerate() {
                assert!(
                    (x - y).abs() < 2e-3,
                    "{backend:?} node {v} class {c}: {x} vs reference {y}"
                );
            }
        }
        let plain = modelled(&plain_out);
        assert_eq!(plain_out.report.wire_bytes, 0, "{backend:?} plain wire");
        assert_eq!(plain_out.report.retries, 0, "{backend:?} plain retries");

        // (2) every knob at once moves no bit and no modelled byte.
        let trace = if s.trace {
            TraceHandle::recording()
        } else {
            TraceHandle::disabled()
        };
        let plan = s
            .knobbed(&m, &g, backend, procs, &trace)
            .plan()
            .expect("knobbed plan");
        let out = Parallelism::with(s.threads, || plan.run()).expect("knobbed run");
        assert_eq!(modelled(&out), plain, "{backend:?}: knobs changed the run");
        let report = out.report;
        assert_eq!(
            report.retries > 0,
            s.fault_fires(backend),
            "{backend:?}: the fault schedule must fire exactly when armed \
             (retries {}, checkpoints {})",
            report.retries,
            report.checkpoints
        );
        if report.retries > 0 {
            let f = s.faults.as_ref().expect("retries imply a schedule");
            engaged.retried.insert(if backend == Backend::Pregel {
                f.pregel_kind
            } else {
                f.mr_kind
            });
        }
        assert_eq!(
            report.wire_bytes > 0,
            s.process,
            "{backend:?}: wire bytes iff the process transport"
        );
        engaged.wire |= report.wire_bytes > 0;
        engaged.spilled |= report.spilled_bytes > 0;

        // (3) the recovered trace, retry plane stripped, is the trace of
        // the plain configuration under the same spill budget.
        if s.trace {
            let rendered = trace.render();
            // Checkpoints land on the recovery plane whenever a policy is
            // armed; retries only when a fault fired.
            assert_eq!(
                rendered.contains("site=recovery"),
                backend == Backend::Pregel && s.faults.is_some(),
                "{backend:?}: recovery plane iff a Pregel recovery policy"
            );
            assert_eq!(
                rendered.contains("kind=retry"),
                backend == Backend::Pregel && report.retries > 0,
                "{backend:?}: retry events iff a Pregel replay"
            );
            engaged.recovery_traced |= rendered.contains("kind=retry");
            let clean = TraceHandle::recording();
            let clean_plan = s
                .spilled(&m, &g, backend)
                .trace(clean.clone())
                .plan()
                .expect("traced plain plan");
            Parallelism::with(1, || clean_plan.run()).expect("traced plain run");
            assert_eq!(
                strip_recovery(&rendered),
                clean.render(),
                "{backend:?}: knobs leaked into the core trace plane"
            );
        }

        // (4) the plan is reusable: drained fault budgets, fresh features.
        let again = Parallelism::with(s.threads, || plan.run()).expect("second run");
        assert_eq!(modelled(&again), plain, "{backend:?}: second run diverged");
        assert_eq!(again.report.retries, 0, "{backend:?}: fault budgets drain");
        let fresh = Parallelism::with(s.threads, || plan.run_with_features(&own))
            .expect("run_with_features");
        assert_eq!(
            bits(&fresh.logits),
            plain.logits,
            "{backend:?}: own features diverged"
        );
    }
}

#[test]
fn every_engine_knob_at_once_changes_nothing() {
    let procs: Arc<dyn Transport> = Arc::new(WorkerProcess::with_bin(worker_bin()));
    let mut cov = Coverage::default();
    let mut engaged = Engaged::default();
    let mut ran = 0;
    for seed in seeds(ENGINE_SCENARIOS) {
        let s = scenario(seed);
        reporting_seed("engine", seed, &s, || {
            check_engine(&s, &procs, &mut engaged)
        });
        ran += 1;

        cov.saw("nodes", bucket(s.nodes as u64, 40, 300));
        cov.saw("avg_degree", s.avg_degree);
        cov.saw("skew", s.skew);
        cov.saw("model", s.model);
        cov.saw("partial_gather", s.strategy.partial_gather);
        cov.saw("broadcast", s.strategy.broadcast);
        cov.saw("shadow_nodes", s.strategy.shadow_nodes);
        let threshold = s.strategy.threshold_override.expect("threshold is pinned");
        cov.saw("threshold", bucket(threshold as u64, 2, 30));
        cov.saw("workers", s.workers);
        cov.saw("threads", s.threads);
        cov.saw("spill", s.spill);
        cov.saw("process", s.process);
        cov.saw("trace", s.trace);
        cov.saw("pregel_fault", s.faults.as_ref().map(|f| f.pregel_kind));
        cov.saw("mr_fault", s.faults.as_ref().map(|f| f.mr_kind));
        if let Some(f) = &s.faults {
            cov.saw("checkpoint_every", f.recovery.checkpoint_every);
        }
    }
    assert!(ran >= 64, "the sweep runs at least 64 engine scenarios");

    let on_off = [false, true];
    let with_none = |kinds: &[&'static str]| -> Vec<Option<&'static str>> {
        std::iter::once(None)
            .chain(kinds.iter().copied().map(Some))
            .collect()
    };
    cov.assert_full("nodes", &BUCKETS);
    cov.assert_full("avg_degree", &[1, 2, 3, 4, 5, 6, 7, 8]);
    cov.assert_full("skew", &SKEWS);
    cov.assert_full("model", &MODELS);
    cov.assert_full("partial_gather", &on_off);
    cov.assert_full("broadcast", &on_off);
    cov.assert_full("shadow_nodes", &on_off);
    cov.assert_full("threshold", &BUCKETS);
    cov.assert_full("workers", &[1, 2, 3, 4, 5, 6, 7, 8]);
    cov.assert_full("threads", &THREADS);
    cov.assert_full("spill", &SPILLS);
    cov.assert_full("process", &on_off);
    cov.assert_full("trace", &on_off);
    cov.assert_full("pregel_fault", &with_none(&PREGEL_FAULTS));
    cov.assert_full("mr_fault", &with_none(&MR_FAULTS));
    cov.assert_full("checkpoint_every", &[1, 2]);

    // Drawn is not engaged: every mechanism must also have done its work.
    assert!(engaged.wire, "no scenario moved bytes across a pipe");
    assert!(engaged.spilled, "no scenario paged an inbox to disk");
    assert!(engaged.hubs && engaged.mirrors, "no hub / mirror engaged");
    assert!(engaged.recovery_traced, "no recovery event was traced");
    let every_kind: BTreeSet<_> = PREGEL_FAULTS.iter().chain(&MR_FAULTS).copied().collect();
    assert_eq!(
        engaged.retried, every_kind,
        "fault kinds that forced a retry"
    );
}

// ---------------------------------------------------------------------------
// Serve half
// ---------------------------------------------------------------------------

const SERVE_BACKENDS: [Backend; 2] = [Backend::Pregel, Backend::MapReduce];
const RATE_LIMITS: [&str; 3] = ["none", "degrade", "reject"];
const POLICIES: [AdmissionPolicy; 2] = [AdmissionPolicy::Reject, AdmissionPolicy::ShedOldest];

#[derive(Debug, Clone)]
struct Req {
    /// Index into [`ServeScenario::configs`].
    config: usize,
    /// `None`: the graph's own features; `Some(i)`: rotating snapshot `i`.
    snapshot: Option<usize>,
    tenant: Option<u64>,
    deadline: Option<u64>,
    targets: Vec<u32>,
    /// Server ticks after this submit.
    ticks_after: usize,
}

#[derive(Debug, Clone)]
struct ServeScenario {
    seed: u64,
    nodes: usize,
    model: ModelKind,
    /// The plan configurations requests choose between: (workers, backend).
    configs: Vec<(usize, Backend)>,
    snapshots: usize,
    max_batch: usize,
    max_wait: u64,
    rate_limit: Option<RateLimitConfig>,
    deadline_clamp: Option<u64>,
    breaker: Option<BreakerConfig>,
    response_cache: usize,
    /// `(schedule, per-site budget)`: one Pregel and one MapReduce site.
    fault: Option<(String, u32)>,
    recovery: Option<RecoveryPolicy>,
    max_run_retries: u32,
    /// Budget = the largest single plan's residency: plans fit one at a
    /// time, so a second configuration is rejected or sheds the first.
    tight_budget: bool,
    policy: AdmissionPolicy,
    process: bool,
    trace: bool,
    requests: Vec<Req>,
}

fn serve_scenario(seed: u64) -> ServeScenario {
    let mut rng = Xoshiro256::seed_from_u64(0x5E7_F00D ^ seed);
    let nodes = rng.range_u64(40, 121) as usize;
    let configs: Vec<(usize, Backend)> = (0..rng.range_u64(1, 3))
        .map(|i| (2 + i as usize, pick(&mut rng, &SERVE_BACKENDS)))
        .collect();
    let snapshots = rng.range_u64(1, 4) as usize;
    let rate_limit = match pick(&mut rng, &RATE_LIMITS) {
        "none" => None,
        "degrade" => Some(RateLimitConfig::degrade(
            rng.range_u64(1, 4),
            rng.range_u64(0, 2),
        )),
        _ => Some(RateLimitConfig::reject(
            rng.range_u64(1, 4),
            rng.range_u64(0, 2),
        )),
    };
    let fault = rng.chance(0.5).then(|| {
        let budget = rng.range_u64(1, 3) as u32;
        (
            format!("worker:0@step:1x{budget},reduce:0@round:0x{budget}"),
            budget,
        )
    });
    let requests = (0..rng.range_u64(16, 41))
        .map(|_| Req {
            config: rng.index(configs.len()),
            snapshot: rng.chance(0.7).then(|| rng.index(snapshots)),
            tenant: rng.chance(0.5).then(|| rng.below(3)),
            deadline: rng.chance(0.3).then(|| rng.below(4)),
            targets: (0..rng.below(4)).map(|_| rng.index(nodes) as u32).collect(),
            ticks_after: if rng.chance(0.4) { rng.index(3) } else { 0 },
        })
        .collect();
    ServeScenario {
        seed,
        nodes,
        model: pick(&mut rng, &MODELS),
        configs,
        snapshots,
        max_batch: rng.range_u64(1, 7) as usize,
        max_wait: rng.below(4),
        rate_limit,
        deadline_clamp: rng.chance(0.5).then(|| rng.below(3)),
        breaker: rng.chance(0.7).then(|| BreakerConfig {
            window_ticks: 8,
            min_runs: rng.range_u64(1, 4),
            trip_pct: 50,
            cooldown_ticks: rng.range_u64(1, 4),
        }),
        response_cache: if rng.chance(0.7) { 4096 } else { 0 },
        fault,
        recovery: rng.chance(0.5).then(|| RecoveryPolicy::new(1, 3)),
        max_run_retries: rng.below(3) as u32,
        tight_budget: rng.chance(0.3),
        policy: pick(&mut rng, &POLICIES),
        process: rng.chance(0.3),
        trace: rng.chance(0.5),
        requests,
    }
}

impl ServeScenario {
    /// Can a run fail from a caller's point of view? Only on Pregel (the
    /// MapReduce engine always re-launches a failed task), without a
    /// recovery policy, when the schedule outlasts the serve-level retries.
    fn failures_surface(&self) -> bool {
        self.fault.as_ref().is_some_and(|&(_, budget)| {
            self.recovery.is_none()
                && self.max_run_retries < budget
                && self.configs.iter().any(|&(_, b)| b == Backend::Pregel)
        })
    }

    /// Calm: nothing but the overload knobs can touch a request, so an
    /// untenanted, deadline-free request must be served fresh — and
    /// identically with those knobs unarmed.
    fn calm(&self) -> bool {
        !self.tight_budget && !self.failures_surface()
    }
}

/// One request's fate: its terminal status, or the submit error.
#[derive(Debug, PartialEq)]
enum Fate {
    Answered { stale: bool, logits: Vec<Vec<u32>> },
    Shed,
    DeadlineExceeded,
    Throttled,
    Failed,
    Refused(String),
}

/// Move every ready response into its request's slot of `fates`.
fn collect(
    server: &mut GnnServer<'_>,
    by_ticket: &BTreeMap<u64, usize>,
    fates: &mut [Option<Fate>],
) {
    for resp in server.drain_ready() {
        let Ticket(t) = resp.ticket;
        let i = *by_ticket
            .get(&t)
            .unwrap_or_else(|| panic!("response for unknown ticket {t}"));
        let fate = match resp.status {
            ScoreStatus::Served(l) => Fate::Answered {
                stale: false,
                logits: bits(&l),
            },
            ScoreStatus::ServedStale(l) => Fate::Answered {
                stale: true,
                logits: bits(&l),
            },
            ScoreStatus::Shed => Fate::Shed,
            ScoreStatus::DeadlineExceeded { .. } => Fate::DeadlineExceeded,
            ScoreStatus::Throttled => Fate::Throttled,
            ScoreStatus::Failed(_) => Fate::Failed,
        };
        assert!(
            fates[i].replace(fate).is_none(),
            "ticket {t} resolved twice"
        );
    }
}

/// Drive `s.requests` through a server built from `cfg`; returns each
/// request's fate in request order.
fn drive(
    s: &ServeScenario,
    cfg: ServeConfig,
    m: &GnnModel,
    g: &Graph,
    snapshots: &[FeatureSnapshot],
) -> Vec<Fate> {
    let budget = cfg.memory_budget;
    let trace = cfg.trace.clone();
    let mut server = GnnServer::new(cfg);
    server.register_model(1, m).expect("register model");
    server.register_graph(1, g).expect("register graph");

    let mut fates: Vec<Option<Fate>> = Vec::new();
    let mut by_ticket: BTreeMap<u64, usize> = BTreeMap::new();
    let mut limiter_refusals = 0;
    for (i, r) in s.requests.iter().enumerate() {
        let (workers, backend) = s.configs[r.config];
        let mut req = ScoreRequest::new(1, 1)
            .with_workers(workers)
            .with_backend(backend)
            .with_targets(r.targets.clone());
        if let Some(si) = r.snapshot {
            req = req.with_snapshot(Arc::clone(&snapshots[si]));
        }
        if let Some(t) = r.tenant {
            req = req.with_tenant(t);
        }
        if let Some(d) = r.deadline {
            req = req.with_deadline(d);
        }
        match server.submit(req) {
            Ok(Ticket(t)) => {
                assert!(by_ticket.insert(t, i).is_none(), "ticket {t} issued twice");
                fates.push(None);
            }
            Err(e) => {
                assert!(
                    matches!(e, Error::Overloaded(_) | Error::InvalidConfig(_)),
                    "request {i}: unexpected submit error {e}"
                );
                limiter_refusals += u64::from(e.to_string().contains("rate limit"));
                fates.push(Some(Fate::Refused(e.to_string())));
            }
        }
        assert!(
            server.admission().resident_bytes() <= budget,
            "request {i}: admitted residency {} over the budget {budget}",
            server.admission().resident_bytes()
        );
        for _ in 0..r.ticks_after {
            server.tick();
            collect(&mut server, &by_ticket, &mut fates);
        }
    }
    server.drain();
    collect(&mut server, &by_ticket, &mut fates);
    assert_eq!(server.pending(), 0, "drain leaves nothing queued");

    // Exactly one terminal status per ticket...
    let fates: Vec<Fate> = fates
        .into_iter()
        .enumerate()
        .map(|(i, f)| f.unwrap_or_else(|| panic!("request {i} never resolved")))
        .collect();
    // ...and the counters agree with what callers saw.
    let count = |pred: fn(&Fate) -> bool| fates.iter().filter(|f| pred(f)).count() as u64;
    let st = server.stats();
    assert_eq!(st.submitted, by_ticket.len() as u64, "submitted = tickets");
    assert_eq!(
        st.served,
        count(|f| matches!(f, Fate::Answered { stale: false, .. }))
    );
    assert_eq!(
        st.overload.served_stale,
        count(|f| matches!(f, Fate::Answered { stale: true, .. }))
    );
    assert_eq!(st.shed, count(|f| matches!(f, Fate::Shed)));
    assert_eq!(st.failed, count(|f| matches!(f, Fate::Failed)));
    assert_eq!(
        st.overload.deadline_exceeded,
        count(|f| matches!(f, Fate::DeadlineExceeded))
    );
    assert_eq!(
        st.overload.throttled,
        count(|f| matches!(f, Fate::Throttled)) + limiter_refusals
    );
    assert_eq!(
        st.submitted,
        st.served
            + st.overload.served_stale
            + st.shed
            + st.failed
            + st.overload.deadline_exceeded
            + st.overload.throttled
            - limiter_refusals,
        "status counters sum to submissions"
    );
    // The trace tells the same story: one terminal event per ticket.
    if trace.enabled() {
        let mut terminals: BTreeMap<u64, u32> = BTreeMap::new();
        for e in trace.events() {
            if let (Site::Ticket(t), Payload::Terminal { .. }) = (e.site, &e.payload) {
                *terminals.entry(t).or_default() += 1;
            }
        }
        let want: BTreeMap<u64, u32> = by_ticket.keys().map(|&t| (t, 1)).collect();
        assert_eq!(terminals, want, "terminal events per ticket");
    }
    fates
}

/// Serve-side mechanisms the sweep must engage somewhere.
#[derive(Default)]
struct ServeEngaged {
    fates: BTreeSet<&'static str>,
    limiter_hit_while_calm: bool,
    compared: usize,
}

fn check_serve(s: &ServeScenario, procs: &Arc<dyn Transport>, engaged: &mut ServeEngaged) {
    let g = generate(&GenConfig {
        n_nodes: s.nodes,
        n_edges: s.nodes * 4,
        feat_dim: FEAT_DIM,
        classes: CLASSES as u32,
        skew: DegreeSkew::In,
        seed: s.seed,
        ..GenConfig::default()
    });
    let m = gnn(s.model, s.seed);
    let own = own_features(&g);
    let snapshots: Vec<FeatureSnapshot> = (0..s.snapshots)
        .map(|i| {
            Arc::new(
                own.iter()
                    .map(|row| row.iter().map(|x| x * 0.5 + i as f32).collect())
                    .collect(),
            )
        })
        .collect();

    // The oracle: a direct plan per configuration, run per snapshot.
    let plans: Vec<InferencePlan<'_>> = s
        .configs
        .iter()
        .map(|&(workers, backend)| {
            InferenceSession::builder()
                .model(&m)
                .graph(&g)
                .workers(workers)
                .backend(backend)
                .plan()
                .expect("direct plan")
        })
        .collect();
    let mut direct: BTreeMap<(usize, Option<usize>), Vec<Vec<u32>>> = BTreeMap::new();
    let mut expect = |r: &Req| -> Vec<Vec<u32>> {
        let all = direct.entry((r.config, r.snapshot)).or_insert_with(|| {
            let out = match r.snapshot {
                Some(si) => plans[r.config].run_with_features(&snapshots[si]),
                None => plans[r.config].run(),
            };
            bits(&out.expect("direct run").logits)
        });
        if r.targets.is_empty() {
            all.clone()
        } else {
            r.targets.iter().map(|&v| all[v as usize].clone()).collect()
        }
    };

    let residency = |p: &InferencePlan<'_>| match p.backend() {
        Backend::MapReduce => p.estimate().mapreduce_peak_worker_bytes,
        _ => p.estimate().pregel_peak_worker_bytes,
    };
    let unarmed = ServeConfig {
        max_batch: s.max_batch,
        max_wait: s.max_wait,
        policy: s.policy,
        max_run_retries: s.max_run_retries,
        fault_plan: s
            .fault
            .as_ref()
            .map(|(spec, _)| FaultPlan::parse(spec).expect("generated fault spec")),
        recovery: s.recovery,
        rate_limit: None,
        deadline_clamp: None,
        breaker: None,
        response_cache: 0,
        transport: s.process.then(|| Arc::clone(procs)),
        ..ServeConfig::default()
    };
    let mut armed = ServeConfig {
        rate_limit: s.rate_limit,
        deadline_clamp: s.deadline_clamp,
        breaker: s.breaker,
        response_cache: s.response_cache,
        ..unarmed.clone()
    };
    if s.tight_budget {
        armed.memory_budget = plans.iter().map(residency).max().expect("a plan");
    }
    if s.trace {
        armed.trace = TraceHandle::recording();
    }

    let fates = drive(s, armed, &m, &g, &snapshots);
    for (i, (r, fate)) in s.requests.iter().zip(&fates).enumerate() {
        engaged.fates.insert(match fate {
            Fate::Answered { stale: false, .. } => "served",
            Fate::Answered { stale: true, .. } => "served_stale",
            Fate::Shed => "shed",
            Fate::DeadlineExceeded => "deadline_exceeded",
            Fate::Throttled => "throttled",
            Fate::Failed => "failed",
            Fate::Refused(_) => "refused",
        });
        // Every answer, fresh or stale, is the direct run's rows.
        if let Fate::Answered { logits, .. } = fate {
            assert_eq!(
                logits,
                &expect(r),
                "request {i}: answer is not the direct run"
            );
        }
    }

    if s.calm() {
        let plain = drive(s, unarmed, &m, &g, &snapshots);
        for (i, r) in s.requests.iter().enumerate() {
            if r.tenant.is_some() || r.deadline.is_some() {
                engaged.limiter_hit_while_calm |= matches!(
                    &fates[i],
                    Fate::Throttled | Fate::Refused(_) | Fate::Answered { stale: true, .. }
                );
                continue;
            }
            assert!(
                matches!(fates[i], Fate::Answered { stale: false, .. }),
                "request {i}: untenanted, deadline-free traffic must be served \
                 fresh under armed overload knobs, got {:?}",
                fates[i]
            );
            assert_eq!(
                fates[i], plain[i],
                "request {i}: arming the overload knobs changed an answer"
            );
            engaged.compared += 1;
        }
    }
}

#[test]
fn every_serve_knob_at_once_keeps_the_serving_contract() {
    let procs: Arc<dyn Transport> = Arc::new(WorkerProcess::with_bin(worker_bin()));
    let mut cov = Coverage::default();
    let mut engaged = ServeEngaged::default();
    let mut ran = 0;
    for seed in seeds(SERVE_SCENARIOS) {
        let s = serve_scenario(seed);
        reporting_seed("serve", seed, &s, || check_serve(&s, &procs, &mut engaged));
        ran += 1;

        cov.saw("configs", s.configs.len());
        for &(_, backend) in &s.configs {
            cov.saw("backend", backend);
        }
        cov.saw("snapshots", s.snapshots);
        cov.saw(
            "rate_limit",
            s.rate_limit.map_or("none", |rl| match rl.policy {
                OverflowPolicy::Degrade => "degrade",
                OverflowPolicy::Reject => "reject",
            }),
        );
        cov.saw("deadline_clamp", s.deadline_clamp.is_some());
        cov.saw("breaker", s.breaker.is_some());
        cov.saw("response_cache", s.response_cache > 0);
        cov.saw("fault", s.fault.is_some());
        cov.saw("recovery", s.recovery.is_some());
        cov.saw("max_run_retries", s.max_run_retries);
        cov.saw("tight_budget", s.tight_budget);
        cov.saw("policy", s.policy);
        cov.saw("process", s.process);
        cov.saw("trace", s.trace);
        cov.saw("calm", s.calm());
        for r in &s.requests {
            cov.saw("tenanted", r.tenant.is_some());
            cov.saw("deadlined", r.deadline.is_some());
            cov.saw("snapshotted", r.snapshot.is_some());
            cov.saw("targeted", !r.targets.is_empty());
        }
    }
    assert!(ran >= 24, "the sweep runs at least 24 serve scenarios");

    let on_off = [false, true];
    cov.assert_full("configs", &[1, 2]);
    cov.assert_full("backend", &SERVE_BACKENDS);
    cov.assert_full("snapshots", &[1, 2, 3]);
    cov.assert_full("rate_limit", &RATE_LIMITS);
    cov.assert_full("max_run_retries", &[0, 1, 2]);
    cov.assert_full("policy", &POLICIES);
    for dimension in [
        "deadline_clamp",
        "breaker",
        "response_cache",
        "fault",
        "recovery",
        "tight_budget",
        "process",
        "trace",
        "calm",
        "tenanted",
        "deadlined",
        "snapshotted",
        "targeted",
    ] {
        cov.assert_full(dimension, &on_off);
    }

    // Every way a request can end was seen, and the armed-vs-unarmed
    // comparison ran on traffic that did hit the limiter.
    let every_fate: BTreeSet<_> = [
        "served",
        "served_stale",
        "shed",
        "deadline_exceeded",
        "throttled",
        "failed",
        "refused",
    ]
    .into();
    assert_eq!(engaged.fates, every_fate, "request fates seen");
    assert!(engaged.limiter_hit_while_calm, "the limiter never engaged");
    assert!(
        engaged.compared >= 100,
        "armed-vs-unarmed compared only {} requests",
        engaged.compared
    );
}
