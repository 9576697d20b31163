//! The serve workload: `GnnServer` driven through `submit` / `tick` /
//! `drain_ready` by a load generator on the calling thread (the serve core
//! is synchronous), in wall time.

use crate::inputs::{self, ModelKind, WORKERS};
use crate::outcome::{cycles_for, msg, peak_rss_mb, Ctx, Outcome, Res, MIN_CYCLES};
use crate::spans::Recorder;
use crate::stats::{median_of, percentile, sorted};
use inferturbo_core::models::GnnModel;
use inferturbo_core::session::{Backend, InferenceSession};
use inferturbo_core::strategy::{build_node_records, StrategyConfig};
use inferturbo_core::InferencePlan;
use inferturbo_graph::gen::DegreeSkew;
use inferturbo_graph::Graph;
use inferturbo_obs::TraceHandle;
use inferturbo_serve::{
    FeatureSnapshot, GnnServer, RateLimitConfig, ScoreRequest, ScoreResponse, ScoreStatus,
    ServeConfig,
};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Full batches a new server runs before anything is timed: the plan cache
/// and the engine scratch are then warm.
const WARM_BATCHES: usize = 2;
const MAX_BATCH: usize = 16;
/// Wall time between `tick()` calls while the generator is not inside one.
const TICK_SECS: f64 = 0.005;
/// The feature snapshot rotates this often; only requests of one epoch
/// share a snapshot and coalesce.
const EPOCH_SECS: f64 = 0.1;
const SNAPSHOT_POOL: usize = 8;
/// Open-loop arrival rates, requests per second.
const RATES: [f64; 3] = [10.0, 50.0, 150.0];
/// The end-to-end latency metric is read at the lowest step: below one
/// request per engine run the engine idles between groups, and latency is
/// ageing plus one run. Above it the engine never idles, latency is set by
/// queueing between groups, and that amplifies every spell of a slower host.
const GATE_RATE: f64 = RATES[0];
/// The per-call layer metrics are read at the middle step.
const PROBE_RATE: f64 = RATES[1];
/// Latency limit on the 90th percentile, seconds from a request's due time.
const P90_LIMIT_SECS: f64 = 0.200;
const OUTSTANDING: usize = 32;
/// After a schedule's last arrival, how long answers are waited for before
/// the rest count as missed.
const GRACE_SECS: f64 = 5.0;
/// Overload spike: tenant requests per tick against a 4-token bucket that
/// refills one token a tick, plus one request whose deadline always expires.
const SPIKE: usize = 8;
const BUCKET: u64 = 4;
const SPIKE_TENANT: u64 = 7;
/// Served rows are compared with direct runs for this many snapshots.
const CHECKED_SNAPSHOTS: usize = 5;

/// Everything env-armed in `ServeConfig::default()` is overridden, so no
/// `INFERTURBO_*` variable reaches the server.
fn serve_config(rate_limit: Option<RateLimitConfig>, response_cache: Option<usize>) -> ServeConfig {
    let base = ServeConfig::default();
    ServeConfig {
        max_batch: MAX_BATCH,
        max_wait: 1,
        rate_limit,
        deadline_clamp: None,
        trace: TraceHandle::disabled(),
        transport: Some(Arc::new(inferturbo_cluster::InProcess)),
        response_cache: response_cache.unwrap_or(base.response_cache),
        ..base
    }
}

fn request(snapshot: Option<&FeatureSnapshot>, targets: Vec<u32>) -> ScoreRequest {
    let r = ScoreRequest::new(1, 1)
        .with_workers(WORKERS)
        .with_backend(Backend::Pregel)
        .with_strategy(StrategyConfig::all())
        .with_targets(targets);
    match snapshot {
        Some(s) => r.with_snapshot(Arc::clone(s)),
        None => r,
    }
}

/// The plan the server builds for [`request`], built directly.
fn direct_plan<'a>(model: &'a GnnModel, graph: &'a Graph) -> Res<InferencePlan<'a>> {
    InferenceSession::builder()
        .model(model)
        .graph(graph)
        .workers(WORKERS)
        .strategy(StrategyConfig::all())
        .backend(Backend::Pregel)
        .trace(TraceHandle::disabled())
        .transport(Arc::new(inferturbo_cluster::InProcess))
        .plan()
        .map_err(msg)
}

fn new_server<'a>(cfg: ServeConfig, model: &'a GnnModel, graph: &'a Graph) -> Res<GnnServer<'a>> {
    let mut server = GnnServer::new(cfg);
    server.register_model(1, model).map_err(msg)?;
    server.register_graph(1, graph).map_err(msg)?;
    Ok(server)
}

/// Per-call measurements of the traced pass, reset between phases.
#[derive(Default)]
struct Probe {
    /// Submits that only enqueued, seconds.
    submit: Vec<f64>,
    /// Calls during which the engine ran (`stats().batches` advanced),
    /// seconds per engine run: a tick that finds two groups due runs both.
    flush: Vec<f64>,
    /// From a request's submit to the start of the call that served it.
    queue_wait: Vec<f64>,
    drain: Vec<f64>,
    /// Flush-carrying calls as (start, end), seconds from the phase start.
    flush_spans: Vec<(f64, f64)>,
}

struct Pending {
    due: f64,
    submitted: f64,
    /// Index into the served-row samples, for the output check.
    keep: Option<usize>,
}

/// A request whose served rows are compared with a direct run afterwards.
struct Kept {
    snapshot: usize,
    targets: Vec<u32>,
    rows: Option<Arc<Vec<Vec<f32>>>>,
}

/// What outlives a phase: the server, the snapshot pool it is asked
/// about, and the answers kept for the output check.
struct Rig<'a> {
    server: GnnServer<'a>,
    snapshots: Vec<FeatureSnapshot>,
    kept: Vec<Kept>,
}

/// The load generator's view of one phase.
struct Client<'s, 'a> {
    rig: &'s mut Rig<'a>,
    origin: Instant,
    next_tick: f64,
    pending: HashMap<u64, Pending>,
    /// Latency from due time of every request answered `Served`, seconds.
    latencies: Vec<f64>,
    served: u64,
    /// Answers other than `Served`, and requests never answered.
    misses: u64,
    submitted: u64,
    max_late: f64,
    /// Start of the submit or tick in progress.
    call_start: f64,
    probe: Option<Probe>,
}

impl<'s, 'a> Client<'s, 'a> {
    fn new(rig: &'s mut Rig<'a>, traced: bool) -> Self {
        Client {
            rig,
            origin: Instant::now(),
            next_tick: TICK_SECS,
            pending: HashMap::new(),
            latencies: Vec::new(),
            served: 0,
            misses: 0,
            submitted: 0,
            max_late: 0.0,
            call_start: 0.0,
            probe: traced.then(Probe::default),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Count this phase's requests, and its misses as failed operations.
    fn tally(&self, o: &mut Outcome) {
        o.attempted += self.submitted;
        o.failed += self.misses;
    }

    fn snapshot_at(&self, t: f64) -> usize {
        (t / EPOCH_SECS) as usize % self.rig.snapshots.len()
    }

    /// A server call, timed when tracing: `flush` if the engine ran in it.
    fn call<T>(&mut self, is_submit: bool, f: impl FnOnce(&mut GnnServer<'a>) -> T) -> T {
        self.call_start = self.now();
        let before = self.rig.server.stats().batches;
        let out = f(&mut self.rig.server);
        if let Some(p) = &mut self.probe {
            let end = self.origin.elapsed().as_secs_f64();
            let runs = self.rig.server.stats().batches - before;
            if runs > 0 {
                p.flush.push((end - self.call_start) / runs as f64);
                p.flush_spans.push((self.call_start, end));
            } else if is_submit {
                p.submit.push(end - self.call_start);
            }
        }
        out
    }

    fn submit(&mut self, due: f64, targets: Vec<u32>) -> Res<()> {
        let snapshot = self.snapshot_at(due);
        let kept = &mut self.rig.kept;
        let keep = (kept.len() < CHECKED_SNAPSHOTS && kept.iter().all(|k| k.snapshot != snapshot))
            .then(|| {
                kept.push(Kept {
                    snapshot,
                    targets: targets.clone(),
                    rows: None,
                });
                kept.len() - 1
            });
        let req = request(Some(&self.rig.snapshots[snapshot]), targets);
        let submitted = self.now();
        self.max_late = self.max_late.max(submitted - due);
        let ticket = self.call(true, |s| s.submit(req)).map_err(msg)?;
        self.submitted += 1;
        self.pending.insert(
            ticket.0,
            Pending {
                due,
                submitted,
                keep,
            },
        );
        self.collect();
        Ok(())
    }

    fn tick(&mut self) {
        self.call(false, |s| s.tick());
        self.next_tick = self.now() + TICK_SECS;
        self.collect();
    }

    fn collect(&mut self) {
        if self.rig.server.ready_len() == 0 {
            return;
        }
        let t0 = self.now();
        let responses = self.rig.server.drain_ready();
        let done = self.now();
        if let Some(p) = &mut self.probe {
            p.drain.push(done - t0);
        }
        for r in responses {
            let Some(req) = self.pending.remove(&r.ticket.0) else {
                self.misses += 1;
                continue;
            };
            match r.status {
                ScoreStatus::Served(rows) => {
                    self.latencies.push(done - req.due);
                    self.served += 1;
                    if let Some(p) = &mut self.probe {
                        p.queue_wait
                            .push((self.call_start - req.submitted).max(0.0));
                    }
                    if let Some(k) = req.keep {
                        self.rig.kept[k].rows = Some(rows);
                    }
                }
                _ => self.misses += 1,
            }
        }
    }

    fn idle_until(&self, t: f64) {
        let wait = t - self.now();
        if wait > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(wait));
        }
    }

    /// Open loop: requests are sent when due, whatever the server is doing;
    /// a request that falls due while the generator is inside a server call
    /// is sent as soon as the call returns and timed from its due time.
    /// Returns the backlog at the moment the last arrival was sent.
    fn open_loop(&mut self, ctx: &Ctx, due: &[f64], phase: u64) -> Res<usize> {
        let n_nodes = self.rig.snapshots[0].len();
        let last_due = due.last().copied().unwrap_or(0.0);
        let mut backlog_end = 0;
        let mut i = 0;
        loop {
            let now = self.now();
            if i < due.len() && due[i] <= now {
                let targets = inputs::targets(ctx.seed, phase, i as u64, n_nodes);
                self.submit(due[i], targets)?;
                i += 1;
                if i == due.len() {
                    backlog_end = self.pending.len();
                }
            } else if now >= self.next_tick {
                self.tick();
            } else if i == due.len() && (self.pending.is_empty() || now > last_due + GRACE_SECS) {
                break;
            } else {
                let next_due = due.get(i).copied().unwrap_or(f64::INFINITY);
                self.idle_until(next_due.min(self.next_tick));
            }
        }
        self.misses += self.pending.len() as u64;
        self.pending.clear();
        Ok(backlog_end)
    }

    /// Closed loop: `OUTSTANDING` requests in flight for `secs`; each
    /// answer releases the next request. Returns the requests served
    /// within `secs`.
    fn saturate(&mut self, ctx: &Ctx, secs: f64, phase: u64) -> Res<f64> {
        let n_nodes = self.rig.snapshots[0].len();
        let mut i = 0u64;
        loop {
            let now = self.now();
            if now >= secs {
                break;
            }
            if self.pending.len() < OUTSTANDING {
                self.submit(now, inputs::targets(ctx.seed, phase, i, n_nodes))?;
                i += 1;
            } else if now >= self.next_tick {
                self.tick();
            } else {
                self.idle_until(self.next_tick.min(secs));
            }
        }
        let served = self.served as f64;
        // Answer what is still queued, outside the measured interval.
        self.call(false, |s| s.drain());
        self.collect();
        self.misses += self.pending.len() as u64;
        self.pending.clear();
        Ok(served)
    }

    /// Closed loop of full batches on one snapshot: `MAX_BATCH` submits, the
    /// last of which flushes. Returns seconds per batch.
    fn batches(&mut self, ctx: &Ctx, secs: f64, phase: u64, min: usize) -> Res<Vec<f64>> {
        let n_nodes = self.rig.snapshots[0].len();
        let mut times = Vec::new();
        let mut i = 0u64;
        while self.now() < secs || times.len() < min {
            let t0 = self.now();
            for _ in 0..MAX_BATCH {
                // One snapshot for the whole batch, whatever the clock says.
                self.submit(t0, inputs::targets(ctx.seed, phase, i, n_nodes))?;
                i += 1;
            }
            times.push(self.now() - t0);
        }
        self.misses += self.pending.len() as u64;
        self.pending.clear();
        Ok(times)
    }
}

/// A latency percentile, seconds; a miss counts as slower than any answer.
fn latency_percentile(latencies: &[f64], misses: u64, p: f64) -> f64 {
    let mut all = sorted(latencies.to_vec());
    all.extend(std::iter::repeat_n(f64::INFINITY, misses as usize));
    percentile(&all, p)
}

/// A server and its first answer: the serve path's one-shot job. Returns
/// the server, warm, with the seconds from its creation to that answer.
fn start_server<'a>(model: &'a GnnModel, graph: &'a Graph) -> Res<(GnnServer<'a>, f64)> {
    let t = Instant::now();
    let mut server = new_server(serve_config(None, None), model, graph)?;
    server.submit(request(None, vec![0, 1, 2])).map_err(msg)?;
    // max_wait 1: the group flushes at the second tick.
    server.tick();
    server.tick();
    let served = server.drain_ready();
    let job = t.elapsed().as_secs_f64();
    match served.as_slice() {
        [r] if matches!(r.status, ScoreStatus::Served(_)) => Ok((server, job)),
        other => Err(format!(
            "cold start answered {} responses, not one Served",
            other.len()
        )),
    }
}

fn ms(samples: &[f64]) -> f64 {
    median_of(samples) * 1e3
}

struct StepResult {
    p50: f64,
    p90: f64,
    p99: f64,
    backlog_end: usize,
    /// Requests served per engine run.
    batch_size: f64,
    probe: Option<Probe>,
    max_late: f64,
    elapsed: f64,
}

/// One open-loop step of the traced pass at `rate` for `secs`.
fn open_loop_step(
    ctx: &Ctx,
    o: &mut Outcome,
    rig: &mut Rig<'_>,
    rate: f64,
    secs: f64,
) -> Res<StepResult> {
    let due = inputs::poisson_schedule(ctx.seed, 0, rate, secs);
    let (served, batches) = (rig.server.stats().served, rig.server.stats().batches);
    let mut c = Client::new(rig, true);
    let backlog_end = c.open_loop(ctx, &due, rate as u64)?;
    c.tally(o);
    let stats = c.rig.server.stats();
    Ok(StepResult {
        p50: latency_percentile(&c.latencies, c.misses, 0.5),
        p90: latency_percentile(&c.latencies, c.misses, 0.9),
        p99: latency_percentile(&c.latencies, c.misses, 0.99),
        backlog_end,
        batch_size: (stats.served - served) as f64 / (stats.batches - batches).max(1) as f64,
        max_late: c.max_late,
        elapsed: c.now(),
        probe: c.probe.take(),
    })
}

/// The highest rate whose 90th percentile meets the limit with no growing
/// backlog: fewer requests unanswered at the end of the schedule than the
/// server may hold and still answer each within the limit.
fn rate_ok(rate: f64, step: &StepResult) -> bool {
    step.p90 <= P90_LIMIT_SECS && (step.backlog_end as f64) <= rate * P90_LIMIT_SECS
}

pub fn run(ctx: &Ctx, traced: bool) -> Res<(Outcome, Recorder)> {
    let mut o = Outcome::default();
    let mut rec = Recorder::new();
    let (graph, model, kept) = if traced {
        let graph = inputs::graph(ctx.sizes.serve_nodes, DegreeSkew::In, ctx.seed);
        let model = inputs::model(ModelKind::Sage, ctx.seed);
        let mut rig = Rig {
            server: start_server(&model, &graph)?.0,
            snapshots: inputs::snapshots(&graph, ctx.seed, SNAPSHOT_POOL),
            kept: Vec::new(),
        };
        Client::new(&mut rig, false).batches(ctx, 0.0, 0, WARM_BATCHES)?;
        layer_pass(ctx, &mut o, &mut rec, &graph, &model, &mut rig)?;
        let kept = rig.kept;
        (graph, model, kept)
    } else {
        end_to_end_pass(ctx, &mut o)?
    };

    // Served rows against direct runs of the same snapshots, after the
    // timed phases.
    let snapshots = inputs::snapshots(&graph, ctx.seed, SNAPSHOT_POOL);
    let plan = direct_plan(&model, &graph)?;
    let mut compared = 0;
    let mut equal = true;
    for k in &kept {
        let Some(rows) = &k.rows else { continue };
        let direct = plan
            .run_with_features(&snapshots[k.snapshot])
            .map_err(msg)?;
        compared += 1;
        equal &= k.targets.iter().zip(rows.iter()).all(|(&v, row)| {
            let want = &direct.logits[v as usize];
            row.iter()
                .map(|x| x.to_bits())
                .eq(want.iter().map(|x| x.to_bits()))
        });
    }
    o.check(
        format!("served rows equal direct run_with_features rows ({compared} snapshots)"),
        equal && compared == CHECKED_SNAPSHOTS.min(kept.len()) && compared > 0,
    );
    Ok((o, rec))
}

/// The end-to-end pass, tracing off. As on the engine workloads the window
/// is cut into slices ([`cycles_for`]), each opened by a fresh set-up (inputs, a
/// new server, its first answer) and then split between the open-loop
/// step, closed-loop saturation and the batch loop, so that every metric
/// samples the whole window and a spell of a slower or faster host falls
/// on all of them alike. Returns the last slice's inputs and the answers
/// kept for the output check.
fn end_to_end_pass(ctx: &Ctx, o: &mut Outcome) -> Res<(Graph, GnnModel, Vec<Kept>)> {
    let mut setup = Vec::new();
    let mut job = Vec::new();
    let mut cycles = MIN_CYCLES as u64;
    let mut cycle = 0;
    let mut latencies = Vec::new();
    let mut late_misses = 0;
    let (mut sat_served, mut sat_secs) = (0.0, 0.0);
    let mut batch_secs = Vec::new();
    let mut kept = Vec::new();
    let mut last = None;
    while cycle < cycles {
        cycle += 1;
        let t0 = Instant::now();
        let graph = inputs::graph(ctx.sizes.serve_nodes, DegreeSkew::In, ctx.seed);
        let model = inputs::model(ModelKind::Sage, ctx.seed);
        {
            let (server, job_s) = start_server(&model, &graph)?;
            setup.push(t0.elapsed().as_secs_f64());
            job.push(job_s);
            o.op(true);
            if cycle == 1 {
                cycles = cycles_for(ctx.seconds, setup[0]) as u64;
            }
            let slice = ctx.seconds / cycles as f64;
            let mut rig = Rig {
                server,
                snapshots: inputs::snapshots(&graph, ctx.seed, SNAPSHOT_POOL),
                kept: std::mem::take(&mut kept),
            };
            Client::new(&mut rig, false).batches(ctx, 0.0, 0, WARM_BATCHES)?;

            let due = inputs::poisson_schedule(ctx.seed, cycle, GATE_RATE, 0.60 * slice);
            let mut c = Client::new(&mut rig, false);
            c.open_loop(ctx, &due, cycle)?;
            c.tally(o);
            latencies.append(&mut c.latencies);
            late_misses += c.misses;

            let mut c = Client::new(&mut rig, false);
            sat_served += c.saturate(ctx, 0.25 * slice, cycles + cycle)?;
            sat_secs += 0.25 * slice;
            c.tally(o);

            // The serve path's unit of work: one coalesced batch, one run.
            let mut c = Client::new(&mut rig, false);
            batch_secs.append(&mut c.batches(ctx, 0.15 * slice, 2 * cycles + cycle, 1)?);
            c.tally(o);
            kept = rig.kept;
        }
        last = Some((graph, model));
    }
    // Before the output check plans again: the peak is the workload's.
    o.set("peak_rss_mb", peak_rss_mb()?);
    o.set_median("setup_s", &setup);
    o.set_median("job_s", &job);
    o.set_median("run_s", &batch_secs);
    o.set(
        "lat_p50_ms",
        latency_percentile(&latencies, late_misses, 0.5) * 1e3,
    );
    o.set("sat_rps", sat_served / sat_secs);
    let (graph, model) = last.ok_or("no cycle ran")?;
    Ok((graph, model, kept))
}

/// The traced pass: three open-loop steps, saturation, the overload spike
/// and the batch loop with and without per-call timing.
fn layer_pass(
    ctx: &Ctx,
    o: &mut Outcome,
    rec: &mut Recorder,
    graph: &Graph,
    model: &GnnModel,
    rig: &mut Rig<'_>,
) -> Res<()> {
    let s = ctx.seconds;
    // What a cold server pays before its first answer, timed directly.
    let t = Instant::now();
    black_box(inputs::graph(
        ctx.sizes.serve_nodes,
        DegreeSkew::In,
        ctx.seed,
    ));
    o.set("graph.gen_s", t.elapsed().as_secs_f64());
    rec.push("graph.gen_s", t, Instant::now(), None, 0);
    o.set("graph.n_edges", graph.n_edges() as f64);
    let t = Instant::now();
    black_box(build_node_records(graph, &StrategyConfig::all(), WORKERS).map_err(msg)?);
    o.set("core.records_s", t.elapsed().as_secs_f64());
    rec.push("core.records_s", t, Instant::now(), None, 0);
    let t = Instant::now();
    let summary = direct_plan(model, graph)?.summary();
    o.set("core.plan_s", t.elapsed().as_secs_f64());
    rec.push("core.plan_s", t, Instant::now(), None, 0);
    o.set("core.records", summary.records as f64);
    o.set("core.mirrors", summary.mirrors as f64);
    o.set("core.hubs", summary.hubs as f64);

    let mut max_rate_ok = 0.0;
    let mut max_late: f64 = 0.0;
    for (run, rate) in RATES.into_iter().enumerate() {
        let phase_start = Instant::now();
        let step = open_loop_step(ctx, o, rig, rate, 0.2 * s)?;
        let root = rec.push(
            format!("serve.open_loop.r{rate}"),
            phase_start,
            phase_start + Duration::from_secs_f64(step.elapsed),
            None,
            run as u32 + 1,
        );
        let probe = step.probe.as_ref().ok_or("traced step kept no probe")?;
        for &(a, b) in &probe.flush_spans {
            rec.push(
                "serve.flush",
                phase_start + Duration::from_secs_f64(a),
                phase_start + Duration::from_secs_f64(b),
                Some(root),
                run as u32 + 1,
            );
        }
        if rate_ok(rate, &step) {
            max_rate_ok = rate;
        }
        max_late = max_late.max(step.max_late);
        o.set(format!("serve.batch_size.r{rate}"), step.batch_size);
        o.set(format!("serve.lat_p90_ms.r{rate}"), step.p90 * 1e3);
        if rate != GATE_RATE {
            o.set(format!("serve.lat_p50_ms.r{rate}"), step.p50 * 1e3);
        }
        if rate == PROBE_RATE {
            o.set("serve.submit_us", ms(&probe.submit) * 1e3);
            o.set("serve.flush_ms", ms(&probe.flush));
            o.set("serve.queue_wait_ms", ms(&probe.queue_wait));
            o.set("serve.drain_us", ms(&probe.drain) * 1e3);
            o.set(
                "serve.engine_busy_share",
                probe.flush_spans.iter().map(|(a, b)| b - a).sum::<f64>() / step.elapsed,
            );
        }
        if rate == RATES[2] {
            o.set("serve.lat_p99_ms.r150", step.p99 * 1e3);
            o.set("serve.backlog_end", step.backlog_end as f64);
        }
    }
    o.set("serve.max_rate_ok_rps", max_rate_ok);
    o.set("serve.gen_late_ms_max", max_late * 1e3);

    let mut c = Client::new(rig, true);
    c.saturate(ctx, 0.15 * s, 1)?;
    c.tally(o);

    // This benchmark's own tracing cost: the same batch loop with and
    // without the per-call clock reads.
    let min = ctx.pick(10, 3);
    let mut timed = Client::new(rig, true);
    let with = timed.batches(ctx, 0.075 * s, 2, min)?;
    timed.tally(o);
    let mut plain = Client::new(rig, false);
    let without = plain.batches(ctx, 0.075 * s, 3, min)?;
    plain.tally(o);
    o.set_median("run_s.traced", &with);
    o.set_median("run_s.untraced", &without);
    o.set("bench.span_overhead_ratio", ms(&with) / ms(&without));

    let stats = rig.server.stats();
    o.set("serve.batches", stats.batches as f64);
    o.set("serve.plans_built", stats.plans_built as f64);
    o.set("serve.plan_cache_hits", stats.plan_cache_hits as f64);
    o.check(
        "one plan serves every request (plan cache engaged)",
        stats.plans_built == 1 && stats.plan_cache_hits > 0,
    );
    o.check("no inbox pages through disk", stats.spilled_bytes == 0);

    overload(ctx, o, rec, graph, model, 0.1 * s)
}

/// The overload spike, tick-driven: most tenant requests are refused fresh
/// work and answered from the response cache, one request a tick expires.
fn overload(
    ctx: &Ctx,
    o: &mut Outcome,
    rec: &mut Recorder,
    graph: &Graph,
    model: &GnnModel,
    secs: f64,
) -> Res<()> {
    // The response cache holds a row per node, so a primed cache answers
    // every target.
    let cfg = serve_config(
        Some(RateLimitConfig::degrade(BUCKET, 1)),
        Some(graph.n_nodes()),
    );
    let mut server = new_server(cfg, model, graph)?;
    server.submit(request(None, Vec::new())).map_err(msg)?;
    server.tick();
    server.tick();
    o.check(
        "a fresh full-graph run primes the response cache",
        server.drain_ready().len() == 1,
    );

    let start = Instant::now();
    let mut degraded = Vec::new();
    let mut submitted = 0u64;
    let mut resolved = 0u64;
    let mut unexpected = 0u64;
    let mut i = 0u64;
    // Every terminal status but these two is an answer this phase expects.
    let is_unexpected =
        |r: &ScoreResponse| matches!(r.status, ScoreStatus::Failed(_) | ScoreStatus::Shed);
    while start.elapsed().as_secs_f64() < secs || i < 3 {
        for _ in 0..SPIKE {
            let targets = inputs::targets(ctx.seed, 9, i, graph.n_nodes());
            i += 1;
            let ready = server.ready_len();
            let t = Instant::now();
            server
                .submit(request(None, targets).with_tenant(SPIKE_TENANT))
                .map_err(msg)?;
            // Resolved inside the submit: the degraded path.
            if server.ready_len() > ready {
                degraded.push(t.elapsed().as_secs_f64());
            }
        }
        server
            .submit(request(None, vec![9]).with_deadline(0))
            .map_err(msg)?;
        submitted += SPIKE as u64 + 1;
        server.tick();
        let done = server.drain_ready();
        resolved += done.len() as u64;
        unexpected += done.iter().filter(|r| is_unexpected(r)).count() as u64;
    }
    let elapsed = start.elapsed().as_secs_f64();
    rec.push("serve.overload", start, Instant::now(), None, 9);
    let in_window = resolved;
    server.drain();
    let done = server.drain_ready();
    resolved += done.len() as u64;
    unexpected += done.iter().filter(|r| is_unexpected(r)).count() as u64;
    o.attempted += submitted;
    o.failed += unexpected + (submitted - resolved);
    o.check(
        "overload resolves every request, it never drops one",
        resolved == submitted,
    );
    let stats = server.stats().overload;
    o.check(
        "the degraded path serves stale rows (served_stale > 0)",
        stats.served_stale > 0,
    );
    o.check(
        "deadline expiry engages (deadline_exceeded > 0)",
        stats.deadline_exceeded > 0,
    );
    o.set("serve.overload_rps", in_window as f64 / elapsed);
    o.set(
        "serve.stale_share",
        stats.served_stale as f64 / submitted as f64,
    );
    o.set("serve.throttled", stats.throttled as f64);
    o.set("serve.deadline_exceeded", stats.deadline_exceeded as f64);
    o.set("serve.degraded_submit_us", ms(&degraded) * 1e3);
    Ok(())
}
