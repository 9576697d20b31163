//! The four engine workloads: plan once, run many, through the public
//! session API only.

use crate::inputs::{self, EngineCfg, ModelKind, DEGREE, WORKERS};
use crate::outcome::{
    cycles_for, logits_hash, max_abs_diff, msg, peak_rss_mb, Ctx, Outcome, Res, MIN_CYCLES,
};
use crate::probe::{CodecProbe, TimedTransport};
use crate::spans::{self, Recorder};
use crate::stats::{median, median_of, sorted};
use inferturbo_cluster::{
    ColsShards, DestShards, Exchange, InProcess, RunReport, Transport, WorkerProcess,
};
use inferturbo_core::models::{matvec_acc, GnnModel};
use inferturbo_core::session::{Backend, InferenceSession};
use inferturbo_core::strategy::{build_node_records, StrategyConfig};
use inferturbo_core::{GasLayer, InferenceOutput, InferencePlan};
use inferturbo_graph::gen::DegreeSkew;
use inferturbo_graph::Graph;
use inferturbo_obs::TraceHandle;
use inferturbo_tensor::{row_axpy, Matrix};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// The suites' documented tolerance against `Backend::Reference`.
const REFERENCE_TOLERANCE: f64 = 1e-3;

fn base_transport(cfg: EngineCfg, ctx: &Ctx) -> Arc<dyn Transport> {
    if cfg.xproc {
        Arc::new(WorkerProcess::with_bin(ctx.worker_bin.clone()))
    } else {
        Arc::new(InProcess)
    }
}

/// Every knob explicit, so no `INFERTURBO_*` variable reaches the plan.
fn plan_with<'a>(
    model: &'a GnnModel,
    graph: &'a Graph,
    cfg: EngineCfg,
    ctx: &Ctx,
    transport: Arc<dyn Transport>,
    trace: TraceHandle,
) -> Res<InferencePlan<'a>> {
    let mut b = InferenceSession::builder()
        .model(model)
        .graph(graph)
        .workers(WORKERS)
        .strategy(StrategyConfig::all())
        .backend(cfg.backend)
        .trace(trace)
        .transport(transport);
    if cfg.spill {
        b = b
            .spill_budget(ctx.sizes.spill_budget)
            .spill_dir(ctx.out_dir.join("spill"));
    }
    b.plan().map_err(msg)
}

fn plan_for<'a>(
    model: &'a GnnModel,
    graph: &'a Graph,
    cfg: EngineCfg,
    ctx: &Ctx,
) -> Res<InferencePlan<'a>> {
    plan_with(
        model,
        graph,
        cfg,
        ctx,
        base_transport(cfg, ctx),
        TraceHandle::disabled(),
    )
}

fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The end-to-end pass: tracing off, nothing between the clock and the
/// public calls.
///
/// The window is cut into equal slices ([`cycles_for`]). Each slice opens
/// with a fresh set-up — inputs, plan, first run: the one-shot job, which
/// also warms the plan — and then re-runs that plan until the slice ends.
/// Set-ups and warm runs are
/// thereby both spread over the whole window, so a spell of a slower or
/// faster host falls on every metric alike instead of on whichever phase
/// happened to run during it; and only one plan is alive at a time, so the
/// peak resident set is one job's.
pub fn run_untraced(ctx: &Ctx, cfg: EngineCfg) -> Res<Outcome> {
    let mut o = Outcome::default();
    let mut setup = Vec::new();
    let mut job = Vec::new();
    let mut runs = Vec::new();
    let mut cycles = MIN_CYCLES;
    let mut cycle = 0;
    let mut first_hash = None;
    let mut repeat_ok = true;
    let mut last = None;
    let window = Instant::now();
    while cycle < cycles {
        cycle += 1;
        let t0 = Instant::now();
        let graph = inputs::graph(ctx.sizes.engine_nodes, cfg.skew, ctx.seed);
        let model = inputs::model(cfg.model, ctx.seed);
        let first = {
            let t_job = Instant::now();
            // On the process transport this spawns the worker children,
            // and dropping the plan at the end of the slice reaps them.
            let plan = plan_for(&model, &graph, cfg, ctx)?;
            let first = plan.run().map_err(msg)?;
            job.push(secs_since(t_job));
            setup.push(secs_since(t0));
            if cycle == 1 {
                cycles = cycles_for(ctx.seconds, setup[0]);
            }
            let hash = *first_hash.get_or_insert_with(|| logits_hash(&first.logits));
            let mut run_once = |o: &mut Outcome| -> Res<f64> {
                let t = Instant::now();
                let out = plan.run().map_err(msg)?;
                let dt = secs_since(t);
                let same = logits_hash(&out.logits) == hash;
                repeat_ok &= same;
                o.op(same);
                Ok(dt)
            };
            o.op(logits_hash(&first.logits) == hash);
            let slice_end = ctx.seconds * cycle as f64 / cycles as f64;
            let mut in_slice = 0;
            while secs_since(window) < slice_end || in_slice == 0 {
                runs.push(run_once(&mut o)?);
                in_slice += 1;
            }
            if cycle == cycles {
                check_engagement(&mut o, cfg, &graph, &plan, &first.report);
            }
            first
        };
        last = Some((graph, model, first));
    }
    // Before the checks below build more plans: the peak is the workload's.
    o.set("peak_rss_mb", peak_rss_mb()?);
    o.set_median("setup_s", &setup);
    o.set_median("job_s", &job);
    o.set_median("run_s", &runs);
    // One client, one full-graph request at a time: a request's latency
    // is its run, and saturation is back-to-back runs.
    let runs_sorted = sorted(runs);
    o.set("lat_p50_ms", median(&runs_sorted) * 1e3);
    o.set(
        "sat_rps",
        runs_sorted.len() as f64 / runs_sorted.iter().sum::<f64>(),
    );

    o.check(
        "every repeated run is bit-identical to the first",
        repeat_ok,
    );
    let (graph, model, first) = last.ok_or("no cycle ran")?;
    check_outputs(&mut o, ctx, cfg, &graph, &model, &first)?;
    Ok(o)
}

/// Output checks that need another plan: the single-machine reference,
/// and for the process-transport workload the in-process run it must equal
/// bit for bit.
fn check_outputs(
    o: &mut Outcome,
    ctx: &Ctx,
    cfg: EngineCfg,
    graph: &Graph,
    model: &GnnModel,
    first: &InferenceOutput,
) -> Res<()> {
    let reference = InferenceSession::builder()
        .model(model)
        .graph(graph)
        .backend(Backend::Reference)
        .trace(TraceHandle::disabled())
        .plan()
        .map_err(msg)?
        .run()
        .map_err(msg)?;
    let diff = max_abs_diff(&first.logits, &reference.logits);
    o.check(
        format!("logits within {REFERENCE_TOLERANCE} of Backend::Reference (max diff {diff:e})"),
        diff <= REFERENCE_TOLERANCE,
    );
    if cfg.xproc || cfg.spill {
        let plain = EngineCfg {
            xproc: false,
            spill: false,
            ..cfg
        };
        let out = plan_for(model, graph, plain, ctx)?.run().map_err(msg)?;
        o.check(
            "bit-identical to the in-process, unspilled run of the same inputs",
            logits_hash(&out.logits) == logits_hash(&first.logits),
        );
    }
    Ok(())
}

/// Engagement asserts: a workload must keep exercising its layer.
fn check_engagement(
    o: &mut Outcome,
    cfg: EngineCfg,
    graph: &Graph,
    plan: &InferencePlan<'_>,
    report: &RunReport,
) {
    let summary = plan.summary();
    if cfg.skew == DegreeSkew::Out {
        o.check(
            "out-degree hubs are classified (hubs > 0)",
            summary.hubs > 0,
        );
        o.check("hubs are mirrored (mirrors > 0)", summary.mirrors > 0);
        o.check(
            "the legacy message plane carries bytes",
            report.message_bytes.legacy > 0,
        );
    }
    if cfg.model == ModelKind::Sage {
        // Fusion: fewer columnar bytes than one materialized row per edge.
        let per_edge_rows: u64 = plan
            .estimate()
            .layers
            .iter()
            .map(|l| (graph.n_edges() * l.msg_dim * 4) as u64)
            .sum();
        o.check(
            "columnar bytes stay below E*d*4 per layer (partial-gather fuses)",
            report.message_bytes.columnar > 0 && report.message_bytes.columnar < per_edge_rows,
        );
    }
    o.check(
        "inboxes page through disk exactly when the workload spills",
        (report.spilled_bytes > 0) == cfg.spill,
    );
    o.check(
        "bytes cross a process boundary exactly on the process transport",
        (report.wire_bytes > 0) == cfg.xproc,
    );
}

/// Span names of one backend's run: compute between exchanges, the
/// exchanges themselves, and what follows the last one.
struct Naming {
    compute: &'static str,
    exchange: &'static str,
    tail: &'static str,
}

fn naming(cfg: EngineCfg) -> Naming {
    match (cfg.backend, cfg.xproc) {
        (Backend::MapReduce, _) => Naming {
            compute: "batch.compute_s.seg",
            exchange: "batch.shuffle_s.seg",
            tail: "batch.tail_s",
        },
        (_, true) => Naming {
            compute: "pregel.compute_s.step",
            exchange: "transport.exchange_s.step",
            tail: "pregel.tail_s",
        },
        (_, false) => Naming {
            compute: "pregel.compute_s.step",
            exchange: "rows.merge_s.step",
            tail: "pregel.tail_s",
        },
    }
}

/// Steps are reported as K in 0..=2; a deeper model folds into the last.
const STEPS: usize = 3;

/// Per-run durations by span name, one sample a run.
#[derive(Default)]
struct StepSamples {
    compute: [Vec<f64>; STEPS],
    exchange: [Vec<f64>; STEPS],
    tail: Vec<f64>,
    run: Vec<f64>,
}

/// One traced run: the run span, and under it compute / exchange / tail
/// spans cut at the exchanges the wrapper saw.
fn traced_run(
    rec: &mut Recorder,
    samples: &mut StepSamples,
    names: &Naming,
    plan: &InferencePlan<'_>,
    timed: &TimedTransport,
    run_id: u32,
) -> Res<InferenceOutput> {
    timed.take();
    let start = Instant::now();
    let out = plan.run().map_err(msg)?;
    let end = Instant::now();
    let exchanges = timed.take();
    let root = rec.push("run", start, end, None, run_id);
    let mut compute = [0.0; STEPS];
    let mut exchange = [0.0; STEPS];
    let mut cursor = start;
    for (i, ex) in exchanges.iter().enumerate() {
        let k = i.min(STEPS - 1);
        rec.push(
            format!("{}{k}", names.compute),
            cursor,
            ex.start,
            Some(root),
            run_id,
        );
        rec.push(
            format!("{}{k}", names.exchange),
            ex.start,
            ex.end,
            Some(root),
            run_id,
        );
        compute[k] += (ex.start - cursor).as_secs_f64();
        exchange[k] += (ex.end - ex.start).as_secs_f64();
        cursor = ex.end;
    }
    rec.push(names.tail, cursor, end, Some(root), run_id);
    for k in 0..STEPS {
        samples.compute[k].push(compute[k]);
        samples.exchange[k].push(exchange[k]);
    }
    samples.tail.push((end - cursor).as_secs_f64());
    samples.run.push((end - start).as_secs_f64());
    Ok(out)
}

/// Median wall time of `n` runs of a plan.
fn median_run(plan: &InferencePlan<'_>, n: usize) -> Res<f64> {
    let mut t = Vec::with_capacity(n);
    for _ in 0..n {
        let t0 = Instant::now();
        black_box(plan.run().map_err(msg)?);
        t.push(secs_since(t0));
    }
    Ok(median_of(&t))
}

/// The traced pass: per-layer metrics from spans recorded around public
/// calls, plus the auxiliary runs that price single mechanisms.
pub fn run_traced(ctx: &Ctx, cfg: EngineCfg) -> Res<(Outcome, Recorder)> {
    let mut o = Outcome::default();
    let mut rec = Recorder::new();
    let names = naming(cfg);
    let pregel = cfg.backend == Backend::Pregel;

    let t = Instant::now();
    let graph = inputs::graph(ctx.sizes.engine_nodes, cfg.skew, ctx.seed);
    rec.push("graph.gen_s", t, Instant::now(), None, 0);
    o.set("graph.gen_s", secs_since(t));
    o.set("graph.n_edges", graph.n_edges() as f64);
    let model = inputs::model(cfg.model, ctx.seed);

    // Planning's dominant step, timed directly; `plan()` repeats it inside.
    let t = Instant::now();
    black_box(build_node_records(&graph, &StrategyConfig::all(), WORKERS).map_err(msg)?);
    rec.push("core.records_s", t, Instant::now(), None, 0);
    o.set("core.records_s", secs_since(t));

    let timed = Arc::new(TimedTransport::new(base_transport(cfg, ctx)));
    let t = Instant::now();
    let plan = plan_with(
        &model,
        &graph,
        cfg,
        ctx,
        Arc::clone(&timed) as Arc<dyn Transport>,
        TraceHandle::disabled(),
    )?;
    rec.push("core.plan_s", t, Instant::now(), None, 0);
    o.set("core.plan_s", secs_since(t));
    let summary = plan.summary();
    o.set("core.records", summary.records as f64);
    o.set("core.mirrors", summary.mirrors as f64);
    o.set("core.hubs", summary.hubs as f64);

    // The first run pays what warm runs do not: scratch allocation, and
    // on the process transport the worker children's spawn.
    let mut first_samples = StepSamples::default();
    let first = traced_run(&mut rec, &mut first_samples, &names, &plan, &timed, 0)?;
    o.op(true);
    let first_hash = logits_hash(&first.logits);

    // Traced and untraced runs alternate, so drift on the host falls on
    // both sides of the overhead ratio.
    let plain = plan_for(&model, &graph, cfg, ctx)?;
    plain.run().map_err(msg)?;
    let min_runs = ctx.pick(10, 3);
    let mut samples = StepSamples::default();
    let mut untraced = Vec::new();
    let mut last = first;
    let mut repeat_ok = true;
    let window = Instant::now();
    while samples.run.len() < min_runs || secs_since(window) < ctx.seconds / 2.0 {
        let run_id = samples.run.len() as u32 + 1;
        last = traced_run(&mut rec, &mut samples, &names, &plan, &timed, run_id)?;
        let same = logits_hash(&last.logits) == first_hash;
        repeat_ok &= same;
        o.op(same);
        let t = Instant::now();
        black_box(plain.run().map_err(msg)?);
        untraced.push(secs_since(t));
    }
    o.check("every traced run is bit-identical to the first", repeat_ok);
    let self_times = spans::self_times(rec.spans());
    let unaccounted: f64 = rec
        .spans()
        .iter()
        .zip(&self_times)
        .filter(|(s, _)| s.name == "run")
        .map(|(s, st)| st / (s.end - s.start))
        .fold(0.0, f64::max);
    o.check(
        "compute + exchange + tail self times account for each run span within 2%",
        unaccounted <= 0.02,
    );

    let run_s = median_of(&samples.run);
    for k in 0..STEPS {
        o.set_median(format!("{}{k}", names.compute), &samples.compute[k]);
        if cfg.backend != Backend::MapReduce {
            o.set_median(format!("{}{k}", names.exchange), &samples.exchange[k]);
        }
    }
    o.set_median(names.tail, &samples.tail);
    let exchange_s: f64 = samples.exchange.iter().map(|s| median_of(s)).sum();
    let compute_s: f64 = samples.compute.iter().map(|s| median_of(s)).sum();
    if pregel {
        o.set("pregel.compute_share", compute_s / run_s);
        o.set(
            "pregel.first_run_extra_s",
            (first_samples.run[0] - run_s).max(0.0),
        );
    } else {
        o.set("batch.shuffle_s", exchange_s);
    }
    o.set_median("run_s.traced", &samples.run);
    o.set_median("run_s.untraced", &untraced);
    let untraced_s = median_of(&untraced);
    o.set("bench.span_overhead_ratio", run_s / untraced_s);

    // Counts, from the report of the last traced run.
    let report = &last.report;
    let workers = report.phases.iter().flat_map(|p| &p.per_worker);
    let flops: f64 = workers.clone().map(|w| w.flops).sum();
    let records_out: u64 = workers.map(|w| w.records_out).sum();
    let (cols, legacy) = (report.message_bytes.columnar, report.message_bytes.legacy);
    if pregel {
        o.set("pregel.flops", flops);
        o.set("pregel.records_out", records_out as f64);
        o.set("rows.msg_bytes_columnar", cols as f64);
        o.set("rows.msg_bytes_legacy", legacy as f64);
    } else {
        o.set("batch.records_out", records_out as f64);
        o.set("batch.msg_bytes_columnar", cols as f64);
        o.set("batch.msg_bytes_legacy", legacy as f64);
    }
    let edge_messages = (graph.n_edges() * inputs::LAYERS) as f64;
    o.set(
        "rows.bytes_per_edge",
        report.message_bytes.total() as f64 / edge_messages,
    );
    o.set("rows.spilled_bytes", report.spilled_bytes as f64);
    o.set("transport.wire_bytes", report.wire_bytes as f64);
    let estimate = plan.estimate();
    let predicted = match cfg.backend {
        Backend::MapReduce => estimate.mapreduce_total_bytes(),
        _ => estimate.pregel_total_bytes(),
    };
    o.set(
        "core.est_bytes_ratio",
        predicted as f64 / report.message_bytes.total().max(1) as f64,
    );
    check_engagement(&mut o, cfg, &graph, &plan, report);
    o.check(
        "no pregel span on the MapReduce backend, no batch span on Pregel",
        rec.spans().iter().all(|s| {
            if pregel {
                !s.name.starts_with("batch.")
            } else {
                !s.name.starts_with("pregel.")
            }
        }),
    );

    // The single-machine baseline the distributed run is held against.
    let reference = InferenceSession::builder()
        .model(&model)
        .graph(&graph)
        .backend(Backend::Reference)
        .trace(TraceHandle::disabled())
        .plan()
        .map_err(msg)?;
    let aux_runs = ctx.pick(5, 2);
    let reference_s = median_run(&reference, aux_runs)?;
    o.set("core.reference_run_s", reference_s);
    o.set("core.overhead_ratio", untraced_s / reference_s);

    if cfg.xproc {
        transport_aux(&mut o, ctx, cfg, &graph, &model, aux_runs, exchange_s)?;
        o.set(
            "transport.wire_mb_per_s",
            report.wire_bytes as f64 / 1e6 / exchange_s,
        );
        o.set("transport.spawn_s", spawn_secs(ctx)?);
    }
    tensor_floors(&mut o, &graph, &model, cfg, untraced_s);
    if pregel && !cfg.xproc && cfg.model == ModelKind::Sage {
        recorder_overhead(&mut o, ctx, cfg, &graph, &model, aux_runs, untraced_s)?;
        drop((plan, plain, reference));
        scale_ladder(&mut o, ctx, cfg)?;
    }
    Ok((o, rec))
}

/// What the process transport and the spill each cost on their own, and
/// where the process transport's time goes: auxiliary runs of the same
/// inputs with one mechanism at a time.
fn transport_aux(
    o: &mut Outcome,
    ctx: &Ctx,
    cfg: EngineCfg,
    graph: &Graph,
    model: &GnnModel,
    runs: usize,
    exchange_s: f64,
) -> Res<()> {
    let with = |xproc, spill| EngineCfg {
        xproc,
        spill,
        ..cfg
    };
    let plain_s = median_run(&plan_for(model, graph, with(false, false), ctx)?, runs)?;
    let spill_s = median_run(&plan_for(model, graph, with(false, true), ctx)?, runs)?;
    let xproc_s = median_run(&plan_for(model, graph, with(true, false), ctx)?, runs)?;
    o.set("rows.spill_tax_s", spill_s - plain_s);
    o.set("transport.xproc_tax_s", xproc_s - plain_s);

    let probe = Arc::new(CodecProbe::default());
    let plan = plan_with(
        model,
        graph,
        with(false, false),
        ctx,
        Arc::clone(&probe) as Arc<dyn Transport>,
        TraceHandle::disabled(),
    )?;
    plan.run().map_err(msg)?;
    probe.take();
    let (mut enc, mut merge, mut dec) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..runs {
        plan.run().map_err(msg)?;
        let secs = probe.take();
        enc.push(secs.encode);
        merge.push(secs.child_merge);
        dec.push(secs.decode);
    }
    let (enc, merge, dec) = (median_of(&enc), median_of(&merge), median_of(&dec));
    o.set("transport.encode_s", enc);
    o.set("transport.child_merge_s", merge);
    o.set("transport.decode_s", dec);
    o.set(
        "transport.pipe_s",
        (exchange_s - enc - merge - dec).max(0.0),
    );
    Ok(())
}

/// What a worker child costs to start: on a fresh process transport, the
/// first round trip of an empty legacy plane (spawn + pipe) minus the second
/// (pipe only).
fn spawn_secs(ctx: &Ctx) -> Res<f64> {
    let transport = WorkerProcess::with_bin(ctx.worker_bin.clone());
    let round_trip = || -> Res<f64> {
        let t = Instant::now();
        transport
            .exchange(Exchange {
                step: 0,
                faults: None,
                spill: None,
                dests: vec![DestShards {
                    n_slots: 1,
                    cols: ColsShards::None,
                    legacy: Some(Vec::new()),
                }],
            })
            .map_err(msg)?;
        Ok(secs_since(t))
    };
    let first = round_trip()?;
    Ok((first - round_trip()?).max(0.0))
}

/// Kernel floors: the dense apply (`matvec_acc`) and the message fold
/// (`row_axpy`) replayed at the run's call counts and shapes, with nothing
/// around them. Their share of `run_s` is the ceiling on what a faster
/// kernel can buy.
fn tensor_floors(o: &mut Outcome, graph: &Graph, model: &GnnModel, cfg: EngineCfg, run_s: f64) {
    let n = graph.n_nodes();
    // GraphSAGE applies a neighbour and a self weight per node and layer,
    // GAT one projection; both end in the classifier head.
    let per_layer = match cfg.model {
        ModelKind::Sage => 2,
        ModelKind::Gat => 1,
    };
    let mut shapes: Vec<(usize, usize, usize)> = (0..model.n_layers())
        .map(|l| {
            let a = model.layer_view(l).annotations();
            (a.in_dim, a.out_dim, per_layer)
        })
        .collect();
    shapes.push((inputs::HIDDEN, inputs::CLASSES, 1));
    let t = Instant::now();
    for (din, dout, calls) in shapes {
        let w = Matrix::from_fn(din, dout, |r, c| {
            ((r * 31 + c * 17) % 13) as f32 * 0.01 - 0.06
        });
        let x: Vec<f32> = (0..din).map(|i| (i % 7) as f32 * 0.1 + 0.05).collect();
        let mut out = vec![0.0f32; dout];
        for _ in 0..n * calls {
            matvec_acc(&w, black_box(&x), &mut out);
        }
        black_box(&out);
    }
    let apply = secs_since(t);

    // One fold per edge and layer, rows gathered and accumulated by the
    // graph's own endpoints, so the access pattern is the run's.
    let t = Instant::now();
    for l in 0..model.n_layers() {
        let d = model.layer_view(l).annotations().msg_dim;
        let h = Matrix::from_fn(n, d, |r, c| ((r + c) % 11) as f32 * 0.1);
        let mut acc = vec![0.0f32; n * d];
        for (&src, &dst) in graph.src().iter().zip(graph.dst()) {
            let dst = dst as usize;
            row_axpy(&mut acc[dst * d..(dst + 1) * d], h.row(src as usize), 1.0);
        }
        black_box(&acc);
    }
    let fold = secs_since(t);
    o.set("tensor.apply_floor_s", apply);
    o.set("tensor.fold_floor_s", fold);
    o.set("tensor.kernel_share", (apply + fold) / run_s);
}

/// The flight recorder's enabled-path cost on the default configuration.
fn recorder_overhead(
    o: &mut Outcome,
    ctx: &Ctx,
    cfg: EngineCfg,
    graph: &Graph,
    model: &GnnModel,
    runs: usize,
    untraced_s: f64,
) -> Res<()> {
    let trace = TraceHandle::recording();
    let plan = plan_with(
        model,
        graph,
        cfg,
        ctx,
        base_transport(cfg, ctx),
        trace.clone(),
    )?;
    plan.run().map_err(msg)?;
    trace.take_events();
    let mut t = Vec::with_capacity(runs);
    let mut events = 0;
    for _ in 0..runs {
        let t0 = Instant::now();
        black_box(plan.run().map_err(msg)?);
        t.push(secs_since(t0));
        events = trace.take_events().len();
    }
    o.check("the recording sink captures events", events > 0);
    o.set("obs.trace_overhead_ratio", median_of(&t) / untraced_s);
    o.set("obs.events_per_run", events as f64);
    Ok(())
}

/// Cost per edge as the graph leaves the caches: the default configuration
/// at three sizes, smallest first, so the last sets the process's peak.
fn scale_ladder(o: &mut Outcome, ctx: &Ctx, cfg: EngineCfg) -> Res<()> {
    for (nodes, label) in ctx.sizes.ladder.into_iter().zip(["5k", "50k", "500k"]) {
        let graph = inputs::graph(nodes, cfg.skew, ctx.seed);
        let model = inputs::model(cfg.model, ctx.seed);
        let edges = (nodes * DEGREE) as f64;
        let t = Instant::now();
        let plan = plan_for(&model, &graph, cfg, ctx)?;
        o.set(
            format!("scale.plan_ns_per_edge.{label}"),
            secs_since(t) * 1e9 / edges,
        );
        plan.run().map_err(msg)?;
        o.set(
            format!("scale.run_ns_per_edge.{label}"),
            median_run(&plan, 3)? * 1e9 / edges,
        );
    }
    o.set("scale.rss_mb.500k", peak_rss_mb()?);
    Ok(())
}
