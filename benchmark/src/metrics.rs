//! Every workload and metric this benchmark reports, by name.
//!
//! This table is the one definition: a run prints exactly these names,
//! `compare` applies exactly these bounds, and `BENCHMARK.json` at the root
//! of the repository is this table rendered (a unit test keeps the two
//! equal). `benchmark/README.md` is the glossary: what each name measures,
//! its layer, and which end-to-end metric it should move on which workload.

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression; 0 for layer metrics,
    /// which carry no bound.
    pub bound: f64,
}

const fn def(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    def(name, unit, Better::Lower, 0.0)
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    def(name, unit, Better::Higher, 0.0)
}

/// How long one run measures, seconds (the driver passes it as `--seconds`).
pub const RUN_SECONDS: u32 = 22;

pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "pregel_sage_inhub",
        "default path: fused columnar plane + partial-gather on in-degree hubs; pregel compute, rows merge and tensor do the work, batch, frame codec, spill and serve do none",
    ),
    (
        "pregel_gat_outhub",
        "attention cannot partial-gather, so rows materialize O(E*d); out-degree hubs engage broadcast, shadow nodes and the legacy message plane",
    ),
    (
        "mapreduce_sage_inhub",
        "same inputs as pregel_sage_inhub on the MapReduce backend: batch does the work, pregel none; pins the backend gap",
    ),
    (
        "pregel_sage_xproc_spill",
        "same inputs as pregel_sage_inhub with every shard crossing a pipe to a worker process and every inbox paging through disk: transport codec and spill I/O",
    ),
    (
        "serve_open_loop",
        "GnnServer queueing and batching under Poisson arrivals, closed-loop saturation and a rate-limited overload spike: the serve layer no engine workload touches",
    ),
];

/// Metrics a user of the system sees, measured with tracing off. Every
/// workload reports every one; the README states what each reads on the
/// engine workloads and on the serve workload.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s", Better::Lower, 0.25),
    def("job_s", "s", Better::Lower, 0.25),
    def("run_s", "s", Better::Lower, 0.25),
    def("peak_rss_mb", "MB", Better::Lower, 0.10),
    def("lat_p50_ms", "ms", Better::Lower, 0.25),
    def("sat_rps", "1/s", Better::Higher, 0.25),
];

/// Metrics of single layers, measured in the traced pass. A layer that does
/// no work on a workload reports 0 there: those are the predicted no-move
/// cells.
pub const PER_LAYER: &[MetricDef] = &[
    // graph
    lower("graph.gen_s", "s"),
    higher("graph.n_edges", "count"),
    // core
    lower("core.plan_s", "s"),
    lower("core.records_s", "s"),
    lower("core.records", "count"),
    lower("core.mirrors", "count"),
    lower("core.hubs", "count"),
    lower("core.est_bytes_ratio", "ratio"),
    lower("core.reference_run_s", "s"),
    lower("core.overhead_ratio", "ratio"),
    // pregel
    lower("pregel.compute_s.step0", "s"),
    lower("pregel.compute_s.step1", "s"),
    lower("pregel.compute_s.step2", "s"),
    lower("pregel.tail_s", "s"),
    higher("pregel.compute_share", "ratio"),
    lower("pregel.first_run_extra_s", "s"),
    lower("pregel.flops", "count"),
    lower("pregel.records_out", "count"),
    // batch
    lower("batch.compute_s.seg0", "s"),
    lower("batch.compute_s.seg1", "s"),
    lower("batch.compute_s.seg2", "s"),
    lower("batch.tail_s", "s"),
    lower("batch.shuffle_s", "s"),
    lower("batch.records_out", "count"),
    lower("batch.msg_bytes_columnar", "B"),
    lower("batch.msg_bytes_legacy", "B"),
    // common.rows
    lower("rows.merge_s.step0", "s"),
    lower("rows.merge_s.step1", "s"),
    lower("rows.merge_s.step2", "s"),
    lower("rows.msg_bytes_columnar", "B"),
    lower("rows.msg_bytes_legacy", "B"),
    lower("rows.bytes_per_edge", "B"),
    lower("rows.spilled_bytes", "B"),
    lower("rows.spill_tax_s", "s"),
    // cluster.transport
    lower("transport.exchange_s.step0", "s"),
    lower("transport.exchange_s.step1", "s"),
    lower("transport.exchange_s.step2", "s"),
    lower("transport.encode_s", "s"),
    lower("transport.child_merge_s", "s"),
    lower("transport.decode_s", "s"),
    lower("transport.pipe_s", "s"),
    lower("transport.wire_bytes", "B"),
    higher("transport.wire_mb_per_s", "MB/s"),
    lower("transport.xproc_tax_s", "s"),
    lower("transport.spawn_s", "s"),
    // tensor
    lower("tensor.apply_floor_s", "s"),
    lower("tensor.fold_floor_s", "s"),
    higher("tensor.kernel_share", "ratio"),
    // obs, and this benchmark's own tracing
    lower("obs.trace_overhead_ratio", "ratio"),
    lower("obs.events_per_run", "count"),
    lower("bench.span_overhead_ratio", "ratio"),
    // serve
    lower("serve.submit_us", "us"),
    lower("serve.flush_ms", "ms"),
    lower("serve.queue_wait_ms", "ms"),
    lower("serve.drain_us", "us"),
    lower("serve.engine_busy_share", "ratio"),
    higher("serve.batch_size.r10", "count"),
    higher("serve.batch_size.r50", "count"),
    higher("serve.batch_size.r150", "count"),
    lower("serve.lat_p50_ms.r50", "ms"),
    lower("serve.lat_p50_ms.r150", "ms"),
    lower("serve.lat_p90_ms.r10", "ms"),
    lower("serve.lat_p90_ms.r50", "ms"),
    lower("serve.lat_p90_ms.r150", "ms"),
    lower("serve.lat_p99_ms.r150", "ms"),
    higher("serve.max_rate_ok_rps", "1/s"),
    lower("serve.backlog_end", "count"),
    lower("serve.gen_late_ms_max", "ms"),
    lower("serve.batches", "count"),
    lower("serve.plans_built", "count"),
    higher("serve.plan_cache_hits", "count"),
    higher("serve.overload_rps", "1/s"),
    higher("serve.stale_share", "ratio"),
    lower("serve.throttled", "count"),
    lower("serve.deadline_exceeded", "count"),
    lower("serve.degraded_submit_us", "us"),
    // scale: the pregel_sage_inhub configuration on a size ladder
    lower("scale.run_ns_per_edge.5k", "ns"),
    lower("scale.run_ns_per_edge.50k", "ns"),
    lower("scale.run_ns_per_edge.500k", "ns"),
    lower("scale.plan_ns_per_edge.5k", "ns"),
    lower("scale.plan_ns_per_edge.50k", "ns"),
    lower("scale.plan_ns_per_edge.500k", "ns"),
    lower("scale.rss_mb.500k", "MB"),
];

pub fn workload_known(name: &str) -> bool {
    WORKLOADS.iter().any(|(w, _)| *w == name)
}

fn metric_json(m: &MetricDef, with_bound: bool) -> Json {
    let mut fields = vec![
        ("name", Json::str(m.name)),
        ("unit", Json::str(m.unit)),
        (
            "better",
            Json::str(match m.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            }),
        ),
    ];
    if with_bound {
        fields.push(("bound", Json::Num(m.bound)));
    }
    Json::obj(fields)
}

/// `BENCHMARK.json`, pretty-printed one entry a line.
pub fn manifest() -> String {
    let line = |items: Vec<Json>| {
        let rows: Vec<String> = items
            .iter()
            .map(|j| format!("    {}", j.render()))
            .collect();
        format!("[\n{}\n  ]", rows.join(",\n"))
    };
    let workloads = WORKLOADS
        .iter()
        .map(|(name, why)| Json::obj(vec![("name", Json::str(*name)), ("why", Json::str(*why))]))
        .collect();
    let end_to_end = END_TO_END.iter().map(|m| metric_json(m, true)).collect();
    let per_layer = PER_LAYER.iter().map(|m| metric_json(m, false)).collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \
         \"per_layer\": {}\n}}\n",
        line(workloads),
        line(end_to_end),
        line(per_layer)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn committed_manifest_is_this_table() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            manifest(),
            "regenerate with `itbench manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn manifest_meets_the_contract_limits() {
        let text = manifest();
        assert!(text.len() <= 64 * 1024);
        let j = Json::parse(&text).unwrap();
        let keys: Vec<&str> = j.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));

        let mut names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        for (name, why) in WORKLOADS {
            assert!(name_ok(name, 64, "_.-"), "{name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}: why");
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name, 64, "_.-"), "{}", m.name);
            assert!(name_ok(m.unit, 16, "_/%.-"), "{}: unit {}", m.name, m.unit);
            names.push(m.name);
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used once");
    }
}
