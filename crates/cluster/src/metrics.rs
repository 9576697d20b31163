//! Per-worker accounting and the cost model.
//!
//! Engines fill a [`WorkerPhase`] per worker per phase with *measured*
//! quantities (bytes, records, FLOPs, peak memory); [`PhaseReport::seal`]
//! applies the cost model to produce per-worker times and the straggler-
//! dominated wall clock. [`RunReport`] aggregates phases into the quantities
//! the paper's tables report: total time, `cpu·min` resource usage, and the
//! per-worker IO distributions behind Figs. 9–13.

use crate::spec::ClusterSpec;

/// Measured activity of one worker during one phase.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct WorkerPhase {
    pub bytes_in: u64,
    pub bytes_out: u64,
    pub records_in: u64,
    pub records_out: u64,
    /// Floating-point operations executed by the worker's compute stages.
    pub flops: f64,
    /// Peak resident bytes (graph state + message buffers).
    pub mem_peak: u64,
}

impl WorkerPhase {
    /// Record an outgoing message of `bytes` on the sender side.
    pub fn send(&mut self, bytes: u64) {
        self.bytes_out += bytes;
        self.records_out += 1;
    }

    /// Record an incoming message of `bytes` on the receiver side.
    pub fn recv(&mut self, bytes: u64) {
        self.bytes_in += bytes;
        self.records_in += 1;
    }

    /// Track a new resident-size high-water mark.
    pub fn touch_mem(&mut self, resident: u64) {
        if resident > self.mem_peak {
            self.mem_peak = resident;
        }
    }
}

/// One engine phase (a Pregel superstep, a Map wave, a Reduce wave) after
/// cost-model evaluation.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    pub name: String,
    pub per_worker: Vec<WorkerPhase>,
    /// Modelled busy time per worker, seconds.
    pub worker_secs: Vec<f64>,
    /// Wall-clock of the phase: slowest worker + phase overhead.
    pub wall_secs: f64,
}

impl PhaseReport {
    /// Apply the cost model to raw per-worker measurements.
    ///
    /// Worker time = compute + communication, where compute parallelises
    /// across the worker's cores and communication is bounded by the larger
    /// of ingress/egress (full-duplex NIC).
    pub fn seal(name: impl Into<String>, spec: &ClusterSpec, per_worker: Vec<WorkerPhase>) -> Self {
        let worker_secs: Vec<f64> = per_worker
            .iter()
            .map(|wp| {
                let compute = wp.flops / (spec.cpus_per_worker as f64 * spec.flops_per_cpu);
                let comm = wp.bytes_in.max(wp.bytes_out) as f64 / spec.bandwidth_bytes;
                compute + comm
            })
            .collect();
        let slowest = worker_secs.iter().cloned().fold(0.0f64, f64::max);
        PhaseReport {
            name: name.into(),
            per_worker,
            worker_secs,
            wall_secs: slowest + spec.phase_overhead_secs,
        }
    }

    /// Total bytes sent by all workers in this phase.
    pub fn bytes_out_total(&self) -> u64 {
        self.per_worker.iter().map(|w| w.bytes_out).sum()
    }

    /// Total bytes received by all workers in this phase.
    pub fn bytes_in_total(&self) -> u64 {
        self.per_worker.iter().map(|w| w.bytes_in).sum()
    }
}

/// Message payload bytes split by plane — the paper's headline shuffle
/// metric. `columnar` counts fixed-width `f32` rows moved through the
/// zero-copy message plane (after sender-side fusion, when active);
/// `legacy` counts per-object typed messages. Unlike `bytes_out`, which
/// only bills network crossings, these count **all** message traffic
/// (local deliveries included): the O(E·d) → O(V·d) claim of fused
/// scatter-aggregation is about message volume, not placement.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MessagePlaneBytes {
    pub columnar: u64,
    pub legacy: u64,
}

impl MessagePlaneBytes {
    pub fn total(&self) -> u64 {
        self.columnar + self.legacy
    }

    pub fn add(&mut self, other: MessagePlaneBytes) {
        self.columnar += other.columnar;
        self.legacy += other.legacy;
    }
}

/// Overload-resilience counters — the serving layer's degraded-mode
/// plane, kept next to [`MessagePlaneBytes`] so every metric plane the
/// system reports lives in one module. Each counter is one way a request
/// can leave the happy path: its deadline expired in the queue, a
/// per-tenant rate limit throttled it, a circuit breaker refused its
/// plan, or the degraded-mode response cache answered it with a stale
/// (but bit-exact) result instead.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OverloadCounters {
    /// Requests resolved `DeadlineExceeded`: their tick budget passed
    /// before their batch flushed.
    pub deadline_exceeded: u64,
    /// Requests a per-tenant token bucket refused admission to the
    /// batcher (both `Reject` fast-fails and `Degrade` resolutions).
    pub throttled: u64,
    /// Degraded requests answered from the response cache — stale with
    /// respect to the engine, bit-identical to the run that populated the
    /// entry.
    pub served_stale: u64,
    /// Closed→Open circuit-breaker transitions across all plans.
    pub breaker_opens: u64,
    /// Submissions fast-failed because their plan's breaker was open and
    /// the cache had nothing to serve.
    pub breaker_rejections: u64,
    /// Degraded-path response-cache lookups that found an entry.
    pub cache_hits: u64,
    /// Degraded-path response-cache lookups that found nothing.
    pub cache_misses: u64,
}

impl OverloadCounters {
    pub fn add(&mut self, other: OverloadCounters) {
        self.deadline_exceeded += other.deadline_exceeded;
        self.throttled += other.throttled;
        self.served_stale += other.served_stale;
        self.breaker_opens += other.breaker_opens;
        self.breaker_rejections += other.breaker_rejections;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
    }
}

/// A complete engine run: a sequence of phases on one cluster spec.
#[derive(Debug, Clone)]
pub struct RunReport {
    pub spec: ClusterSpec,
    pub phases: Vec<PhaseReport>,
    /// Whole-run message volume by plane (see [`MessagePlaneBytes`]).
    pub message_bytes: MessagePlaneBytes,
    /// Bytes of columnar inbox rows paged to disk across the run (the
    /// out-of-core plane). Each worker's `mem_peak` counts resident bytes
    /// only — what the memory cap gates on — while this field records what
    /// the spill files absorbed instead; the two together are the run's
    /// whole inbox footprint. 0 when no spill policy was active.
    pub spilled_bytes: u64,
    /// How many times the run retried after a transient failure: Pregel
    /// checkpoint replays plus MapReduce task re-runs. 0 on a fault-free
    /// run.
    pub retries: u64,
    /// Superstep checkpoints the Pregel engine persisted under its
    /// [`RecoveryPolicy`](crate::fault::RecoveryPolicy).
    pub checkpoints: u64,
    /// Supersteps replayed from a checkpoint after a transient failure
    /// (each retry replays `failed - checkpointed + 1` supersteps).
    pub recovered_supersteps: u64,
    /// Bytes the shuffle transport actually moved across a process
    /// boundary (request + response frames, length prefixes included).
    /// 0 under the in-process backend — unlike `message_bytes`, which
    /// *models* the shuffle volume identically under every backend, this
    /// plane measures real transport traffic and is the one report field
    /// allowed to differ between backends.
    pub wire_bytes: u64,
}

impl RunReport {
    pub fn new(spec: ClusterSpec) -> Self {
        RunReport {
            spec,
            phases: Vec::new(),
            message_bytes: MessagePlaneBytes::default(),
            spilled_bytes: 0,
            retries: 0,
            checkpoints: 0,
            recovered_supersteps: 0,
            wire_bytes: 0,
        }
    }

    /// Seal and append a phase.
    pub fn push_phase(&mut self, name: impl Into<String>, per_worker: Vec<WorkerPhase>) {
        self.phases
            .push(PhaseReport::seal(name, &self.spec, per_worker));
    }

    /// End-to-end modelled wall clock, seconds.
    pub fn total_wall_secs(&self) -> f64 {
        self.phases.iter().map(|p| p.wall_secs).sum()
    }

    /// Resource usage in `cpu·min`, honouring the spec's accounting mode:
    /// reserved gangs bill every worker for the phase wall time, elastic
    /// pools bill busy time only (plus the scheduling overhead each busy
    /// worker observes).
    pub fn resource_cpu_min(&self) -> f64 {
        let cpus = self.spec.cpus_per_worker as f64;
        let total_secs: f64 = self
            .phases
            .iter()
            .map(|p| {
                if self.spec.elastic {
                    let busy: f64 = p
                        .worker_secs
                        .iter()
                        .map(|&s| {
                            if s > 0.0 {
                                s + self.spec.phase_overhead_secs
                            } else {
                                0.0
                            }
                        })
                        .sum();
                    busy * cpus
                } else {
                    p.wall_secs * self.spec.workers as f64 * cpus
                }
            })
            .sum();
        total_secs / 60.0
    }

    /// Total bytes shuffled across the whole run.
    pub fn total_bytes(&self) -> u64 {
        self.phases.iter().map(|p| p.bytes_out_total()).sum()
    }

    /// Per-worker totals across phases — the distributions of Figs. 9–13.
    /// Returns `(bytes_in, bytes_out, records_in, records_out, busy_secs)`
    /// per worker.
    pub fn worker_totals(&self) -> Vec<WorkerTotals> {
        let n = self.spec.workers;
        let mut out = vec![WorkerTotals::default(); n];
        for p in &self.phases {
            for (w, wp) in p.per_worker.iter().enumerate() {
                out[w].bytes_in += wp.bytes_in;
                out[w].bytes_out += wp.bytes_out;
                out[w].records_in += wp.records_in;
                out[w].records_out += wp.records_out;
                out[w].busy_secs += p.worker_secs[w];
                out[w].mem_peak = out[w].mem_peak.max(wp.mem_peak);
            }
        }
        out
    }

    /// Largest per-worker memory peak across all phases (OOM diagnostics).
    pub fn max_mem_peak(&self) -> u64 {
        self.phases
            .iter()
            .flat_map(|p| p.per_worker.iter().map(|w| w.mem_peak))
            .max()
            .unwrap_or(0)
    }
}

/// Whole-run per-worker aggregate.
#[derive(Debug, Default, Clone)]
pub struct WorkerTotals {
    pub bytes_in: u64,
    pub bytes_out: u64,
    pub records_in: u64,
    pub records_out: u64,
    pub busy_secs: f64,
    pub mem_peak: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(spec: &ClusterSpec, loads: &[(f64, u64, u64)]) -> PhaseReport {
        let per_worker = loads
            .iter()
            .map(|&(flops, bin, bout)| WorkerPhase {
                flops,
                bytes_in: bin,
                bytes_out: bout,
                ..Default::default()
            })
            .collect();
        PhaseReport::seal("t", spec, per_worker)
    }

    #[test]
    fn overload_counters_ratio_and_add() {
        let mut a = OverloadCounters::default();
        assert_eq!(a.cache_hits + a.cache_misses, 0, "no lookups, no ratio");
        a.cache_hits = 3;
        a.cache_misses = 1;
        a.served_stale = 3;
        a.throttled = 4;
        let hit = a.cache_hits as f64 / (a.cache_hits + a.cache_misses) as f64;
        assert!((hit - 0.75).abs() < 1e-12);
        let mut b = OverloadCounters {
            deadline_exceeded: 2,
            breaker_opens: 1,
            breaker_rejections: 5,
            ..OverloadCounters::default()
        };
        b.add(a);
        assert_eq!(b.deadline_exceeded, 2);
        assert_eq!(b.throttled, 4);
        assert_eq!(b.cache_hits, 3);
        assert_eq!(b.breaker_rejections, 5);
    }

    #[test]
    fn worker_time_is_compute_plus_comm() {
        let spec = ClusterSpec::test_spec(2); // 1e6 flops/s, 1e6 B/s
        let p = phase(&spec, &[(2.0e6, 500_000, 0), (0.0, 0, 0)]);
        // 2 s compute + 0.5 s comm
        assert!((p.worker_secs[0] - 2.5).abs() < 1e-9);
        assert_eq!(p.worker_secs[1], 0.0);
        assert!((p.wall_secs - 2.5).abs() < 1e-9);
    }

    #[test]
    fn wall_clock_is_straggler_bound() {
        let spec = ClusterSpec::test_spec(3);
        let p = phase(&spec, &[(1.0e6, 0, 0), (5.0e6, 0, 0), (2.0e6, 0, 0)]);
        assert!((p.wall_secs - 5.0).abs() < 1e-9);
    }

    #[test]
    fn full_duplex_comm_takes_max_direction() {
        let spec = ClusterSpec::test_spec(1);
        let p = phase(&spec, &[(0.0, 300_000, 800_000)]);
        assert!((p.worker_secs[0] - 0.8).abs() < 1e-9);
    }

    #[test]
    fn phase_overhead_charged_once_per_phase() {
        let mut spec = ClusterSpec::test_spec(2);
        spec.phase_overhead_secs = 3.0;
        let p = phase(&spec, &[(1.0e6, 0, 0), (0.0, 0, 0)]);
        assert!((p.wall_secs - 4.0).abs() < 1e-9);
    }

    #[test]
    fn reserved_resource_bills_all_workers() {
        let spec = ClusterSpec::test_spec(4); // 1 cpu each, reserved
        let mut run = RunReport::new(spec);
        run.push_phase(
            "p",
            vec![
                WorkerPhase {
                    flops: 60.0e6, // 60 s
                    ..Default::default()
                },
                WorkerPhase::default(),
                WorkerPhase::default(),
                WorkerPhase::default(),
            ],
        );
        // wall = 60 s; resource = 60 s * 4 workers * 1 cpu = 4 cpu·min
        assert!((run.total_wall_secs() - 60.0).abs() < 1e-9);
        assert!((run.resource_cpu_min() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn elastic_resource_bills_busy_time_only() {
        let mut spec = ClusterSpec::test_spec(4);
        spec.elastic = true;
        let mut run = RunReport::new(spec);
        run.push_phase(
            "p",
            vec![
                WorkerPhase {
                    flops: 60.0e6,
                    ..Default::default()
                },
                WorkerPhase::default(),
                WorkerPhase::default(),
                WorkerPhase::default(),
            ],
        );
        // only worker 0 is billed: 1 cpu·min
        assert!((run.resource_cpu_min() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn send_recv_bookkeeping() {
        let mut wp = WorkerPhase::default();
        wp.send(100);
        wp.send(50);
        wp.recv(30);
        wp.touch_mem(1000);
        wp.touch_mem(500);
        assert_eq!(wp.bytes_out, 150);
        assert_eq!(wp.records_out, 2);
        assert_eq!(wp.bytes_in, 30);
        assert_eq!(wp.records_in, 1);
        assert_eq!(wp.mem_peak, 1000);
    }

    #[test]
    fn worker_totals_accumulate_across_phases() {
        let spec = ClusterSpec::test_spec(2);
        let mut run = RunReport::new(spec);
        for _ in 0..3 {
            let mut a = WorkerPhase::default();
            a.send(10);
            let mut b = WorkerPhase::default();
            b.recv(10);
            run.push_phase("s", vec![a, b]);
        }
        let totals = run.worker_totals();
        assert_eq!(totals[0].bytes_out, 30);
        assert_eq!(totals[1].bytes_in, 30);
        assert_eq!(run.total_bytes(), 30);
    }

    #[test]
    fn total_wall_sums_phases() {
        let spec = ClusterSpec::test_spec(1);
        let mut run = RunReport::new(spec);
        run.push_phase(
            "a",
            vec![WorkerPhase {
                flops: 1.0e6,
                ..Default::default()
            }],
        );
        run.push_phase(
            "b",
            vec![WorkerPhase {
                flops: 2.0e6,
                ..Default::default()
            }],
        );
        assert!((run.total_wall_secs() - 3.0).abs() < 1e-9);
    }
}
