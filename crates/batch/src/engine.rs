//! Phase execution, shuffling, and IO/memory accounting.
//!
//! # Execution model
//!
//! Both phases fork-join across workers under the global
//! [`inferturbo_common::Parallelism`] budget: each worker runs its own
//! kernel instance (built by a per-worker factory, so kernels may hold
//! per-worker mutable state such as a broadcast table) and spools its
//! output into worker-local storage. The barrier hands every destination
//! its senders' shares in ascending mapper order — exactly the order the
//! serial loop produced — so results and byte accounting are identical for
//! every thread count. The shuffle's hash partitioning is what makes this
//! safe: each worker *is* a disjoint key range.
//!
//! A reducer walks its rows once, in arrival order (ascending mapper,
//! emission order within a mapper), and groups them by first touch; it
//! then visits the groups in ascending key order, merge-joined with its
//! typed records, which it stable-sorts by key. That keeps the
//! external-sort semantics the kernels are written against — ascending
//! keys, arrival order inside a group — while sorting one entry per
//! distinct key instead of one per row.
//!
//! # Two shuffle planes
//!
//! Every phase shuffles typed keyed records (the pairs a kernel pushes)
//! and, alongside them, fixed-width `f32` rows through the same columnar
//! buffers the Pregel engine uses ([`inferturbo_common::rows`]): kernels
//! emit rows into a [`RowSink`], one flat spool per task with no
//! per-record heap object. When a phase provides a [`FusedAggregator`],
//! emission folds rows into per-key accumulators at the sender — the
//! in-mapper combiner — shrinking shuffle volume from one row per edge to
//! one partial row per (worker, key).
//!
//! Rows stay in the spool they were written to. The barrier records, per
//! destination, the ascending indices of each sender's rows bound there,
//! and a reducer reads them where they lie. Only a transport that moves
//! bytes ([`Transport::needs_bytes`]) is handed contiguous per-destination
//! buckets, packed from those index lists at the boundary: the same rows
//! in the same order. A reducer combines the partials that land on it
//! through the fold of the phase that produced them (Hadoop's reduce-side
//! combine), so its kernel sees one row per key; without a fold it sees
//! the key's rows as one flat [`RowsView`] in arrival order. A phase that
//! ships no rows passes `row_dim = 0` and ignores its sink.

use inferturbo_cluster::transport::{
    self, frame::EncodedKeyRecords, BucketRef, ConcatDest, ConcatExchange, Transport,
};
use inferturbo_cluster::{ClusterSpec, FaultInjector, MessagePlaneBytes, RunReport, WorkerPhase};
use inferturbo_common::codec::{varint_len, Decode, Encode};
use inferturbo_common::hash::partition_of;
use inferturbo_common::par::{par_map, par_map_workers};
use inferturbo_common::rows::{row_payload_len, AggKind, FusedAggregator, FusedKeyShard, RowBlock};
use inferturbo_common::{Error, FxHashMap, Result};
use inferturbo_obs::{Payload, RoundKind, Site, TraceHandle};

/// Keyed records routed to their destination worker, waiting to be grouped
/// by the next phase. Byte sizes were charged to the *producing* phase as
/// output; the consuming phase charges them as input.
pub struct KeyedData<V> {
    per_worker: Vec<Vec<(u64, V)>>,
}

impl<V> std::fmt::Debug for KeyedData<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyedData")
            .field("records", &self.len())
            .field("workers", &self.per_worker.len())
            .finish()
    }
}

impl<V> KeyedData<V> {
    /// Total records across all workers.
    pub fn len(&self) -> usize {
        self.per_worker.iter().map(Vec::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Consumes the records destination by destination, each destination's in
/// delivery order (ascending mapper, emission order within a mapper) — how
/// a caller reads out the last round's results.
impl<V> IntoIterator for KeyedData<V> {
    type Item = (u64, V);
    type IntoIter = std::iter::Flatten<std::vec::IntoIter<Vec<(u64, V)>>>;

    fn into_iter(self) -> Self::IntoIter {
        self.per_worker.into_iter().flatten()
    }
}

/// One task's row spool: keyed fixed-width rows with per-row fold counts
/// (1 unless the spooling phase fused), in emission order — first-touch
/// order when fused. Written once by its task, then only read by index.
#[derive(Debug, Default)]
struct RowSpool {
    keys: Vec<u64>,
    counts: Vec<u32>,
    rows: RowBlock,
}

impl RowSpool {
    /// The rows at the ascending indices `at`, copied into one contiguous
    /// spool: what a byte-moving transport ships for one (mapper,
    /// destination) pair.
    fn pack(&self, at: &[u32]) -> RowSpool {
        let mut out = RowSpool {
            keys: Vec::with_capacity(at.len()),
            counts: Vec::with_capacity(at.len()),
            rows: RowBlock::new(self.rows.dim()),
        };
        for &i in at {
            let i = i as usize;
            out.keys.push(self.keys[i]);
            out.counts.push(self.counts[i]);
            out.rows.push_row(self.rows.row(i));
        }
        out
    }
}

/// Keyed columnar rows routed to their destination workers — the columnar
/// counterpart of [`KeyedData`], produced and consumed by the same phases.
/// The rows stay in the spools they were written to; each destination
/// holds the indices of the spool rows it receives.
pub struct KeyedRows<'a> {
    dim: usize,
    /// The fold of the phase that fused these rows, if it fused: the
    /// consuming reducer combines same-key partials with this fold and no
    /// other.
    agg: Option<&'a dyn FusedAggregator>,
    spools: Vec<RowSpool>,
    /// Per destination worker, its arrival order: `(spool, ascending row
    /// indices)` per sending spool, in ascending mapper order.
    per_worker: Vec<Vec<(usize, Vec<u32>)>>,
}

impl std::fmt::Debug for KeyedRows<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyedRows")
            .field("dim", &self.dim)
            .field("rows", &self.len())
            .field("workers", &self.per_worker.len())
            .field("fused", &self.agg.is_some())
            .finish()
    }
}

impl KeyedRows<'_> {
    /// An empty plane (used to start a chain, or by phases with no row
    /// traffic).
    pub fn empty(dim: usize, workers: usize) -> Self {
        KeyedRows {
            dim,
            agg: None,
            spools: Vec::new(),
            per_worker: (0..workers).map(|_| Vec::new()).collect(),
        }
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Total row records across all workers.
    pub fn len(&self) -> usize {
        self.per_worker
            .iter()
            .flatten()
            .map(|(_, at)| at.len())
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total raw messages represented (each row counts its folds).
    pub fn raw_message_count(&self) -> u64 {
        (0..self.per_worker.len())
            .map(|w| {
                let mut raw = 0u64;
                self.for_each_arrival(w, |_, count, _| raw += count as u64);
                raw
            })
            .sum()
    }

    /// Visit worker `w`'s rows as `(key, count, row)` in arrival order.
    fn for_each_arrival(&self, w: usize, mut f: impl FnMut(u64, u32, &[f32])) {
        for (s, at) in &self.per_worker[w] {
            let spool = &self.spools[*s];
            for &i in at {
                let i = i as usize;
                f(spool.keys[i], spool.counts[i], spool.rows.row(i));
            }
        }
    }
}

/// One key's rows inside a reducer: a flat row-major slice plus per-row
/// fold counts, in arrival order (ascending mapper, emission order within
/// a mapper). When the producing phase fused, the reducer has already
/// folded the key's partials through that phase's fold, in arrival order
/// and copy-on-first: the view is then one row whose count is the sum of
/// theirs.
#[derive(Debug, Clone, Copy)]
pub struct RowsView<'a> {
    pub dim: usize,
    pub data: &'a [f32],
    pub counts: &'a [u32],
    /// Shuffle records these rows stand for: [`RowsView::n_rows`] unless
    /// the reducer combined them.
    pub records: usize,
}

impl RowsView<'_> {
    pub fn n_rows(&self) -> usize {
        self.counts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }
}

/// A phase's row fold, resolved once per phase: its closed-form [`AggKind`]
/// when the aggregator names one ([`FusedAggregator::wire_kind`] —
/// bit-identical by that method's contract), so the per-row fold inlines;
/// else the aggregator itself, a virtual call per row.
#[derive(Clone, Copy)]
enum Fold<'a> {
    Kind(AggKind),
    Dyn(&'a dyn FusedAggregator),
}

impl<'a> Fold<'a> {
    fn of(agg: Option<&'a dyn FusedAggregator>) -> Option<Self> {
        agg.map(|agg| match agg.wire_kind() {
            Some(kind) => Fold::Kind(kind),
            None => Fold::Dyn(agg),
        })
    }
}

/// Columnar emitter handed to phase kernels: rows are spooled flat (no
/// per-record heap object) or — when the phase has a [`FusedAggregator`] —
/// folded straight into per-key accumulator rows at emission, Hadoop-style
/// in-mapper combining. Either way the task's rows live in one spool.
pub struct RowSink<'a> {
    dim: usize,
    fold: Option<Fold<'a>>,
    spool: FusedKeyShard,
}

impl<'a> RowSink<'a> {
    fn new(dim: usize, agg: Option<&'a dyn FusedAggregator>) -> Self {
        RowSink {
            dim,
            fold: Fold::of(agg),
            spool: FusedKeyShard::new(dim),
        }
    }

    /// Row width of this phase's outgoing columnar plane (0 = the phase
    /// emits no rows).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Emit one row keyed by `key` for the shuffle.
    pub fn send_row(&mut self, key: u64, row: &[f32]) {
        assert!(self.dim > 0, "send_row on a phase with no row plane");
        match self.fold {
            Some(Fold::Kind(kind)) => {
                self.spool.accumulate(key, row, 1, &kind);
            }
            Some(Fold::Dyn(agg)) => {
                self.spool.accumulate(key, row, 1, agg);
            }
            None => {
                self.spool.keys.push(key);
                self.spool.counts.push(1);
                self.spool.rows.push_row(row);
            }
        }
    }

    /// Resident bytes held by the sink and charged to the worker's memory
    /// peak: the in-mapper fused accumulator buffer only. Plain-spooled
    /// rows model as streamed to the shuffle (like the typed records), so
    /// they cost shuffle bytes, not resident memory.
    fn resident_bytes(&self) -> u64 {
        if self.fold.is_none() {
            return 0;
        }
        (self.spool.rows.data().len() * 4 + self.spool.keys.len() * 12) as u64
    }

    /// Charge every spooled row's output bytes and record, per destination
    /// of `n`, the ascending indices of the rows bound there. The rows stay
    /// in the returned spool. Returns the spool, the index lists and the
    /// columnar bytes sent.
    fn flush(
        self,
        params: &PhaseParams,
        n: usize,
        metrics: &mut WorkerPhase,
    ) -> Result<(RowSpool, Vec<Vec<u32>>, u64)> {
        let FusedKeyShard {
            keys, counts, rows, ..
        } = self.spool;
        if keys.len() > u32::MAX as usize {
            return Err(Error::Capacity(format!(
                "row spool overflow: {} rows from one task exceed the u32 index space",
                keys.len()
            )));
        }
        let mut routes: Vec<Vec<u32>> = (0..n).map(|_| Vec::new()).collect();
        let mut columnar = 0u64;
        for (i, (&key, &count)) in keys.iter().zip(&counts).enumerate() {
            let len = params.row_wire_len(key, self.dim, count);
            metrics.send(len);
            columnar += len;
            routes[(params.partition_fn)(key, n)].push(i as u32);
        }
        Ok((RowSpool { keys, counts, rows }, routes, columnar))
    }
}

/// One reducer's rows grouped by key, in first-touch order: group `g` is
/// `keys[g]`'s rows `starts[g]..starts[g + 1]` of `counts` / `rows`, and
/// stands for `records[g]` shuffle records of `bytes[g]` wire bytes.
struct RowGroups {
    dim: usize,
    keys: Vec<u64>,
    starts: Vec<usize>,
    counts: Vec<u32>,
    rows: RowBlock,
    records: Vec<usize>,
    bytes: Vec<u64>,
}

impl RowGroups {
    /// The reduce-side combine: fold each arriving partial into its key's
    /// row, copy-on-first, in arrival order — the fold sequence the kernel's
    /// own gather would run over the key's partials — so every group is
    /// one row carrying the sum of their counts. Charges each record's
    /// fetch to `metrics`.
    fn combine(
        rows: &KeyedRows<'_>,
        w: usize,
        fold: &(impl FusedAggregator + ?Sized),
        params: &PhaseParams,
        metrics: &mut WorkerPhase,
    ) -> Self {
        let dim = rows.dim;
        let mut shard = FusedKeyShard::new(dim);
        let (mut records, mut bytes) = (Vec::new(), Vec::new());
        rows.for_each_arrival(w, |key, count, row| {
            let len = params.row_wire_len(key, dim, count);
            metrics.recv(len);
            let g = shard.accumulate(key, row, count, fold);
            if g == records.len() {
                records.push(0);
                bytes.push(0);
            }
            records[g] += 1;
            bytes[g] += len;
        });
        let FusedKeyShard {
            keys, counts, rows, ..
        } = shard;
        RowGroups {
            dim,
            starts: (0..=keys.len()).collect(),
            keys,
            counts,
            rows,
            records,
            bytes,
        }
    }

    /// Without a fold: group the rows by first touch, then stably
    /// counting-scatter them into group order, arrival order within a
    /// group. Charges each record's fetch to `metrics`.
    fn gather(
        rows: &KeyedRows<'_>,
        w: usize,
        params: &PhaseParams,
        metrics: &mut WorkerPhase,
    ) -> Result<Self> {
        let dim = rows.dim;
        let mut index: FxHashMap<u64, usize> = FxHashMap::default();
        let (mut keys, mut records, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
        let mut group_of: Vec<u32> = Vec::new();
        rows.for_each_arrival(w, |key, count, _| {
            let len = params.row_wire_len(key, dim, count);
            metrics.recv(len);
            let g = *index.entry(key).or_insert_with(|| {
                keys.push(key);
                records.push(0);
                bytes.push(0);
                keys.len() - 1
            });
            records[g] += 1;
            bytes[g] += len;
            group_of.push(g as u32);
        });
        let mut starts = Vec::with_capacity(keys.len() + 1);
        starts.push(0);
        for &r in &records {
            starts.push(starts[starts.len() - 1] + r);
        }
        let total = group_of.len();
        let mut cursor = starts.clone();
        let mut counts = vec![0u32; total];
        let mut data = vec![0.0f32; total * dim];
        let mut arrival = group_of.iter();
        rows.for_each_arrival(w, |_, count, row| {
            let g = arrival.next().map_or(0, |&g| g as usize);
            let at = cursor[g];
            cursor[g] += 1;
            counts[at] = count;
            data[at * dim..(at + 1) * dim].copy_from_slice(row);
        });
        Ok(RowGroups {
            dim,
            keys,
            starts,
            counts,
            rows: RowBlock::from_parts(dim, data)?,
            records,
            bytes,
        })
    }

    /// Group ids in ascending key order (keys are distinct).
    fn ascending(&self) -> Vec<u32> {
        let mut order: Vec<u32> = (0..self.keys.len() as u32).collect();
        order.sort_unstable_by_key(|&g| self.keys[g as usize]);
        order
    }

    fn view(&self, g: usize) -> RowsView<'_> {
        let (a, b) = (self.starts[g], self.starts[g + 1]);
        RowsView {
            dim: self.dim,
            data: &self.rows.data()[a * self.dim..b * self.dim],
            counts: &self.counts[a..b],
            records: self.records[g],
        }
    }
}

/// Per-record context passed to map/reduce kernels for cost reporting.
#[derive(Default)]
pub struct PhaseCtx {
    /// Floating-point operations performed by the kernel on this record.
    pub flops: f64,
}

impl PhaseCtx {
    pub fn add_flops(&mut self, f: f64) {
        self.flops += f;
    }
}

/// The plain-data subset of the engine a worker task needs; `Copy` so the
/// fork-join closures can capture it without borrowing the engine.
#[derive(Clone, Copy)]
struct PhaseParams {
    partition_fn: fn(u64, usize) -> usize,
    record_overhead: u64,
}

impl PhaseParams {
    fn wire_len<V: Encode>(&self, key: u64, value: &V) -> u64 {
        (varint_len(key) + value.encoded_len()) as u64 + self.record_overhead
    }

    /// Wire length of one columnar row record: the shared
    /// [`row_payload_len`] framing (count always present — batch rows
    /// carry fold counts) plus the key varint and shuffle overhead.
    fn row_wire_len(&self, key: u64, dim: usize, count: u32) -> u64 {
        (row_payload_len(dim, Some(count)) + varint_len(key)) as u64 + self.record_overhead
    }
}

/// Task-start fault gate, shared by a phase's worker tasks. Fires any
/// scheduled injection for the task and absorbs up to `max_retries`
/// firings by modelling a task re-launch: the fault fires *before* the
/// task consumes its (immutable) input, and the in-process kernels are
/// deterministic, so a re-launched task is bit-identical to one that
/// never failed — the retry costs scheduling time, not correctness.
struct TaskGate {
    faults: Option<FaultInjector>,
    max_retries: u32,
}

impl TaskGate {
    /// Run the gate for one task. `fire` probes the injector for this
    /// task's site. Returns the number of absorbed re-launches, or the
    /// surviving error once the attempt budget is spent.
    fn admit(&self, fire: impl Fn(&FaultInjector) -> Option<Error>) -> Result<u64> {
        let Some(inj) = &self.faults else {
            return Ok(0);
        };
        let mut retries = 0u64;
        while let Some(e) = fire(inj) {
            if retries >= self.max_retries as u64 {
                return Err(e);
            }
            retries += 1;
        }
        Ok(retries)
    }
}

/// One worker's phase output, merged at the barrier in worker order.
struct PhaseOut<V> {
    metrics: WorkerPhase,
    routed: Vec<Vec<(u64, V)>>,
    /// The task's row spool (empty when `row_dim == 0`) and, per
    /// destination, the ascending indices of its rows bound there.
    spool: RowSpool,
    routes: Vec<Vec<u32>>,
    /// Modelled peak resident bytes, checked against the spec at the merge.
    peak: u64,
    /// Message volume by plane.
    msg_bytes: MessagePlaneBytes,
    /// Injected task failures this worker absorbed by re-launching.
    retries: u64,
}

impl<V: Encode> PhaseOut<V> {
    /// Close a task: route its typed records and flush its row sink, each
    /// record charged as output once. `held` is the task's modelled
    /// residency beside the sink's fused accumulators.
    fn finish(
        params: &PhaseParams,
        n: usize,
        mut metrics: WorkerPhase,
        out: Vec<(u64, V)>,
        sink: RowSink<'_>,
        held: u64,
        retries: u64,
    ) -> Result<Self> {
        let mut routed: Vec<Vec<(u64, V)>> = (0..n).map(|_| Vec::new()).collect();
        let peak = held + sink.resident_bytes();
        let legacy = route_records(params, out, &mut metrics, &mut routed);
        let (spool, routes, columnar) = sink.flush(params, n, &mut metrics)?;
        metrics.touch_mem(peak);
        Ok(PhaseOut {
            metrics,
            routed,
            spool,
            routes,
            peak,
            msg_bytes: MessagePlaneBytes { columnar, legacy },
            retries,
        })
    }
}

/// The batch engine. Owns the cluster spec and accumulates a [`RunReport`]
/// across phases; one engine instance = one job chain.
pub struct BatchEngine {
    spec: ClusterSpec,
    partition_fn: fn(u64, usize) -> usize,
    /// Fixed per-record overhead bytes modelling shuffle framing.
    record_overhead: u64,
    report: RunReport,
    /// Armed fault schedule (deterministic injection). `None` — the
    /// default — costs nothing. Armed only by an explicit
    /// [`BatchEngine::with_fault_injector`].
    faults: Option<FaultInjector>,
    /// How many times an injected task failure is absorbed by re-launching
    /// the task before the job fails (Hadoop's `mapreduce.map.maxattempts`
    /// analogue). Task retry is idempotent by construction: a task's input
    /// — its HDFS split or sorted shuffle partition — is immutable, and
    /// the fault fires before the task consumes anything, so the re-run is
    /// bit-identical. Absorbed failures count on [`RunReport::retries`].
    pub max_task_retries: u32,
    /// Map phases executed so far (addresses [`inferturbo_cluster::FaultSite::MapTask`]).
    map_rounds: usize,
    /// Reduce phases executed so far (addresses
    /// [`inferturbo_cluster::FaultSite::ReduceTask`]).
    reduce_rounds: usize,
    /// Flight-recorder handle; disabled by default. Per-round records are
    /// emitted at the phase barrier ([`BatchEngine::merge_phase`]) only —
    /// never from inside worker tasks — so traces are thread-count
    /// invariant.
    trace: TraceHandle,
    /// Who moves routed shuffle shards between mappers and reducers at the
    /// phase barrier. Defaults to the in-process backend; every backend is bit-identical (see the transport contract), the
    /// choice only shows on [`RunReport::wire_bytes`].
    transport: std::sync::Arc<dyn Transport>,
}

impl BatchEngine {
    pub fn new(spec: ClusterSpec) -> Self {
        BatchEngine {
            spec,
            partition_fn: partition_of,
            record_overhead: 2,
            report: RunReport::new(spec),
            faults: None,
            max_task_retries: 3,
            map_rounds: 0,
            reduce_rounds: 0,
            trace: TraceHandle::disabled(),
            transport: std::sync::Arc::new(transport::InProcess),
        }
    }

    pub fn with_partition_fn(mut self, f: fn(u64, usize) -> usize) -> Self {
        self.partition_fn = f;
        self
    }

    /// Arm (or clear) a deterministic fault schedule for this engine. The
    /// injector's per-site fire budgets are *shared* with the caller's
    /// clones of it: a fault consumed by one job does not re-fire in the
    /// next — how a session plan models a schedule of cluster events
    /// spanning repeated runs.
    pub fn with_fault_injector(mut self, injector: Option<FaultInjector>) -> Self {
        self.faults = injector;
        self
    }

    /// Bound the per-task re-launch count for injected task failures.
    pub fn with_task_retries(mut self, max: u32) -> Self {
        self.max_task_retries = max;
        self
    }

    /// Attach a trace handle: round/worker-phase events are emitted only
    /// at the single-threaded merge barrier, so traces are thread-count
    /// invariant. The caller scopes the handle's epoch (one engine run =
    /// one epoch).
    pub fn with_trace(mut self, trace: TraceHandle) -> Self {
        self.trace = trace;
        self
    }

    /// Use an explicit shuffle transport. Every backend is bit-identical
    /// (see the [`transport`] module contract); the choice only shows on
    /// [`RunReport::wire_bytes`].
    pub fn with_transport(mut self, transport: std::sync::Arc<dyn Transport>) -> Self {
        self.transport = transport;
        self
    }

    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    pub fn report(&self) -> &RunReport {
        &self.report
    }

    pub fn into_report(self) -> RunReport {
        self.report
    }

    fn params(&self) -> PhaseParams {
        PhaseParams {
            partition_fn: self.partition_fn,
            record_overhead: self.record_overhead,
        }
    }

    /// Task gate and round index for the next map phase.
    fn map_gate(&mut self) -> (TaskGate, usize) {
        let round = self.map_rounds;
        self.map_rounds += 1;
        let gate = TaskGate {
            faults: self.faults.clone(),
            max_retries: self.max_task_retries,
        };
        (gate, round)
    }

    /// Task gate and round index for the next reduce phase.
    fn reduce_gate(&mut self) -> (TaskGate, usize) {
        let round = self.reduce_rounds;
        self.reduce_rounds += 1;
        let gate = TaskGate {
            faults: self.faults.clone(),
            max_retries: self.max_task_retries,
        };
        (gate, round)
    }

    /// Distribute raw input records round-robin across mapper workers —
    /// models HDFS splits, which are oblivious to record keys.
    pub fn scatter_inputs<I>(&self, inputs: Vec<I>) -> Vec<Vec<I>> {
        let n = self.spec.workers;
        let mut per_worker: Vec<Vec<I>> = (0..n).map(|_| Vec::new()).collect();
        for (i, rec) in inputs.into_iter().enumerate() {
            per_worker[i % n].push(rec);
        }
        per_worker
    }

    /// Map phase: per-worker input records → routed keyed pairs plus
    /// fixed-width rows of `row_dim` emitted through a [`RowSink`].
    ///
    /// `make_map(worker)` builds the kernel each worker runs — one instance
    /// per worker, so kernels may carry per-worker mutable state. A kernel
    /// pushes its keyed pairs onto the task's output vector, which it
    /// receives as its last argument. Workers execute in parallel; input
    /// bytes are charged per record (reading the split); emitted pairs and
    /// rows are charged as shuffle output. With `row_agg` set, emitted rows
    /// fold into per-key accumulators at the sender (fused in-mapper
    /// aggregation), and the returned rows carry `row_agg` to the reducer
    /// that combines them. The first failure in ascending worker order is
    /// surfaced, like the serial loop.
    pub fn map_phase<'a, I, V, M, F>(
        &mut self,
        name: impl Into<String>,
        inputs: &[Vec<I>],
        row_dim: usize,
        make_map: F,
        row_agg: Option<&'a dyn FusedAggregator>,
    ) -> Result<(KeyedData<V>, KeyedRows<'a>)>
    where
        I: Encode + Sync,
        V: Encode + Decode + Clone + Send,
        M: FnMut(&mut PhaseCtx, &I, &mut RowSink<'_>, &mut Vec<(u64, V)>) -> Result<()>,
        F: Fn(usize) -> M + Sync,
    {
        assert_eq!(
            inputs.len(),
            self.spec.workers,
            "inputs must be pre-partitioned"
        );
        let name = name.into();
        let n = self.spec.workers;
        let params = self.params();
        let (gate, round) = self.map_gate();

        let results: Vec<Result<PhaseOut<V>>> = par_map_workers(n, |w| {
            let task_retries = gate.admit(|inj| inj.map_task(w, round))?;
            let mut metrics = WorkerPhase::default();
            let mut kernel = make_map(w);
            let mut out: Vec<(u64, V)> = Vec::new();
            let mut sink = RowSink::new(row_dim, row_agg);
            for rec in &inputs[w] {
                metrics.recv(rec.encoded_len() as u64 + params.record_overhead);
                let mut ctx = PhaseCtx::default();
                kernel(&mut ctx, rec, &mut sink, &mut out)?;
                metrics.flops += ctx.flops;
            }
            // Mapper memory: typed records stream to the shuffle; only the
            // row sink's fused accumulators stay resident.
            PhaseOut::finish(&params, n, metrics, out, sink, 0, task_retries)
        });
        self.merge_phase(name, RoundKind::Map, row_dim, row_agg, results)
    }

    /// Reduce phase: group each worker's shuffle partition — typed records
    /// and rows — by key, run its kernel per group, and route the emitted
    /// pairs and `out_dim`-wide rows onward.
    ///
    /// Workers run in parallel — each worker's partition is a disjoint key
    /// range by construction of the shuffle. Within a worker, keys — the
    /// union of either plane's — are visited in ascending order, arrival
    /// order preserved inside a group (see the module docs): the kernel
    /// sees the key's typed values, in one vector reused across keys, plus
    /// its rows as one flat [`RowsView`] — one combined row per key when
    /// `rows` were fused. It pushes its keyed pairs onto the task's output
    /// vector, its last argument.
    /// `make_reduce(worker)` builds one kernel per worker, which may hold
    /// per-worker state across its key stream (e.g. the broadcast table
    /// riding reserved low keys). The modelled reducer memory peak is the
    /// largest single group plus the sink's fused accumulators — streaming
    /// reducers never hold their whole partition.
    pub fn reduce_phase<'b, V, O, R, F>(
        &mut self,
        name: impl Into<String>,
        data: KeyedData<V>,
        rows: KeyedRows<'_>,
        out_dim: usize,
        make_reduce: F,
        row_agg: Option<&'b dyn FusedAggregator>,
    ) -> Result<(KeyedData<O>, KeyedRows<'b>)>
    where
        V: Encode + Decode + Clone + Send,
        O: Encode + Decode + Clone + Send,
        R: FnMut(
            &mut PhaseCtx,
            u64,
            &mut Vec<V>,
            RowsView<'_>,
            &mut RowSink<'_>,
            &mut Vec<(u64, O)>,
        ) -> Result<()>,
        F: Fn(usize) -> R + Sync,
    {
        let name = name.into();
        let n = self.spec.workers;
        assert_eq!(data.per_worker.len(), n, "keyed data shape");
        assert_eq!(rows.per_worker.len(), n, "keyed rows shape");
        let in_dim = rows.dim;
        let fold = Fold::of(rows.agg);
        let params = self.params();
        let (gate, round) = self.reduce_gate();

        let results: Vec<Result<PhaseOut<O>>> = par_map(data.per_worker, |w, mut bucket| {
            // Fired before the task consumes its shuffle partition, so a
            // re-launched task reads the same immutable input.
            let task_retries = gate.admit(|inj| inj.reduce_task(w, round))?;
            let mut metrics = WorkerPhase::default();
            // Each record of either plane is sized once, as it is grouped:
            // the same number is the fetch of this worker's shuffle
            // partition (input accounting) and its share of the group's
            // residency. The fold is dispatched once, here.
            let groups = match fold {
                Some(Fold::Kind(kind)) => {
                    RowGroups::combine(&rows, w, &kind, &params, &mut metrics)
                }
                Some(Fold::Dyn(agg)) => RowGroups::combine(&rows, w, agg, &params, &mut metrics),
                None => RowGroups::gather(&rows, w, &params, &mut metrics)?,
            };
            let order = groups.ascending();
            // Stable, so same-key typed records keep arrival order.
            bucket.sort_by_key(|&(k, _)| k);

            let mut kernel = make_reduce(w);
            let mut out: Vec<(u64, O)> = Vec::new();
            let mut values: Vec<V> = Vec::new();
            let mut sink = RowSink::new(out_dim, row_agg);
            let mut max_group_bytes = 0u64;
            let mut lit = bucket.into_iter().peekable();
            let mut gi = 0usize;
            loop {
                let lk = lit.peek().map(|&(k, _)| k);
                let rk = order.get(gi).map(|&g| groups.keys[g as usize]);
                let k = match (lk, rk) {
                    (None, None) => break,
                    (Some(a), None) => a,
                    (None, Some(b)) => b,
                    (Some(a), Some(b)) => a.min(b),
                };
                values.clear();
                let mut group_bytes = 0u64;
                while let Some((_, v)) = lit.next_if(|&(k2, _)| k2 == k) {
                    let len = params.wire_len(k, &v);
                    metrics.recv(len);
                    group_bytes += len;
                    values.push(v);
                }
                let view = if rk == Some(k) {
                    let g = order[gi] as usize;
                    gi += 1;
                    group_bytes += groups.bytes[g];
                    groups.view(g)
                } else {
                    RowsView {
                        dim: in_dim,
                        data: &[],
                        counts: &[],
                        records: 0,
                    }
                };
                max_group_bytes = max_group_bytes.max(group_bytes);
                let mut ctx = PhaseCtx::default();
                kernel(&mut ctx, k, &mut values, view, &mut sink, &mut out)?;
                metrics.flops += ctx.flops;
            }
            PhaseOut::finish(
                &params,
                n,
                metrics,
                out,
                sink,
                max_group_bytes,
                task_retries,
            )
        });
        // Every reducer has read its rows: the senders' spools go before
        // this phase's own are merged.
        drop(rows);
        self.merge_phase(name, RoundKind::Reduce, out_dim, row_agg, results)
    }

    /// Barrier: surface the first failure in ascending worker order, check
    /// the memory model, and hand the routed shards — both planes — to the
    /// shuffle [`Transport`]. Under a byte-moving backend each (mapper,
    /// destination) share of rows is packed into one contiguous bucket and
    /// the typed legacy records cross the wire through the `V` codec, and
    /// the transport concatenates both per destination in mapper order
    /// (the serial delivery order). In process, nothing is copied: rows stay
    /// in their spools behind per-destination index lists, and the typed
    /// records are concatenated in-engine.
    fn merge_phase<'a, V: Encode + Decode + Clone + Send>(
        &mut self,
        name: String,
        kind: RoundKind,
        row_dim: usize,
        agg: Option<&'a dyn FusedAggregator>,
        results: Vec<Result<PhaseOut<V>>>,
    ) -> Result<(KeyedData<V>, KeyedRows<'a>)> {
        let n = self.spec.workers;
        let mut metrics = Vec::with_capacity(n);
        let mut round_bytes = MessagePlaneBytes::default();
        let mut round_retries = 0u64;
        let mut routed_by_mapper: Vec<Vec<Vec<(u64, V)>>> = Vec::with_capacity(n);
        let mut spools: Vec<RowSpool> = Vec::with_capacity(n);
        let mut routes_by_mapper: Vec<Vec<Vec<u32>>> = Vec::with_capacity(n);
        for (w, r) in results.into_iter().enumerate() {
            let o = r.map_err(|e| e.in_phase(&name))?;
            self.spec
                .check_memory(w, o.peak)
                .map_err(|e| e.in_phase(&name))?;
            metrics.push(o.metrics);
            self.report.retries += o.retries;
            self.report.message_bytes.add(o.msg_bytes);
            round_retries += o.retries;
            round_bytes.add(o.msg_bytes);
            routed_by_mapper.push(o.routed);
            spools.push(o.spool);
            routes_by_mapper.push(o.routes);
        }
        let transport = std::sync::Arc::clone(&self.transport);
        let needs_bytes = transport.needs_bytes();
        let mut encoded_legacy: Vec<Option<Vec<EncodedKeyRecords>>> = if needs_bytes {
            (0..n)
                .map(|dst| {
                    Some(
                        routed_by_mapper
                            .iter()
                            .map(|m| {
                                m.get(dst)
                                    .map(|recs| {
                                        recs.iter().map(|(k, v)| (*k, v.to_bytes())).collect()
                                    })
                                    .unwrap_or_default()
                            })
                            .collect(),
                    )
                })
                .collect()
        } else {
            (0..n).map(|_| None).collect()
        };
        let mut rows = KeyedRows::empty(row_dim, n);
        rows.agg = agg;
        // A byte-moving transport gets, per destination, the packed bucket
        // of every mapper that sent it rows, ascending. In process the rows
        // stay in their spools and each destination keeps its senders'
        // index lists, ascending.
        let packed: Vec<Vec<RowSpool>> = if needs_bytes {
            (0..n)
                .map(|dst| {
                    spools
                        .iter()
                        .zip(&routes_by_mapper)
                        .filter(|(_, routes)| !routes[dst].is_empty())
                        .map(|(spool, routes)| spool.pack(&routes[dst]))
                        .collect()
                })
                .collect()
        } else {
            for (m, routes) in routes_by_mapper.into_iter().enumerate() {
                for (dst, at) in routes.into_iter().enumerate() {
                    if !at.is_empty() {
                        rows.per_worker[dst].push((m, at));
                    }
                }
            }
            rows.spools = spools;
            Vec::new()
        };
        let dests = encoded_legacy
            .iter_mut()
            .enumerate()
            .map(|(dst, legacy)| ConcatDest {
                dim: row_dim,
                // A destination no mapper sent rows to moves no row plane.
                buckets: packed.get(dst).filter(|b| !b.is_empty()).map(|b| {
                    b.iter()
                        .map(|s| BucketRef {
                            keys: &s.keys,
                            counts: &s.counts,
                            rows: &s.rows,
                        })
                        .collect()
                }),
                legacy: legacy.take(),
            })
            .collect();
        let exchanged = transport
            .exchange_concat(ConcatExchange { dests })
            .map_err(|e| e.in_phase(&name))?;
        drop(packed);
        self.report.wire_bytes += exchanged.wire_bytes;
        let mut routed: Vec<Vec<(u64, V)>> = (0..n).map(|_| Vec::new()).collect();
        for (dst, merged) in exchanged.dests.into_iter().enumerate() {
            if let Some(b) = merged.bucket {
                // What crossed the wire is one spool of its own.
                let all = (0..b.keys.len() as u32).collect();
                rows.per_worker[dst].push((rows.spools.len(), all));
                rows.spools.push(RowSpool {
                    keys: b.keys,
                    counts: b.counts,
                    rows: b.rows,
                });
            }
            if let Some(records) = merged.legacy {
                let typed = &mut routed[dst];
                typed.reserve(records.len());
                for (k, bytes) in records {
                    let v = V::from_bytes(&bytes).map_err(|e| e.in_phase(&name))?;
                    typed.push((k, v));
                }
            }
        }
        if !needs_bytes {
            // The typed legacy plane never left the engine: concatenate in
            // ascending mapper order, exactly the serial delivery order.
            for per_dest in routed_by_mapper {
                for (dst, mut recs) in per_dest.into_iter().enumerate() {
                    routed[dst].append(&mut recs);
                }
            }
        }
        if self.trace.enabled() {
            // Single-threaded barrier: the only place round telemetry is
            // emitted, so the trace is identical for every thread budget.
            let step = self.report.phases.len() as u64;
            let records: u64 = metrics.iter().map(|m| m.records_out).sum();
            for (w, m) in metrics.iter().enumerate() {
                self.trace.emit(
                    step,
                    Site::Worker(w as u32),
                    Payload::WorkerPhase {
                        phase: name.clone(),
                        records_in: m.records_in,
                        records_out: m.records_out,
                        bytes_in: m.bytes_in,
                        bytes_out: m.bytes_out,
                        flops: m.flops,
                        mem_peak: m.mem_peak,
                    },
                );
            }
            self.trace.emit(
                step,
                Site::Engine,
                Payload::Round {
                    phase: name.clone(),
                    kind,
                    records,
                    columnar_bytes: round_bytes.columnar,
                    legacy_bytes: round_bytes.legacy,
                    retries: round_retries,
                },
            );
        }
        self.report.push_phase(name, metrics);
        Ok((KeyedData { per_worker: routed }, rows))
    }
}

/// Charge a worker's emitted typed pairs to its metrics and route them to
/// their destination shards in emission order. Returns the total bytes
/// routed (the typed plane's message volume); each pair is sized once.
fn route_records<V: Encode>(
    params: &PhaseParams,
    emitted: Vec<(u64, V)>,
    metrics: &mut WorkerPhase,
    routed: &mut [Vec<(u64, V)>],
) -> u64 {
    let mut total = 0u64;
    for (k, v) in emitted {
        let len = params.wire_len(k, &v);
        metrics.send(len);
        routed[(params.partition_fn)(k, routed.len())].push((k, v));
        total += len;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use inferturbo_cluster::transport::{ConcatOut, Exchange, ExchangeOut, InProcess};
    use std::sync::Arc;

    fn engine(workers: usize) -> BatchEngine {
        BatchEngine::new(ClusterSpec::test_spec(workers))
    }

    /// The last round's records as a per-key map (keys unique).
    fn into_map<V>(data: KeyedData<V>) -> FxHashMap<u64, V> {
        data.into_iter().collect()
    }

    /// A map phase that ships typed records only: `row_dim = 0`, sink
    /// ignored.
    fn map_typed<I, V, M>(
        eng: &mut BatchEngine,
        name: &str,
        inputs: &[Vec<I>],
        make_map: impl Fn(usize) -> M + Sync,
    ) -> Result<KeyedData<V>>
    where
        I: Encode + Sync,
        V: Encode + Decode + Clone + Send,
        M: FnMut(&mut PhaseCtx, &I) -> Result<Vec<(u64, V)>>,
    {
        let make = |w| {
            let mut kernel = make_map(w);
            move |ctx: &mut PhaseCtx, rec: &I, _sink: &mut RowSink<'_>, out: &mut Vec<(u64, V)>| {
                out.extend(kernel(ctx, rec)?);
                Ok(())
            }
        };
        Ok(eng.map_phase(name, inputs, 0, make, None)?.0)
    }

    /// The reduce counterpart of [`map_typed`].
    fn reduce_typed<V, O, R>(
        eng: &mut BatchEngine,
        name: &str,
        data: KeyedData<V>,
        make_reduce: impl Fn(usize) -> R + Sync,
    ) -> Result<KeyedData<O>>
    where
        V: Encode + Decode + Clone + Send,
        O: Encode + Decode + Clone + Send,
        R: FnMut(&mut PhaseCtx, u64, Vec<V>) -> Result<Vec<(u64, O)>>,
    {
        let workers = eng.spec().workers;
        let make = |w| {
            let mut kernel = make_reduce(w);
            move |ctx: &mut PhaseCtx,
                  key,
                  values: &mut Vec<V>,
                  view: RowsView<'_>,
                  _sink: &mut RowSink<'_>,
                  out: &mut Vec<(u64, O)>| {
                assert!(view.is_empty(), "typed-only chain");
                out.extend(kernel(ctx, key, std::mem::take(values))?);
                Ok(())
            }
        };
        let rows = KeyedRows::empty(0, workers);
        Ok(eng.reduce_phase(name, data, rows, 0, make, None)?.0)
    }

    /// Word-count style pipeline: map words → (hash, 1), reduce sums.
    #[test]
    fn map_reduce_counts_keys() {
        let mut eng = engine(4);
        let inputs: Vec<u64> = vec![1, 2, 1, 3, 1, 2];
        let parts = eng.scatter_inputs(inputs);
        let keyed = map_typed(&mut eng, "map", &parts, |_w| {
            |_ctx: &mut PhaseCtx, &rec: &u64| Ok(vec![(rec, 1.0f32)])
        })
        .unwrap();
        assert_eq!(keyed.len(), 6);
        let reduced = reduce_typed(&mut eng, "reduce", keyed, |_w| {
            |_ctx: &mut PhaseCtx, k, vals: Vec<f32>| Ok(vec![(k, vals.iter().sum::<f32>())])
        })
        .unwrap();
        let m = into_map(reduced);
        assert_eq!(m[&1], 3.0);
        assert_eq!(m[&2], 2.0);
        assert_eq!(m[&3], 1.0);
    }

    #[test]
    fn chained_rounds_propagate() {
        // Round 1 doubles values, round 2 negates; chain through reduce.
        let mut eng = engine(2);
        let parts = eng.scatter_inputs(vec![5u64, 6]);
        let keyed = map_typed(&mut eng, "m", &parts, |_w| {
            |_c: &mut PhaseCtx, &r: &u64| Ok(vec![(r, r as f32)])
        })
        .unwrap();
        let r1 = reduce_typed(&mut eng, "r1", keyed, |_w| {
            |_c: &mut PhaseCtx, k, v: Vec<f32>| Ok(vec![(k, v[0] * 2.0)])
        })
        .unwrap();
        let r2 = reduce_typed(&mut eng, "r2", r1, |_w| {
            |_c: &mut PhaseCtx, k, v: Vec<f32>| Ok(vec![(k, -v[0])])
        })
        .unwrap();
        let m = into_map(r2);
        assert_eq!(m[&5], -10.0);
        assert_eq!(m[&6], -12.0);
        assert_eq!(eng.report().phases.len(), 3);
    }

    #[test]
    fn reducer_memory_is_largest_group_not_partition() {
        // One giant key group and many tiny ones on the same worker: the
        // peak must track the giant group only.
        let mut eng = BatchEngine::new(ClusterSpec::test_spec(1));
        let parts = eng.scatter_inputs((0..100u64).collect());
        let keyed = map_typed(&mut eng, "m", &parts, |_w| {
            |_c: &mut PhaseCtx, &r: &u64| {
                Ok(if r < 50 {
                    vec![(7u64, vec![0.0f32; 100])] // giant group at key 7
                } else {
                    vec![(r, vec![0.0f32; 1])]
                })
            }
        })
        .unwrap();
        let out = reduce_typed(&mut eng, "r", keyed, |_w| {
            |_c: &mut PhaseCtx, k, _v: Vec<Vec<f32>>| Ok(vec![(k, 0u32)])
        })
        .unwrap();
        drop(out);
        let peak = eng.report().phases[1].per_worker[0].mem_peak;
        // giant group: 50 records × ~405 bytes ≈ 20 KB; whole partition
        // would be ≈ 20.4 KB; tiny groups ≈ 9 bytes. Peak must be within
        // the giant group's size, not the sum of all groups.
        let giant = 50 * (varint_len(7) as u64 + vec![0.0f32; 100].encoded_len() as u64 + 2);
        assert_eq!(peak, giant);
    }

    #[test]
    fn oversized_group_triggers_oom() {
        let spec = ClusterSpec::test_spec(1).with_memory(64);
        let mut eng = BatchEngine::new(spec);
        let parts = eng.scatter_inputs(vec![0u64; 10]);
        let keyed = map_typed(&mut eng, "m", &parts, |_w| {
            |_c: &mut PhaseCtx, _: &u64| Ok(vec![(1u64, vec![1.0f32; 8])])
        })
        .unwrap();
        let err = reduce_typed(&mut eng, "r", keyed, |_w| {
            |_c: &mut PhaseCtx, k, _v: Vec<Vec<f32>>| Ok(vec![(k, 0u32)])
        })
        .unwrap_err();
        assert!(err.is_oom());
        assert!(err.to_string().contains("phase `r`"));
    }

    #[test]
    fn phases_are_deterministic() {
        let run = || {
            let mut eng = engine(4);
            let parts = eng.scatter_inputs((0..200u64).collect());
            let keyed = map_typed(&mut eng, "m", &parts, |_w| {
                |_c: &mut PhaseCtx, &r: &u64| Ok(vec![(r % 13, r as f32)])
            })
            .unwrap();
            let out = reduce_typed(&mut eng, "r", keyed, |_w| {
                |_c: &mut PhaseCtx, k, v: Vec<f32>| Ok(vec![(k, v.iter().sum::<f32>())])
            })
            .unwrap();
            let mut pairs: Vec<(u64, f32)> = into_map(out).into_iter().collect();
            pairs.sort_by_key(|&(k, _)| k);
            (pairs, eng.report().total_bytes())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn flops_feed_cost_model() {
        let mut eng = engine(1);
        let parts = eng.scatter_inputs(vec![0u64]);
        let keyed = map_typed(&mut eng, "m", &parts, |_w| {
            |ctx: &mut PhaseCtx, &r: &u64| {
                ctx.add_flops(2.0e6); // 2 s at 1e6 flops/s
                Ok(vec![(r, 0.0f32)])
            }
        })
        .unwrap();
        drop(keyed);
        let p = &eng.report().phases[0];
        assert!(p.worker_secs[0] >= 2.0);
    }

    #[test]
    fn input_bytes_charged_on_consuming_phase() {
        let mut eng = engine(2);
        let parts = eng.scatter_inputs(vec![1u64, 2]);
        let keyed = map_typed(&mut eng, "m", &parts, |_w| {
            |_c: &mut PhaseCtx, &r: &u64| Ok(vec![(r, vec![1.0f32; 16])])
        })
        .unwrap();
        let map_out: u64 = eng.report().phases[0].bytes_out_total();
        let out = reduce_typed(&mut eng, "r", keyed, |_w| {
            |_c: &mut PhaseCtx, k, _: Vec<Vec<f32>>| Ok(vec![(k, 0u32)])
        })
        .unwrap();
        drop(out);
        let reduce_in: u64 = eng.report().phases[1].bytes_in_total();
        assert_eq!(map_out, reduce_in, "shuffle bytes conserved");
        assert!(map_out > 0);
    }

    #[test]
    fn kernel_errors_surface_from_lowest_worker() {
        let mut eng = engine(3);
        let parts = eng.scatter_inputs((0..9u64).collect());
        let err = map_typed(&mut eng, "boom", &parts, |w| {
            move |_c: &mut PhaseCtx, _r: &u64| -> Result<Vec<(u64, f32)>> {
                Err(inferturbo_common::Error::InvalidGraph(format!(
                    "worker {w} exploded"
                )))
            }
        })
        .unwrap_err();
        assert!(err.to_string().contains("worker 0"), "{err}");
        assert!(err.to_string().contains("phase `boom`"), "{err}");
    }

    struct SumAgg;
    impl FusedAggregator for SumAgg {
        fn identity(&self) -> f32 {
            0.0
        }
        fn accumulate(&self, acc: &mut [f32], row: &[f32]) {
            for (a, b) in acc.iter_mut().zip(row) {
                *a += b;
            }
        }
    }

    /// An in-process transport that asks for bytes: the engine packs every
    /// (mapper, destination) share of rows into a contiguous bucket and
    /// encodes the typed records, exactly as for a worker process.
    #[derive(Debug)]
    struct Packing;
    impl Transport for Packing {
        fn name(&self) -> &'static str {
            "packing"
        }
        fn needs_bytes(&self) -> bool {
            true
        }
        fn exchange(&self, ex: Exchange<'_>) -> Result<ExchangeOut> {
            InProcess.exchange(ex)
        }
        fn exchange_concat(&self, ex: ConcatExchange<'_>) -> Result<ConcatOut> {
            InProcess.exchange_concat(ex)
        }
    }

    /// Lane 0 of input `r`'s row: the first row each mapper emits for a
    /// key carries that mapper's magnitude, every later one 0. The three
    /// magnitudes sum to 3 in ascending mapper order only — descending,
    /// `3 + -1e8` rounds to `-1e8` and the sum is 0 — so the lane records
    /// the order partials and rows were folded in, whether or not the
    /// mappers combined their own rows first.
    fn order_lane(r: u64) -> f32 {
        if r < 15 {
            [1e8, -1e8, 3.0][r as usize % 3]
        } else {
            0.0
        }
    }

    /// Drive one map+reduce chain over the columnar plane: every input
    /// emits a dim-2 row `[order_lane(r), 1.0]` keyed by `r % 5` plus a
    /// legacy marker record; the reducer must see both planes in the same
    /// key group and fold the rows (honouring fused counts).
    fn run_row_chain(fused: bool, threads: usize) -> (Vec<(u64, Vec<u32>)>, u64, u64) {
        run_row_chain_via(Arc::new(InProcess), fused, threads)
    }

    fn run_row_chain_via(
        transport: Arc<dyn Transport>,
        fused: bool,
        threads: usize,
    ) -> (Vec<(u64, Vec<u32>)>, u64, u64) {
        use inferturbo_common::Parallelism;
        Parallelism::with(threads, || {
            let mut eng = engine(3).with_transport(transport);
            let parts = eng.scatter_inputs((0..200u64).collect());
            let agg: Option<&dyn FusedAggregator> = if fused { Some(&SumAgg) } else { None };
            let (keyed, rows) = eng
                .map_phase(
                    "m",
                    &parts,
                    2,
                    |_w| {
                        |_c: &mut PhaseCtx,
                         &r: &u64,
                         sink: &mut RowSink<'_>,
                         out: &mut Vec<(u64, u32)>| {
                            sink.send_row(r % 5, &[order_lane(r), 1.0]);
                            out.push((r % 5, 1u32));
                            Ok(())
                        }
                    },
                    agg,
                )
                .unwrap();
            assert_eq!(rows.dim(), 2);
            assert_eq!(rows.raw_message_count(), 200);
            let (out, out_rows) = eng
                .reduce_phase(
                    "r",
                    keyed,
                    rows,
                    0,
                    |_w| {
                        |_c: &mut PhaseCtx,
                         k,
                         values: &mut Vec<u32>,
                         view: RowsView<'_>,
                         _sink: &mut RowSink<'_>,
                         out: &mut Vec<(u64, Vec<f32>)>|
                         -> Result<()> {
                            let mut sum = [0.0f32; 2];
                            let mut count = 0u32;
                            for i in 0..view.n_rows() {
                                for (a, b) in sum.iter_mut().zip(view.row(i)) {
                                    *a += b;
                                }
                                count += view.counts[i];
                            }
                            assert_eq!(values.len() as u32, count, "legacy markers == raw rows");
                            // One partial per mapper when fused, combined
                            // into one row; one record per row otherwise.
                            assert_eq!(view.records, if fused { 3 } else { 40 });
                            assert_eq!(view.n_rows(), if fused { 1 } else { 40 });
                            out.push((k, vec![sum[0], sum[1], count as f32]));
                            Ok(())
                        }
                    },
                    None,
                )
                .unwrap();
            assert!(out_rows.is_empty());
            // The reducer sizes each record once, inside the grouping
            // sweep; that one pass must still conserve the shuffle (what
            // the map phase sent is what the reduce phase fetched) and
            // find the largest group. Every key group here has the same
            // shape: 40 markers plus 40 raw rows, or one partial row per
            // mapper when fused (counts 13–14, a 1-byte varint).
            let (map, reduce) = (&eng.report().phases[0], &eng.report().phases[1]);
            assert_eq!(map.bytes_out_total(), reduce.bytes_in_total());
            let sent: u64 = map.per_worker.iter().map(|m| m.records_out).sum();
            let fetched: u64 = reduce.per_worker.iter().map(|m| m.records_in).sum();
            assert_eq!(sent, fetched);
            let params = eng.params();
            let rows_per_group = if fused { 3 } else { 40 };
            let group = 40 * params.wire_len(0, &1u32)
                + rows_per_group * params.row_wire_len(0, 2, if fused { 13 } else { 1 });
            for m in reduce.per_worker.iter().filter(|m| m.records_in > 0) {
                assert_eq!(m.mem_peak, group, "fused={fused}");
            }
            let mut pairs: Vec<(u64, Vec<u32>)> = into_map(out)
                .into_iter()
                .map(|(k, v)| (k, v.iter().map(|x| x.to_bits()).collect()))
                .collect();
            pairs.sort_by_key(|&(k, _)| k);
            let columnar = eng.report().message_bytes.columnar;
            let total = eng.report().total_bytes();
            (pairs, columnar, total)
        })
    }

    #[test]
    fn row_phases_group_both_planes_by_key() {
        let (pairs, columnar, _) = run_row_chain(false, 1);
        assert_eq!(pairs.len(), 5);
        assert!(columnar > 0);
        for (k, bits) in &pairs {
            // 40 inputs per key; second lane sums the 1.0 markers
            assert_eq!(f32::from_bits(bits[1]), 40.0, "key {k}");
            assert_eq!(f32::from_bits(bits[2]), 40.0, "key {k}");
        }
    }

    #[test]
    fn fused_rows_reduce_shuffle_volume_not_results() {
        let (plain, plain_cols, _) = run_row_chain(false, 1);
        let (fused, fused_cols, _) = run_row_chain(true, 1);
        assert_eq!(plain, fused, "fused in-mapper aggregation changed sums");
        // 200 row records shrink to ≤ workers × keys partial rows.
        assert!(
            fused_cols * 4 < plain_cols,
            "fusion must shrink columnar shuffle: {fused_cols} vs {plain_cols}"
        );
    }

    #[test]
    fn row_phases_deterministic_across_thread_counts() {
        for fused in [false, true] {
            let serial = run_row_chain(fused, 1);
            let parallel = run_row_chain(fused, 4);
            assert_eq!(serial, parallel, "fused={fused}");
        }
    }

    /// The reducer's combine (fused) and its counting scatter (unfused)
    /// must hand the kernel the rows' fold in ascending-mapper, emission
    /// order: compare lane 0's bits with that serial fold, copy-on-first.
    #[test]
    fn combine_keeps_fold_order_exactly() {
        let reference: Vec<u32> = (0..5u64)
            .map(|k| {
                let mut acc: Option<f32> = None;
                for m in 0..3u64 {
                    for r in (m..200).step_by(3).filter(|r| r % 5 == k) {
                        let v = order_lane(r);
                        acc = Some(acc.map_or(v, |a| a + v));
                    }
                }
                acc.unwrap_or(0.0).to_bits()
            })
            .collect();
        assert!(
            reference.iter().all(|&b| f32::from_bits(b) == 3.0),
            "the lane is order-sensitive"
        );
        for fused in [false, true] {
            for threads in [1, 4] {
                let (pairs, _, _) = run_row_chain(fused, threads);
                let got: Vec<u32> = pairs.iter().map(|(_, bits)| bits[0]).collect();
                assert_eq!(got, reference, "fused={fused} threads={threads}");
            }
        }
    }

    /// A byte-moving transport gets contiguous buckets packed from the
    /// spools' index lists, and its reducers read what crossed: the same
    /// rows in the same order, so the same bits and the same accounting.
    #[test]
    fn packed_buckets_match_rows_read_in_place() {
        for fused in [false, true] {
            assert_eq!(
                run_row_chain_via(Arc::new(Packing), fused, 2),
                run_row_chain(fused, 2),
                "fused={fused}"
            );
        }
    }

    #[test]
    fn injected_task_failures_retry_idempotently() {
        use inferturbo_cluster::{FaultPlan, FaultSite};
        let run = |plan: Option<FaultPlan>| {
            let mut eng = engine(3).with_fault_injector(plan.map(|p| p.injector()));
            let parts = eng.scatter_inputs((0..60u64).collect());
            let keyed = map_typed(&mut eng, "m", &parts, |_w| {
                |_c: &mut PhaseCtx, &r: &u64| Ok(vec![(r % 7, r as f32)])
            })
            .unwrap();
            let out = reduce_typed(&mut eng, "r", keyed, |_w| {
                |_c: &mut PhaseCtx, k, v: Vec<f32>| Ok(vec![(k, v.iter().sum::<f32>())])
            })
            .unwrap();
            let mut pairs: Vec<(u64, u32)> = into_map(out)
                .into_iter()
                .map(|(k, v)| (k, v.to_bits()))
                .collect();
            pairs.sort_by_key(|&(k, _)| k);
            (pairs, eng.report().total_bytes(), eng.report().retries)
        };
        let plan = FaultPlan::new()
            .and_fail(FaultSite::MapTask {
                worker: 0,
                round: 0,
            })
            .and_fail_times(
                FaultSite::ReduceTask {
                    worker: 2,
                    round: 0,
                },
                2,
            );
        let (clean, clean_bytes, clean_retries) = run(None);
        let (faulty, faulty_bytes, faulty_retries) = run(Some(plan));
        assert_eq!(clean, faulty, "task retry changed results");
        assert_eq!(clean_bytes, faulty_bytes, "task retry double-counted bytes");
        assert_eq!(clean_retries, 0);
        assert_eq!(faulty_retries, 3, "one map + two reduce re-launches");
    }

    #[test]
    fn task_retry_exhaustion_surfaces_the_lost_worker() {
        use inferturbo_cluster::{FaultPlan, FaultSite};
        let plan = FaultPlan::new().and_fail_times(
            FaultSite::MapTask {
                worker: 1,
                round: 0,
            },
            10,
        );
        let mut eng = engine(2)
            .with_fault_injector(Some(plan.injector()))
            .with_task_retries(2);
        let parts = eng.scatter_inputs(vec![1u64, 2, 3]);
        let err = map_typed(&mut eng, "m", &parts, |_w| {
            |_c: &mut PhaseCtx, &r: &u64| Ok(vec![(r, 1.0f32)])
        })
        .unwrap_err();
        assert!(err.is_transient(), "{err}");
        assert!(err.to_string().contains("map task"), "{err}");
        assert!(err.to_string().contains("phase `m`"), "{err}");
    }

    #[test]
    fn per_worker_kernel_state_is_isolated() {
        // Each worker's kernel counts its own records; counts must reflect
        // the round-robin scatter, proving kernels are not shared.
        use std::sync::atomic::{AtomicU64, Ordering};
        let counts: Vec<AtomicU64> = (0..3).map(|_| AtomicU64::new(0)).collect();
        let mut eng = engine(3);
        let parts = eng.scatter_inputs((0..10u64).collect());
        let counts_ref = &counts;
        let keyed = map_typed(&mut eng, "m", &parts, |w| {
            move |_c: &mut PhaseCtx, &r: &u64| {
                counts_ref[w].fetch_add(1, Ordering::Relaxed);
                Ok(vec![(r, 1.0f32)])
            }
        })
        .unwrap();
        assert_eq!(keyed.len(), 10);
        let got: Vec<u64> = counts.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        assert_eq!(got, vec![4, 3, 3]);
    }
}
