//! Phase execution, shuffling, and IO/memory accounting.
//!
//! # Execution model
//!
//! A phase — map or reduce — is a round of the row barrier both engines
//! share ([`RowBarrier`]): each worker is a sender, runs its own kernel
//! instance (built by a per-worker factory, so kernels may hold per-worker
//! mutable state such as a broadcast table) through
//! [`RowBarrier::compute`], and the barrier decides how many run at once
//! under the global [`inferturbo_common::Parallelism`] budget. Every
//! destination receives its senders' shares in ascending mapper order —
//! exactly the order the serial loop produced — so results and byte
//! accounting are identical for every thread count. The shuffle's
//! partitioning is what makes this safe: each worker *is* a disjoint key
//! range.
//!
//! An engine runs over a [`Layout`]: the plan's placement of every vertex
//! on a worker's slot table. The layout is the row plane's address space
//! (a row is bound for a destination vertex by its route, and lands in
//! that worker's cell under the slot), and a reducer's key order: it
//! visits its keys in ascending vertex id, which the layout gives without
//! a sort ([`Layout::slots_by_id`]). A reducer reads its rows grouped by
//! slot, as the producing phase's barrier sealed them, in arrival order
//! (ascending mapper, emission order within a mapper), and merge-joins
//! them with its typed records, which it stable-sorts by key. That keeps
//! the external-sort semantics the kernels are written against —
//! ascending keys, arrival order inside a group — with no hash and no
//! sort of the row plane. The typed plane's keys are partitioned by the
//! engine's partition function, which must place a vertex's id on the
//! worker the layout places it, so a key's typed records and rows meet.
//!
//! # Two shuffle planes
//!
//! Every phase shuffles typed keyed records (the pairs a kernel pushes)
//! and, alongside them, fixed-width `f32` rows: kernels scatter a row over
//! a span of routes into their [`RowSink`], the task's row of the
//! barrier's grid, with no per-record heap object. When a phase provides a
//! fold ([`AggKind`], the one set both engines and the wire know), rows
//! fold into one partial per destination slot as they are scattered — the
//! in-mapper combiner the Pregel engine's senders run too — shrinking
//! shuffle volume from one row per edge to one partial row per (worker,
//! destination vertex); in process the barrier folds each wave of tasks'
//! partials into the reducers' accumulators as it ends (Hadoop's
//! reduce-side combine), so a kernel sees one row per key. Without a fold,
//! a key's rows are lent where their mapper wrote them. Either way the
//! reducer reads them as a Pregel vertex reads its inbox: a [`RowsIn`]
//! lent out of its sealed inbox ([`MergedCols::lend`]). A phase that ships
//! no rows passes `row_dim = 0` and ignores its sink. The typed records
//! stay in the engine in process; a transport that moves bytes gets them
//! encoded beside the barrier's buckets.
//!
//! # Sized from the plan
//!
//! A phase given [`Sizes`] reserves every task's row cells and its typed
//! output vector at exactly the plan's counts, so no buffer grows while it
//! is written; a debug build checks each cell, each typed vector and each
//! reducer's groups against the plan's counts. The byte accounting models
//! the deployment's wire format whatever the buffers hold: a row record is
//! charged its framing plus its destination's id as a varint key — once,
//! as the barrier folds or seals it — and a typed record its key and
//! [`Encode::encoded_len`].

use inferturbo_cluster::barrier::{GridPool, GridRow, Reserve, RowBarrier, RowPlane, Tally};
use inferturbo_cluster::transport::{
    self, frame::EncodedKeyRecords, MergedCols, RowsIn, Transport,
};
use inferturbo_cluster::{ClusterSpec, FaultInjector, MessagePlaneBytes, RunReport, WorkerPhase};
use inferturbo_common::codec::{varint_len, Decode, Encode, WireReader};
use inferturbo_common::hash::partition_of;
use inferturbo_common::layout::{CellCounts, Layout};
use inferturbo_common::rows::{row_payload_len, AggKind};
use inferturbo_common::{Error, Result};
use inferturbo_obs::{Payload, RoundKind, Site, TraceHandle};
use std::sync::Arc;

/// A value of the typed plane. It encodes as itself; what a byte-moving
/// transport hands back decodes with its key against the engine's layout,
/// so a value may hold handles into the layout that its bytes name by id.
/// Every plain [`Decode`] value is one.
pub trait Shuffled<'l>: Encode + Clone + Send + Sized {
    fn decode_keyed(key: u64, r: &mut WireReader<'_>, layout: &'l Layout) -> Result<Self>;
}

impl<'l, T: Encode + Decode + Clone + Send> Shuffled<'l> for T {
    fn decode_keyed(_key: u64, r: &mut WireReader<'_>, _layout: &'l Layout) -> Result<Self> {
        T::decode(r)
    }
}

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

/// One reducer's charge for the rows that reach it, per slot: the shuffle
/// records and their wire bytes, each record sized once as the row
/// barrier folds or seals it — the same number is the fetch of the
/// reducer's shuffle partition and its share of the group's residency.
struct Charge<'l> {
    /// The reducer's slot table: the key each record is framed with.
    ids: &'l [u64],
    dim: usize,
    params: PhaseParams,
    records: Vec<u32>,
    bytes: Vec<u64>,
}

impl<'l> Charge<'l> {
    /// A charge over `slots` of the reducer whose slot table is `ids`.
    fn new(ids: &'l [u64], dim: usize, params: PhaseParams, slots: usize) -> Self {
        Charge {
            ids,
            dim,
            params,
            records: vec![0; slots],
            bytes: vec![0; slots],
        }
    }

    /// Charge every record's fetch to `metrics`.
    fn fetch(&self, metrics: &mut WorkerPhase) {
        metrics.records_in += self.records.iter().map(|&r| u64::from(r)).sum::<u64>();
        metrics.bytes_in += self.bytes.iter().sum::<u64>();
    }

    /// The touched slots, in ascending id order: the reducer's row keys.
    fn slots_by_id(&self, layout: &Layout, w: usize) -> Vec<u32> {
        if self.records.is_empty() {
            return Vec::new();
        }
        let touched = |&s: &u32| self.records[s as usize] > 0;
        layout.slots_by_id(w).filter(touched).collect()
    }
}

impl Tally for Charge<'_> {
    fn record(&mut self, slot: u32, count: u32) {
        let s = slot as usize;
        self.records[s] += 1;
        self.bytes[s] += self.params.row_wire_len(self.ids[s], self.dim, count);
    }
}

/// Keyed columnar rows routed to their destination workers — the columnar
/// counterpart of [`KeyedData`], produced and consumed by the same phases:
/// each destination's inbox as the producing phase's row barrier sealed
/// it, with the charge of its records.
pub struct KeyedRows<'l> {
    dim: usize,
    per_worker: Vec<(MergedCols, Charge<'l>)>,
}

impl std::fmt::Debug for KeyedRows<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyedRows")
            .field("dim", &self.dim)
            .field("rows", &self.len())
            .field("workers", &self.per_worker.len())
            .finish()
    }
}

impl KeyedRows<'_> {
    /// An empty plane (used to start a chain, or by phases with no row
    /// traffic).
    pub fn empty(dim: usize, workers: usize) -> Self {
        let none = || {
            (
                MergedCols::None,
                Charge::new(&[], dim, PhaseParams::NONE, 0),
            )
        };
        KeyedRows {
            dim,
            per_worker: (0..workers).map(|_| none()).collect(),
        }
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Total row records across all workers.
    pub fn len(&self) -> usize {
        let records = self.per_worker.iter().flat_map(|(_, c)| &c.records);
        records.map(|&r| r as usize).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// What a phase's buffers will hold, counted at plan time. A phase given
/// counts reserves each task's row cells and typed output vector exactly,
/// and hands its consumer the group counts its rows form; a debug build
/// checks every buffer against its count. The default counts nothing:
/// every buffer then grows as it is written.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sizes<'p> {
    /// Rows per (task, destination worker) cell, the tasks being the
    /// phase's senders: fused partials when the phase fuses, else
    /// references. Its receivers are the slots the rows reach.
    pub cells: Option<&'p CellCounts>,
    /// Typed records each task emits.
    pub typed: Option<&'p [usize]>,
}

/// The sink handed to phase kernels: the task's row of the phase's row
/// barrier grid. A row scattered over a span of routes is written once
/// and referenced per route, or — when the phase has a fold — folded into
/// each destination slot's partial, copy-on-first: Hadoop-style in-mapper
/// combining.
pub type RowSink<'a> = GridRow<'a>;

/// Charge every row a task's sink holds as output — its framing, count and
/// destination id ([`PhaseParams::row_wire_len`]) — and return the
/// columnar bytes sent and the resident bytes the sink holds, charged to
/// the worker's memory peak: the in-mapper fused accumulators only (lanes
/// plus a 12-byte key and count each). Plain rows model as streamed to
/// the shuffle (like the typed records), so they cost shuffle bytes, not
/// resident memory.
fn send_rows(params: &PhaseParams, sink: &RowSink<'_>, metrics: &mut WorkerPhase) -> (u64, u64) {
    let (mut columnar, mut partials) = (0u64, 0u64);
    for d in 0..params.workers {
        let (records, bytes) = sink.shipped(d, true);
        let bytes = bytes + records * params.record_overhead;
        metrics.records_out += records;
        metrics.bytes_out += bytes;
        columnar += bytes;
        partials += records;
    }
    let held = match (sink.fuses(), sink.dim()) {
        (true, Some(dim)) => partials * (dim as u64 * 4 + 12),
        _ => 0,
    };
    (columnar, held)
}

/// Per-record context passed to map/reduce kernels for cost reporting.
#[derive(Default)]
pub struct PhaseCtx {
    /// Floating-point operations performed by the kernel on this record.
    pub flops: f64,
    /// Encoded bytes of the input record a map kernel read from its split.
    read: u64,
    /// Shuffle records a reduce kernel's rows stand for.
    records: usize,
}

impl PhaseCtx {
    /// Shuffle records behind the rows a reduce kernel is lent: one per
    /// row, or one per sender's partial when the producing phase fused —
    /// not [`RowsIn::count`], which counts the raw messages folded into
    /// them. 0 in a map kernel.
    pub fn records(&self) -> usize {
        self.records
    }

    pub fn add_flops(&mut self, f: f64) {
        self.flops += f;
    }

    /// Charge the encoded bytes of the input record a map kernel reads:
    /// its split's share of the job input.
    pub fn read(&mut self, bytes: u64) {
        self.read += bytes;
    }
}

/// The plain-data subset of the engine a worker task needs; `Copy` so the
/// fork-join closures can capture it without borrowing the engine.
#[derive(Clone, Copy)]
struct PhaseParams {
    workers: usize,
    partition_fn: fn(u64, usize) -> usize,
    record_overhead: u64,
}

impl PhaseParams {
    /// The parameters of a charge that records nothing.
    const NONE: PhaseParams = PhaseParams {
        workers: 0,
        partition_fn: partition_of,
        record_overhead: 0,
    };

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
/// scheduled injection for the task and absorbs up to
/// [`MAX_TASK_RETRIES`] firings by modelling a task re-launch: the fault
/// fires *before* the task consumes its (immutable) input, and the
/// in-process kernels are deterministic, so a re-launched task is
/// bit-identical to one that never failed — the retry costs scheduling
/// time, not correctness.
struct TaskGate {
    faults: Option<FaultInjector>,
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
            if retries >= u64::from(MAX_TASK_RETRIES) {
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
    /// Modelled peak resident bytes, checked against the spec at the merge.
    peak: u64,
    /// Message volume by plane.
    msg_bytes: MessagePlaneBytes,
    /// Injected task failures this worker absorbed by re-launching.
    retries: u64,
}

impl<V: Encode> PhaseOut<V> {
    /// Close task `w`: route its typed records and charge the rows its sink
    /// holds, each record charged as output once. `held` is the task's
    /// modelled residency beside the sink's fused accumulators.
    #[expect(
        clippy::too_many_arguments,
        reason = "a task's closing state, each part produced by a different stage of the task"
    )]
    fn finish(
        params: &PhaseParams,
        w: usize,
        sizes: &Sizes<'_>,
        mut metrics: WorkerPhase,
        out: Vec<(u64, V)>,
        sink: &RowSink<'_>,
        held: u64,
        retries: u64,
    ) -> Self {
        if let Some(planned) = sizes.typed.map(|t| t[w]) {
            debug_assert!(
                out.len() == planned && out.capacity() == planned,
                "task {w} emitted {} of {planned} typed records planned, capacity {}",
                out.len(),
                out.capacity()
            );
        }
        let (routed, legacy) = route_records(params, params.workers, out, &mut metrics);
        let (columnar, partials) = send_rows(params, sink, &mut metrics);
        let peak = held + partials;
        metrics.touch_mem(peak);
        PhaseOut {
            metrics,
            routed,
            peak,
            msg_bytes: MessagePlaneBytes { columnar, legacy },
            retries,
        }
    }
}

/// How many times an injected task failure is absorbed by re-launching
/// the task before the job fails (Hadoop's `mapreduce.map.maxattempts`
/// analogue). Task retry is idempotent by construction: a task's input —
/// its HDFS split or sorted shuffle partition — is immutable, and the
/// fault fires before the task consumes anything, so the re-run is
/// bit-identical. Absorbed failures count on [`RunReport::retries`].
const MAX_TASK_RETRIES: u32 = 3;

/// The batch engine. Owns the cluster spec and accumulates a [`RunReport`]
/// across phases over the layout it borrows; one engine instance = one
/// job chain.
pub struct BatchEngine<'l> {
    spec: ClusterSpec,
    layout: &'l Layout,
    partition_fn: fn(u64, usize) -> usize,
    /// Fixed per-record overhead bytes modelling shuffle framing.
    record_overhead: u64,
    report: RunReport,
    /// Armed fault schedule (deterministic injection). `None` — the
    /// default — costs nothing. Armed only by an explicit
    /// [`BatchEngine::with_fault_injector`].
    faults: Option<FaultInjector>,
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

impl<'l> BatchEngine<'l> {
    /// An engine over `layout`, which must lay out `spec.workers` workers.
    pub fn new(spec: ClusterSpec, layout: &'l Layout) -> Self {
        assert_eq!(
            layout.n_workers(),
            spec.workers,
            "the layout must lay out the cluster's workers"
        );
        BatchEngine {
            spec,
            layout,
            partition_fn: partition_of,
            record_overhead: 2,
            report: RunReport::new(spec),
            faults: None,
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
            workers: self.spec.workers,
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
        };
        (gate, round)
    }

    /// Task gate and round index for the next reduce phase.
    fn reduce_gate(&mut self) -> (TaskGate, usize) {
        let round = self.reduce_rounds;
        self.reduce_rounds += 1;
        let gate = TaskGate {
            faults: self.faults.clone(),
        };
        (gate, round)
    }

    /// Map phase: `inputs` input records → routed keyed pairs plus
    /// fixed-width rows of `row_dim` emitted through a [`RowSink`].
    ///
    /// The records are split round-robin, as HDFS splits are oblivious to
    /// record keys: worker `w` reads records `w, w + workers, …` in
    /// ascending order, handing each index to its kernel, which charges
    /// the record's encoded bytes ([`PhaseCtx::read`]).
    /// `make_map(worker)` builds the kernel each worker runs — one instance
    /// per worker, so kernels may carry per-worker mutable state. A kernel
    /// pushes its keyed pairs onto the task's output vector, which it
    /// receives as its last argument. Workers execute in parallel, through
    /// the phase's row barrier; emitted pairs and rows are charged as
    /// shuffle output. With `row_agg` set, emitted rows fold into per-slot
    /// partials at the sender (fused in-mapper aggregation), and the
    /// barrier folds those into each reducer's inbox with the same fold.
    /// `sizes`, when counted, are per mapper. The first failure in
    /// ascending worker order is surfaced, like the serial loop.
    pub fn map_phase<V, M, F>(
        &mut self,
        name: impl Into<String>,
        inputs: usize,
        row_dim: usize,
        make_map: F,
        row_agg: Option<AggKind>,
        sizes: Sizes<'_>,
    ) -> Result<(KeyedData<V>, KeyedRows<'l>)>
    where
        V: Shuffled<'l>,
        M: FnMut(&mut PhaseCtx, usize, &mut RowSink<'_>, &mut Vec<(u64, V)>) -> Result<()>,
        F: Fn(usize) -> M + Sync,
    {
        let name = name.into();
        let n = self.spec.workers;
        let params = self.params();
        let (gate, round) = self.map_gate();
        let (transport, mut pool) = (Arc::clone(&self.transport), GridPool::default());
        let plane = (row_dim, row_agg);
        let mut barrier = open_barrier(self.layout, &*transport, params, plane, &sizes, &mut pool);

        let results = barrier.compute(vec![(); n], |w, (), sink| {
            let task_retries = gate.admit(|inj| inj.map_task(w, round))?;
            let mut metrics = WorkerPhase::default();
            let mut kernel = make_map(w);
            let mut out: Vec<(u64, V)> = Vec::with_capacity(sizes.typed.map_or(0, |t| t[w]));
            for i in (w..inputs).step_by(n) {
                let mut ctx = PhaseCtx::default();
                kernel(&mut ctx, i, sink, &mut out)?;
                metrics.recv(ctx.read + params.record_overhead);
                metrics.flops += ctx.flops;
            }
            // Mapper memory: typed records stream to the shuffle; only the
            // row sink's fused accumulators stay resident.
            let out = PhaseOut::finish(&params, w, &sizes, metrics, out, sink, 0, task_retries);
            Ok(out)
        });
        let sealed = (barrier, &mut pool, plane);
        self.merge_phase(name, RoundKind::Map, sealed, &sizes, results)
    }

    /// Reduce phase: group each worker's shuffle partition — typed records
    /// and rows — by key, run its kernel per group, and route the emitted
    /// pairs and `out_dim`-wide rows onward.
    ///
    /// Workers run in parallel, through the phase's row barrier — each
    /// worker's partition is a disjoint key range by construction of the
    /// shuffle. Within a worker, keys — the union of either plane's — are
    /// visited in ascending order, arrival order preserved inside a group
    /// (see the module docs): the kernel sees the key's typed values, in
    /// one vector reused across keys, plus its rows as the [`RowsIn`] a
    /// Pregel vertex reads — `Fused`, one combined row, when `rows` were
    /// fused; `Rows` in arrival order otherwise; `None` for a key with
    /// typed records only — and their shuffle records in
    /// [`PhaseCtx::records`]. It pushes its keyed pairs onto the task's
    /// output vector, its last argument.
    /// `make_reduce(worker)` builds one kernel per worker, which may hold
    /// per-worker state across its key stream (e.g. the broadcast table
    /// riding reserved low keys). The modelled reducer memory peak is the
    /// largest single group plus the sink's fused accumulators — streaming
    /// reducers never hold their whole partition. `sizes`, when counted,
    /// are per reducer.
    #[expect(
        clippy::too_many_arguments,
        reason = "the phase's two planes, its kernel, fold and sizes are independent inputs"
    )]
    pub fn reduce_phase<V, O, R, F>(
        &mut self,
        name: impl Into<String>,
        data: KeyedData<V>,
        rows: KeyedRows<'l>,
        out_dim: usize,
        make_reduce: F,
        row_agg: Option<AggKind>,
        sizes: Sizes<'_>,
    ) -> Result<(KeyedData<O>, KeyedRows<'l>)>
    where
        V: Shuffled<'l>,
        O: Shuffled<'l>,
        R: FnMut(
            &mut PhaseCtx,
            u64,
            &mut Vec<V>,
            RowsIn<'_>,
            &mut RowSink<'_>,
            &mut Vec<(u64, O)>,
        ) -> Result<()>,
        F: Fn(usize) -> R + Sync,
    {
        let name = name.into();
        let n = self.spec.workers;
        assert_eq!(data.per_worker.len(), n, "keyed data shape");
        assert_eq!(rows.per_worker.len(), n, "keyed rows shape");
        let params = self.params();
        let layout = self.layout;
        let (gate, round) = self.reduce_gate();
        let (transport, mut pool) = (Arc::clone(&self.transport), GridPool::default());
        let plane = (out_dim, row_agg);
        let mut barrier = open_barrier(layout, &*transport, params, plane, &sizes, &mut pool);

        let partitions: Vec<_> = data.per_worker.into_iter().zip(rows.per_worker).collect();
        // Each reducer drops its inbox as its task ends: the senders' rows
        // go before this phase's own are sealed.
        let results = barrier.compute(partitions, |w, (mut bucket, (mut inbox, charge)), sink| {
            // Fired before the task consumes its shuffle partition, so a
            // re-launched task reads the same immutable input.
            let task_retries = gate.admit(|inj| inj.reduce_task(w, round))?;
            let mut metrics = WorkerPhase::default();
            // The rows' fetch, each record as the barrier charged it; the
            // typed records are sized as they are grouped.
            charge.fetch(&mut metrics);
            let slots = charge.slots_by_id(layout, w);
            let ids = layout.ids(w);
            // Stable, so same-key typed records keep arrival order.
            bucket.sort_by_key(|&(k, _)| k);

            let mut kernel = make_reduce(w);
            let mut out: Vec<(u64, O)> = Vec::with_capacity(sizes.typed.map_or(0, |t| t[w]));
            let mut values: Vec<V> = Vec::new();
            let mut max_group_bytes = 0u64;
            let mut lit = bucket.into_iter().peekable();
            let mut gi = 0usize;
            loop {
                let lk = lit.peek().map(|&(k, _)| k);
                let rk = slots.get(gi).map(|&s| ids[s as usize]);
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
                let mut ctx = PhaseCtx::default();
                let rows = if rk == Some(k) {
                    let s = slots[gi] as usize;
                    gi += 1;
                    group_bytes += charge.bytes[s];
                    ctx.records = charge.records[s] as usize;
                    inbox.lend(s)?
                } else {
                    RowsIn::None
                };
                max_group_bytes = max_group_bytes.max(group_bytes);
                kernel(&mut ctx, k, &mut values, rows, sink, &mut out)?;
                metrics.flops += ctx.flops;
            }
            let held = max_group_bytes;
            Ok(PhaseOut::finish(
                &params,
                w,
                &sizes,
                metrics,
                out,
                sink,
                held,
                task_retries,
            ))
        });
        let sealed = (barrier, &mut pool, plane);
        self.merge_phase(name, RoundKind::Reduce, sealed, &sizes, results)
    }

    /// Barrier: surface the first failure in ascending worker order, check
    /// the memory model, and hand both planes to the shuffle
    /// [`Transport`]. The rows cross through the phase's row barrier,
    /// which then seals each destination's inbox ([`RowBarrier::seal`],
    /// no spill) and charges its records; a debug build checks every
    /// reducer's groups against the plan's counts. The typed records cross
    /// the wire through their codec under a byte-moving backend, the
    /// transport concatenating them per destination in mapper order (the
    /// serial delivery order); in process they are concatenated
    /// in-engine.
    fn merge_phase<V: Shuffled<'l>>(
        &mut self,
        name: String,
        kind: RoundKind,
        (mut barrier, pool, (dim, fold)): (
            RowBarrier<'_, Charge<'l>>,
            &mut GridPool,
            (usize, Option<AggKind>),
        ),
        sizes: &Sizes<'_>,
        results: Vec<Result<PhaseOut<V>>>,
    ) -> Result<(KeyedData<V>, KeyedRows<'l>)> {
        let n = self.spec.workers;
        let mut metrics = Vec::with_capacity(n);
        let mut round_bytes = MessagePlaneBytes::default();
        let mut round_retries = 0u64;
        let mut routed_by_mapper: Vec<Vec<Vec<(u64, V)>>> = Vec::with_capacity(n);
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
        }
        let needs_bytes = self.transport.needs_bytes();
        let encoded_legacy: Vec<Option<Vec<EncodedKeyRecords>>> = (0..n)
            .map(|dst| {
                needs_bytes.then(|| {
                    routed_by_mapper
                        .iter()
                        .map(|m| {
                            m.get(dst)
                                .map(|recs| recs.iter().map(|(k, v)| (*k, v.to_bytes())).collect())
                                .unwrap_or_default()
                        })
                        .collect()
                })
            })
            .collect();
        let (merged, wire_bytes) = barrier
            .exchange_concat(encoded_legacy)
            .map_err(|e| e.in_phase(&name))?;
        self.report.wire_bytes += wire_bytes;
        let inboxes = barrier.seal(pool).map_err(|e| e.in_phase(&name))?;
        let fused = fold.is_some() && dim > 0;
        if let Some(cells) = sizes.cells {
            for (d, (_, charge)) in inboxes.iter().enumerate() {
                let groups = charge.records.iter().filter(|&&r| r > 0).count();
                let total: usize = charge.records.iter().map(|&r| r as usize).sum();
                let cell = |s| {
                    if fused {
                        cells.partials(s, d)
                    } else {
                        cells.refs(s, d)
                    }
                };
                let bound: usize = (0..n).map(cell).sum();
                debug_assert_eq!(
                    (groups, total),
                    (cells.receivers(d), bound),
                    "reducer {d}: (groups, rows) against the plan"
                );
            }
        }
        let mut routed: Vec<Vec<(u64, V)>> = Vec::with_capacity(n);
        for (dst, merged) in merged.into_iter().enumerate() {
            let typed = match merged {
                Some(records) => {
                    let mut typed = Vec::with_capacity(records.len());
                    for (k, bytes) in records {
                        let v =
                            decode_keyed(k, &bytes, self.layout).map_err(|e| e.in_phase(&name))?;
                        typed.push((k, v));
                    }
                    typed
                }
                // The typed legacy plane never left the engine:
                // concatenate in ascending mapper order, exactly the
                // serial delivery order.
                None => {
                    let total = routed_by_mapper.iter().map(|m| m[dst].len()).sum();
                    let mut typed = Vec::with_capacity(total);
                    for per_dest in &mut routed_by_mapper {
                        typed.append(&mut per_dest[dst]);
                    }
                    typed
                }
            };
            routed.push(typed);
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
        let rows = KeyedRows {
            dim,
            per_worker: inboxes,
        };
        Ok((KeyedData { per_worker: routed }, rows))
    }
}

/// A phase's row barrier over `plane` — `(row width, fold)`, a width of 0
/// sending no rows — for `transport`, with no spill, its grid from `pool`:
/// every cell reserved at the plan's counts (a debug build checks each
/// against them) and each reducer's records charged as they are merged.
fn open_barrier<'a, 'l: 'a>(
    layout: &'l Layout,
    transport: &'a dyn Transport,
    params: PhaseParams,
    (dim, fold): (usize, Option<AggKind>),
    sizes: &Sizes<'a>,
    pool: &mut GridPool,
) -> RowBarrier<'a, Charge<'l>> {
    let plane = (dim > 0).then_some(RowPlane { dim, fold });
    let reserve = Reserve {
        counts: sizes.cells,
        lanes: dim,
        exact: true,
    };
    let charge = |w2| {
        let slots = if plane.is_some() {
            layout.n_slots(w2)
        } else {
            0
        };
        Charge::new(layout.ids(w2), dim, params, slots)
    };
    RowBarrier::open(plane, pool, layout, (transport, None), reserve, charge)
}

/// Decode one merged typed record whole, with its key, against `layout`.
fn decode_keyed<'l, V: Shuffled<'l>>(key: u64, bytes: &[u8], layout: &'l Layout) -> Result<V> {
    let mut r = WireReader::new(bytes);
    let v = V::decode_keyed(key, &mut r, layout)?;
    if !r.is_empty() {
        return Err(Error::Codec(format!(
            "{} trailing bytes after decode",
            r.remaining()
        )));
    }
    Ok(v)
}

/// Charge a worker's emitted typed pairs to its metrics and route them to
/// their destination shards in emission order, each shard sized exactly
/// in a first counting pass. Returns the shards and the total bytes routed
/// (the typed plane's message volume); each pair is sized once.
fn route_records<V: Encode>(
    params: &PhaseParams,
    n: usize,
    emitted: Vec<(u64, V)>,
    metrics: &mut WorkerPhase,
) -> (Vec<Vec<(u64, V)>>, u64) {
    let mut per_dest = vec![0usize; n];
    for (k, _) in &emitted {
        per_dest[(params.partition_fn)(*k, n)] += 1;
    }
    let mut routed: Vec<Vec<(u64, V)>> = per_dest.into_iter().map(Vec::with_capacity).collect();
    let mut total = 0u64;
    for (k, v) in emitted {
        let len = params.wire_len(k, &v);
        metrics.send(len);
        routed[(params.partition_fn)(k, n)].push((k, v));
        total += len;
    }
    (routed, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use inferturbo_cluster::transport::{
        ConcatExchange, ConcatOut, Exchange, ExchangeOut, InProcess,
    };
    use inferturbo_common::rows::LentRows;
    use std::sync::Arc;

    /// A layout placing no vertex: the address space of a chain that
    /// ships typed records only.
    fn typed_only(workers: usize) -> Layout {
        Layout::planned(workers, std::iter::empty()).unwrap()
    }

    fn engine(layout: &Layout) -> BatchEngine<'_> {
        BatchEngine::new(ClusterSpec::test_spec(layout.n_workers()), layout)
    }

    /// The last round's records as a per-key map (keys unique).
    fn into_map<V>(data: KeyedData<V>) -> std::collections::BTreeMap<u64, V> {
        data.into_iter().collect()
    }

    /// A map phase that ships typed records only: `row_dim = 0`, sink
    /// ignored.
    fn map_typed<I, V, M>(
        eng: &mut BatchEngine<'_>,
        name: &str,
        inputs: &[I],
        make_map: impl Fn(usize) -> M + Sync,
    ) -> Result<KeyedData<V>>
    where
        I: Encode + Sync,
        V: Encode + Decode + Clone + Send,
        M: FnMut(&mut PhaseCtx, &I) -> Result<Vec<(u64, V)>>,
    {
        let make = |w| {
            let mut kernel = make_map(w);
            move |ctx: &mut PhaseCtx, i: usize, _sink: &mut RowSink<'_>, out: &mut Vec<(u64, V)>| {
                ctx.read(inputs[i].encoded_len() as u64);
                out.extend(kernel(ctx, &inputs[i])?);
                Ok(())
            }
        };
        Ok(eng
            .map_phase(name, inputs.len(), 0, make, None, Sizes::default())?
            .0)
    }

    /// The reduce counterpart of [`map_typed`].
    fn reduce_typed<V, O, R>(
        eng: &mut BatchEngine<'_>,
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
                  rows: RowsIn<'_>,
                  _sink: &mut RowSink<'_>,
                  out: &mut Vec<(u64, O)>| {
                assert!(matches!(rows, RowsIn::None), "typed-only chain");
                out.extend(kernel(ctx, key, std::mem::take(values))?);
                Ok(())
            }
        };
        let rows = KeyedRows::empty(0, workers);
        Ok(eng
            .reduce_phase(name, data, rows, 0, make, None, Sizes::default())?
            .0)
    }

    /// Word-count style pipeline: map words → (hash, 1), reduce sums.
    #[test]
    fn map_reduce_counts_keys() {
        let layout = typed_only(4);
        let mut eng = engine(&layout);
        let inputs: Vec<u64> = vec![1, 2, 1, 3, 1, 2];
        let keyed = map_typed(&mut eng, "map", &inputs, |_w| {
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
        let layout = typed_only(2);
        let mut eng = engine(&layout);
        let parts: Vec<u64> = vec![5u64, 6];
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
        let layout = typed_only(1);
        let mut eng = engine(&layout);
        let parts: Vec<u64> = (0..100u64).collect();
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
        let layout = typed_only(1);
        let mut eng = BatchEngine::new(spec, &layout);
        let parts = vec![0u64; 10];
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
            let layout = typed_only(4);
            let mut eng = engine(&layout);
            let parts: Vec<u64> = (0..200u64).collect();
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
        let layout = typed_only(1);
        let mut eng = engine(&layout);
        let parts: Vec<u64> = vec![0u64];
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
        let layout = typed_only(2);
        let mut eng = engine(&layout);
        let parts: Vec<u64> = vec![1u64, 2];
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
        let layout = typed_only(3);
        let mut eng = engine(&layout);
        let parts: Vec<u64> = (0..9u64).collect();
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

    /// An in-process transport that asks for bytes: the engine hands it
    /// every (mapper, destination) cell as a bucket and encodes the typed
    /// records, exactly as for a worker process.
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

    /// Drive one map+reduce chain over the columnar plane of a layout
    /// placing vertices 0–4 on three workers: every input emits a dim-2
    /// row `[order_lane(r), 1.0]` bound for vertex `r % 5` plus a legacy
    /// marker record keyed by that vertex; the reducer must see both
    /// planes in the same key group and fold the rows (honouring fused
    /// counts).
    fn run_row_chain(fused: bool, threads: usize) -> (Vec<(u64, Vec<u32>)>, u64, u64) {
        run_row_chain_via(Arc::new(InProcess), fused, threads)
    }

    fn run_row_chain_via(
        transport: Arc<dyn Transport>,
        fused: bool,
        threads: usize,
    ) -> (Vec<(u64, Vec<u32>)>, u64, u64) {
        use inferturbo_common::Parallelism;
        let layout = Layout::planned(3, (0..5u64).map(|k| (k, &[][..]))).unwrap();
        let layout = &layout;
        Parallelism::with(threads, || {
            let mut eng = engine(layout).with_transport(transport);
            let agg = fused.then_some(AggKind::Sum);
            let (keyed, rows) = eng
                .map_phase(
                    "m",
                    200,
                    2,
                    |_w| {
                        |_c: &mut PhaseCtx,
                         r: usize,
                         sink: &mut RowSink<'_>,
                         out: &mut Vec<(u64, u32)>| {
                            let key = r as u64 % 5;
                            let route = layout.resolve(key).unwrap();
                            sink.scatter_row(&[route], &[order_lane(r as u64), 1.0]);
                            out.push((key, 1u32));
                            Ok(())
                        }
                    },
                    agg,
                    Sizes::default(),
                )
                .unwrap();
            assert_eq!(rows.dim(), 2);
            let (out, out_rows) = eng
                .reduce_phase(
                    "r",
                    keyed,
                    rows,
                    0,
                    |_w| {
                        |c: &mut PhaseCtx,
                         k,
                         values: &mut Vec<u32>,
                         rows: RowsIn<'_>,
                         _sink: &mut RowSink<'_>,
                         out: &mut Vec<(u64, Vec<f32>)>|
                         -> Result<()> {
                            let mut sum = [0.0f32; 2];
                            let (lent, count) = match rows {
                                RowsIn::Rows(lent) => (lent, lent.len() as u32),
                                RowsIn::Fused { dim, acc, count } => {
                                    (LentRows::flat(dim, acc), count)
                                }
                                RowsIn::None => panic!("key {k} has rows"),
                            };
                            for row in lent.iter() {
                                for (a, b) in sum.iter_mut().zip(row) {
                                    *a += b;
                                }
                            }
                            assert_eq!(values.len() as u32, count, "legacy markers == raw rows");
                            // One partial per mapper when fused, combined
                            // into one row; one record per row otherwise.
                            assert_eq!(c.records(), if fused { 3 } else { 40 });
                            assert_eq!(lent.len(), if fused { 1 } else { 40 });
                            out.push((k, vec![sum[0], sum[1], count as f32]));
                            Ok(())
                        }
                    },
                    None,
                    Sizes::default(),
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

    /// A byte-moving transport gets every sender's cells as its buckets,
    /// and its reducers read what crossed: the same rows in the same
    /// order, so the same bits and the same accounting.
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
            let layout = typed_only(3);
            let mut eng = engine(&layout).with_fault_injector(plan.map(|p| p.injector()));
            let parts: Vec<u64> = (0..60u64).collect();
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
        // One firing more than the retry budget absorbs.
        let plan = FaultPlan::new().and_fail_times(
            FaultSite::MapTask {
                worker: 1,
                round: 0,
            },
            MAX_TASK_RETRIES + 1,
        );
        let layout = typed_only(2);
        let mut eng = engine(&layout).with_fault_injector(Some(plan.injector()));
        let parts: Vec<u64> = vec![1u64, 2, 3];
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
        let layout = typed_only(3);
        let mut eng = engine(&layout);
        let parts: Vec<u64> = (0..10u64).collect();
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
