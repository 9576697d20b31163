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
//! every thread count. The shuffle's partitioning is what makes this safe:
//! each worker *is* a disjoint key range.
//!
//! An engine runs over a [`Layout`]: the plan's placement of every vertex
//! on a worker's slot table. The layout is the row plane's address space
//! (a row is bound for a destination vertex by its [`Route`], and lands in
//! that worker's shard under the slot), and a reducer's key order: it
//! visits its keys in ascending vertex id, which the layout gives without
//! a sort ([`Layout::slots_by_id`]). A reducer groups its rows by slot
//! with the Pregel engine's destination merge, in arrival order
//! (ascending mapper, emission order within a mapper): fused partials
//! through [`FusedRows::open`], one [`FusedFold::fold`] per sender and
//! [`FusedFold::seal`], materialized rows through [`RowArena::seal`] (the
//! stable counting sort [`inferturbo_common::rows::seal_order`]). It
//! merge-joins those groups with its typed records, which it stable-sorts
//! by key. That keeps the external-sort semantics the kernels are written
//! against — ascending keys, arrival order inside a group — with no hash
//! and no sort of the row plane. The typed plane's keys are partitioned by
//! the engine's partition function, which must place a vertex's id on the
//! worker the layout places it, so a key's typed records and rows meet.
//!
//! [`FusedFold::fold`]: inferturbo_common::rows::FusedFold::fold
//! [`FusedFold::seal`]: inferturbo_common::rows::FusedFold::seal
//!
//! # Two shuffle planes
//!
//! Every phase shuffles typed keyed records (the pairs a kernel pushes)
//! and, alongside them, fixed-width `f32` rows: kernels scatter a row over
//! a span of routes into a [`RowSink`], which appends it to one
//! [`RowShard`] per destination worker, with no per-record heap object.
//! When a phase provides a fold ([`AggKind`], the one set both engines and
//! the wire know), each destination's cell is a [`FusedSlotShard`]
//! instead, folding rows into one partial per destination slot as they
//! arrive ([`FusedSlotShard::accumulate`], copy-on-first) — the in-mapper
//! combiner the Pregel engine's senders run too — shrinking shuffle volume
//! from one row per edge to one partial row per (worker, destination
//! vertex).
//!
//! A shard is already contiguous and bound for one destination, so the
//! barrier moves shards, never rows: in process a destination keeps its
//! senders' shards, ascending, and reads them where they lie; a transport
//! that moves bytes ([`Transport::needs_bytes`]) is handed the same shards
//! as buckets — slots widened to the buckets' `u64` keys, a materialized
//! row counting 1 — and what crosses the wire is one shard of its own, its
//! keys narrowed back to slots with a checked conversion. Either way the
//! reducer merges what it holds with the same calls: the partials through
//! the fold of the phase that produced them (Hadoop's reduce-side
//! combine), so its kernel sees one row per key; without a fold, the
//! key's rows sealed in arrival order and lent as one [`RowsView`]. A
//! phase that ships no rows passes `row_dim = 0` and ignores its sink.
//!
//! # Sized from the plan
//!
//! A phase given [`Sizes`] reserves every task's shards and its typed
//! output vector at exactly the plan's counts; a reducer's groups are
//! sealed from the shards it holds (a fused reducer opens one accumulator
//! per slot, a materialized one counts its slots before it fills them),
//! so no buffer grows while it is written; a debug build checks each
//! shard and each reducer's groups against the plan's counts. The byte
//! accounting models the deployment's wire format whatever the buffers
//! hold: a row record is charged its framing plus its destination's id as
//! a varint key, and a typed record its key and [`Encode::encoded_len`].

use inferturbo_cluster::transport::MergedCols;
use inferturbo_cluster::transport::{
    self, frame::EncodedKeyRecords, BucketRef, ConcatDest, ConcatExchange, Transport,
};
use inferturbo_cluster::{ClusterSpec, FaultInjector, MessagePlaneBytes, RunReport, WorkerPhase};
use inferturbo_common::codec::{varint_len, Decode, Encode, WireReader};
use inferturbo_common::hash::partition_of;
use inferturbo_common::layout::{CellCounts, Layout, Route};
use inferturbo_common::par::{par_map, par_map_workers};
use inferturbo_common::rows::{
    row_payload_len, AggKind, FusedRows, FusedSlotShard, LentRows, RowArena, RowBlock, RowShard,
};
use inferturbo_common::{Error, Result};
use inferturbo_obs::{Payload, RoundKind, Site, TraceHandle};

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

/// Row shards of one plane, the other list empty: materialized rows
/// ([`RowShard`], emission order) or — when the phase fuses — partials
/// ([`FusedSlotShard`], one per touched slot in first-touch order). A
/// task's cells hold one shard per destination worker; a destination's,
/// one per sender that sent it rows, ascending: its arrival order.
#[derive(Default)]
struct Cells {
    rows: Vec<RowShard>,
    fused: Vec<FusedSlotShard>,
}

impl Cells {
    /// Shard `i`'s destination slots, one per record.
    fn slots(&self, i: usize) -> &[u32] {
        match (self.fused.get(i), self.rows.get(i)) {
            (Some(sh), _) => &sh.keys,
            (None, Some(sh)) => &sh.slots,
            (None, None) => &[],
        }
    }

    fn len(&self) -> usize {
        self.rows.len() + self.fused.len()
    }

    /// Move the non-empty shards of a task's cells onto the end of their
    /// destinations' lists.
    fn deal(self, dests: &mut [Cells]) {
        for (dest, sh) in dests.iter_mut().zip(self.rows) {
            if !sh.is_empty() {
                dest.rows.push(sh);
            }
        }
        for (dest, sh) in dests.iter_mut().zip(self.fused) {
            if !sh.is_empty() {
                dest.fused.push(sh);
            }
        }
    }
}

/// A fused shard's partials without its dense slot index: what a sender
/// hands over once it has folded, and what a byte-moving transport hands
/// back. Only [`FusedFold::fold`] reads it, which walks the partials.
fn partials(dim: usize, keys: Vec<u32>, counts: Vec<u32>, rows: RowBlock) -> FusedSlotShard {
    let mut sh = FusedSlotShard::new(dim, 0);
    sh.keys = keys;
    sh.counts = counts;
    sh.rows = rows;
    sh
}

/// Keyed columnar rows routed to their destination workers — the columnar
/// counterpart of [`KeyedData`], produced and consumed by the same phases.
/// Each destination holds its senders' shards, ascending.
pub struct KeyedRows {
    dim: usize,
    /// The fold of the phase that fused these rows, if it fused: the
    /// consuming reducer merges same-slot partials with this fold and no
    /// other.
    kind: Option<AggKind>,
    /// Per destination worker, the non-empty shards bound there.
    per_worker: Vec<Cells>,
    /// Per destination worker, when the producing phase was sized: the
    /// slots its rows reach and the row records bound there.
    planned: Option<Vec<(usize, usize)>>,
}

impl std::fmt::Debug for KeyedRows {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyedRows")
            .field("dim", &self.dim)
            .field("rows", &self.len())
            .field("workers", &self.per_worker.len())
            .field("fused", &self.kind.is_some())
            .finish()
    }
}

impl KeyedRows {
    /// An empty plane (used to start a chain, or by phases with no row
    /// traffic).
    pub fn empty(dim: usize, workers: usize) -> Self {
        KeyedRows {
            dim,
            kind: None,
            per_worker: (0..workers).map(|_| Cells::default()).collect(),
            planned: None,
        }
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Total row records across all workers.
    pub fn len(&self) -> usize {
        let rows = self.per_worker.iter().flat_map(|c| &c.rows);
        let fused = self.per_worker.iter().flat_map(|c| &c.fused);
        rows.map(RowShard::len).sum::<usize>() + fused.map(FusedSlotShard::len).sum::<usize>()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total raw messages represented (each row counts its folds).
    pub fn raw_message_count(&self) -> u64 {
        let rows = self.per_worker.iter().flat_map(|c| &c.rows);
        let fused = self.per_worker.iter().flat_map(|c| &c.fused);
        let folded: u64 = fused.flat_map(|sh| &sh.counts).map(|&c| c as u64).sum();
        rows.map(|sh| sh.len() as u64).sum::<u64>() + folded
    }
}

/// One key's rows inside a reducer, lent where the reducer's inbox holds
/// them, with per-row fold counts, in arrival order (ascending mapper,
/// emission order within a mapper). When the producing phase fused, the
/// reducer has already folded the key's partials through that phase's
/// fold, in arrival order and copy-on-first: the view is then one row
/// whose count is the sum of theirs.
#[derive(Debug, Clone, Copy)]
pub struct RowsView<'a> {
    pub rows: LentRows<'a>,
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
        self.rows.row(i)
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

impl Sizes<'_> {
    /// Rows task `w`'s cell for worker `d` holds.
    fn cell(&self, fused: bool, w: usize, d: usize) -> Option<usize> {
        self.cells.map(|c| {
            if fused {
                c.partials(w, d)
            } else {
                c.refs(w, d)
            }
        })
    }
}

/// Columnar emitter handed to phase kernels: a row scattered over a span
/// of routes lands in one shard per destination worker, appended (no
/// per-record heap object) or — when the phase has a fold — folded into
/// the destination slot's partial, copy-on-first
/// ([`FusedSlotShard::accumulate`]): Hadoop-style in-mapper combining.
pub struct RowSink<'a> {
    dim: usize,
    layout: &'a Layout,
    kind: Option<AggKind>,
    /// Per destination worker, the shard this task's rows bound there fill.
    cells: Cells,
}

impl<'a> RowSink<'a> {
    fn new(
        dim: usize,
        kind: Option<AggKind>,
        layout: &'a Layout,
        w: usize,
        sizes: &Sizes<'_>,
    ) -> Self {
        let n = layout.n_workers();
        let kind = kind.filter(|_| dim > 0);
        let planned = |d| sizes.cell(kind.is_some(), w, d).filter(|_| dim > 0);
        let mut cells = Cells::default();
        for d in 0..n {
            let rows = planned(d).unwrap_or(0);
            if kind.is_some() {
                let mut sh = FusedSlotShard::new(dim, layout.n_slots(d));
                sh.reserve_exact(rows, dim);
                cells.fused.push(sh);
            } else {
                let mut sh = RowShard::new(dim);
                sh.slots.reserve_exact(rows);
                sh.rows.reserve_exact(rows * dim);
                cells.rows.push(sh);
            }
        }
        RowSink {
            dim,
            layout,
            kind,
            cells,
        }
    }

    /// Row width of this phase's outgoing columnar plane (0 = the phase
    /// emits no rows).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Emit one row for every route of `routes`, in order, for the
    /// shuffle.
    pub fn scatter_row(&mut self, routes: &[Route], row: &[f32]) {
        assert!(self.dim > 0, "scatter_row on a phase with no row plane");
        debug_assert_eq!(row.len(), self.dim);
        match &self.kind {
            Some(kind) => {
                for &r in routes {
                    let (d, slot) = self.layout.unpack(r);
                    self.cells.fused[d].accumulate(slot, row, 1, kind);
                }
            }
            None => {
                for &r in routes {
                    let (d, slot) = self.layout.unpack(r);
                    self.cells.rows[d].push(slot, row);
                }
            }
        }
    }

    /// Resident bytes held by the sink and charged to the worker's memory
    /// peak: the in-mapper fused accumulators only (lanes plus a 12-byte
    /// key and count each). Plain rows model as streamed to the shuffle
    /// (like the typed records), so they cost shuffle bytes, not resident
    /// memory.
    fn resident_bytes(&self) -> u64 {
        self.cells
            .fused
            .iter()
            .map(|sh| (sh.rows.data().len() * 4 + sh.len() * 12) as u64)
            .sum()
    }

    /// Charge every row's output bytes — its framing, count and
    /// destination id — and hand the shards over, one per destination.
    /// The fused shards' dense slot indexes go here. Returns the shards
    /// and the columnar bytes sent.
    fn flush(
        self,
        params: &PhaseParams,
        w: usize,
        sizes: &Sizes<'_>,
        metrics: &mut WorkerPhase,
    ) -> (Cells, u64) {
        let fused = self.kind.is_some();
        let mut columnar = 0u64;
        for d in 0..self.cells.len() {
            if let Some(planned) = sizes.cell(fused, w, d).filter(|_| self.dim > 0) {
                let (len, cap, lanes) = match fused {
                    true => {
                        let sh = &self.cells.fused[d];
                        let cap = sh.keys.capacity().min(sh.counts.capacity());
                        (sh.len(), cap, sh.rows.capacity())
                    }
                    false => {
                        let sh = &self.cells.rows[d];
                        (sh.len(), sh.slots.capacity(), sh.rows.capacity())
                    }
                };
                debug_assert!(
                    len == planned && cap == planned && lanes == planned * self.dim,
                    "row cell ({w} -> {d}) holds {len} of {planned} rows planned, capacity {cap}"
                );
            }
            let ids = self.layout.ids(d);
            let slots = self.cells.slots(d);
            let counts = self.cells.fused.get(d).map(|sh| &sh.counts[..]);
            for (i, &slot) in slots.iter().enumerate() {
                let count = counts.map_or(1, |c| c[i]);
                let len = params.row_wire_len(ids[slot as usize], self.dim, count);
                metrics.send(len);
                columnar += len;
            }
        }
        let Cells { rows, fused } = self.cells;
        let fused = fused
            .into_iter()
            .map(|sh| {
                let dim = sh.dim();
                partials(dim, sh.keys, sh.counts, sh.rows)
            })
            .collect();
        (Cells { rows, fused }, columnar)
    }
}

/// One reducer's rows grouped by slot with the destination merge both
/// engines share: fused partials folded into one row per slot
/// ([`FusedRows::open`], a [`FusedFold::fold`] per sender ascending,
/// copy-on-first), materialized rows sealed slot by slot in arrival order
/// ([`RowArena::seal`]). Beside them, per slot, the shuffle records that
/// reached it and their wire bytes.
struct Groups {
    inbox: MergedCols,
    records: Vec<u32>,
    bytes: Vec<u64>,
    /// A count of 1 per row of the fattest materialized slot: the fold
    /// counts of every materialized group.
    ones: Vec<u32>,
}

impl Groups {
    /// Group worker `w`'s rows, charging each record's fetch to `metrics`.
    fn of(
        rows: &KeyedRows,
        w: usize,
        layout: &Layout,
        params: &PhaseParams,
        metrics: &mut WorkerPhase,
    ) -> Result<Self> {
        let (dim, cells) = (rows.dim, &rows.per_worker[w]);
        let n_slots = if cells.len() > 0 {
            layout.n_slots(w)
        } else {
            0
        };
        let ids = layout.ids(w);
        let mut records = vec![0u32; n_slots];
        let mut bytes = vec![0u64; n_slots];
        let mut charge = |slot: u32, count: u32| {
            let s = slot as usize;
            let len = params.row_wire_len(ids[s], dim, count);
            metrics.recv(len);
            records[s] += 1;
            bytes[s] += len;
        };
        let inbox = match rows.kind {
            _ if cells.len() == 0 => MergedCols::None,
            Some(kind) => {
                let mut fold = FusedRows::open(dim, n_slots, &kind);
                for sh in &cells.fused {
                    for (&slot, &count) in sh.keys.iter().zip(&sh.counts) {
                        charge(slot, count);
                    }
                    fold.fold(sh, &kind);
                }
                MergedCols::Fused(fold.seal(None)?)
            }
            None => {
                for &slot in cells.rows.iter().flat_map(|sh| &sh.slots) {
                    charge(slot, 1);
                }
                MergedCols::Rows(RowArena::seal(dim, n_slots, &cells.rows, None)?)
            }
        };
        if let Some(planned) = rows.planned.as_ref().map(|p| p[w]) {
            let groups = records.iter().filter(|&&r| r > 0).count();
            let total = records.iter().map(|&r| r as usize).sum();
            debug_assert_eq!(
                (groups, total),
                planned,
                "reducer {w}: (groups, rows) against the plan"
            );
        }
        let fattest = match inbox {
            MergedCols::Rows(_) => records.iter().copied().max().unwrap_or(0),
            _ => 0,
        };
        Ok(Groups {
            inbox,
            records,
            bytes,
            ones: vec![1; fattest as usize],
        })
    }

    /// The touched slots, in ascending id order: the reducer's row keys.
    fn slots_by_id(&self, layout: &Layout, w: usize) -> Vec<u32> {
        if self.records.is_empty() {
            return Vec::new();
        }
        let touched = |&s: &u32| self.records[s as usize] > 0;
        layout.slots_by_id(w).filter(touched).collect()
    }

    /// Slot `s`'s group; `count` holds a fused group's one fold count.
    fn view<'g>(&'g mut self, s: usize, count: &'g mut [u32; 1]) -> Result<RowsView<'g>> {
        let records = self.records[s] as usize;
        Ok(match &mut self.inbox {
            MergedCols::Fused(fused) => {
                count[0] = fused.count(s);
                RowsView {
                    rows: LentRows::flat(fused.dim(), fused.row(s)?),
                    counts: count,
                    records,
                }
            }
            MergedCols::Rows(arena) => RowsView {
                rows: arena.rows(s)?,
                counts: &self.ones[..records],
                records,
            },
            MergedCols::None => RowsView {
                rows: LentRows::flat(0, &[]),
                counts: &[],
                records: 0,
            },
        })
    }
}

/// Per-record context passed to map/reduce kernels for cost reporting.
#[derive(Default)]
pub struct PhaseCtx {
    /// Floating-point operations performed by the kernel on this record.
    pub flops: f64,
    /// Encoded bytes of the input record a map kernel read from its split.
    read: u64,
}

impl PhaseCtx {
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
    /// The task's row shards, one per destination.
    cells: Cells,
    /// Modelled peak resident bytes, checked against the spec at the merge.
    peak: u64,
    /// Message volume by plane.
    msg_bytes: MessagePlaneBytes,
    /// Injected task failures this worker absorbed by re-launching.
    retries: u64,
}

impl<V: Encode> PhaseOut<V> {
    /// Close task `w`: route its typed records and flush its row sink, each
    /// record charged as output once. `held` is the task's modelled
    /// residency beside the sink's fused accumulators.
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
        sink: RowSink<'_>,
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
        let n = sink.layout.n_workers();
        let peak = held + sink.resident_bytes();
        let (routed, legacy) = route_records(params, n, out, &mut metrics);
        let (cells, columnar) = sink.flush(params, w, sizes, &mut metrics);
        metrics.touch_mem(peak);
        PhaseOut {
            metrics,
            routed,
            cells,
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
    /// receives as its last argument. Workers execute in parallel; emitted
    /// pairs and rows are charged as shuffle output. With `row_agg` set,
    /// emitted rows fold into per-slot partials at the sender (fused
    /// in-mapper aggregation), and the returned rows carry `row_agg` to the
    /// reducer that merges them. `sizes`, when counted, are per mapper.
    /// The first failure in ascending worker order is surfaced, like the
    /// serial loop.
    pub fn map_phase<V, M, F>(
        &mut self,
        name: impl Into<String>,
        inputs: usize,
        row_dim: usize,
        make_map: F,
        row_agg: Option<AggKind>,
        sizes: Sizes<'_>,
    ) -> Result<(KeyedData<V>, KeyedRows)>
    where
        V: Shuffled<'l>,
        M: FnMut(&mut PhaseCtx, usize, &mut RowSink<'_>, &mut Vec<(u64, V)>) -> Result<()>,
        F: Fn(usize) -> M + Sync,
    {
        let name = name.into();
        let n = self.spec.workers;
        let params = self.params();
        let layout = self.layout;
        let (gate, round) = self.map_gate();

        let results: Vec<Result<PhaseOut<V>>> = par_map_workers(n, |w| {
            let task_retries = gate.admit(|inj| inj.map_task(w, round))?;
            let mut metrics = WorkerPhase::default();
            let mut kernel = make_map(w);
            let mut out: Vec<(u64, V)> = Vec::with_capacity(sizes.typed.map_or(0, |t| t[w]));
            let mut sink = RowSink::new(row_dim, row_agg, layout, w, &sizes);
            for i in (w..inputs).step_by(n) {
                let mut ctx = PhaseCtx::default();
                kernel(&mut ctx, i, &mut sink, &mut out)?;
                metrics.recv(ctx.read + params.record_overhead);
                metrics.flops += ctx.flops;
            }
            // Mapper memory: typed records stream to the shuffle; only the
            // row sink's fused accumulators stay resident.
            Ok(PhaseOut::finish(
                &params,
                w,
                &sizes,
                metrics,
                out,
                sink,
                0,
                task_retries,
            ))
        });
        self.merge_phase(name, RoundKind::Map, row_dim, row_agg, &sizes, results)
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
        rows: KeyedRows,
        out_dim: usize,
        make_reduce: F,
        row_agg: Option<AggKind>,
        sizes: Sizes<'_>,
    ) -> Result<(KeyedData<O>, KeyedRows)>
    where
        V: Shuffled<'l>,
        O: Shuffled<'l>,
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
        let params = self.params();
        let layout = self.layout;
        let (gate, round) = self.reduce_gate();

        let results: Vec<Result<PhaseOut<O>>> = par_map(data.per_worker, |w, mut bucket| {
            // Fired before the task consumes its shuffle partition, so a
            // re-launched task reads the same immutable input.
            let task_retries = gate.admit(|inj| inj.reduce_task(w, round))?;
            let mut metrics = WorkerPhase::default();
            // Each record of either plane is sized once, as it is grouped:
            // the same number is the fetch of this worker's shuffle
            // partition (input accounting) and its share of the group's
            // residency.
            let mut groups = Groups::of(&rows, w, layout, &params, &mut metrics)?;
            let slots = groups.slots_by_id(layout, w);
            let ids = layout.ids(w);
            // Stable, so same-key typed records keep arrival order.
            bucket.sort_by_key(|&(k, _)| k);

            let mut kernel = make_reduce(w);
            let mut out: Vec<(u64, O)> = Vec::with_capacity(sizes.typed.map_or(0, |t| t[w]));
            let mut values: Vec<V> = Vec::new();
            let mut sink = RowSink::new(out_dim, row_agg, layout, w, &sizes);
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
                let mut count = [0u32];
                let view = if rk == Some(k) {
                    let s = slots[gi] as usize;
                    gi += 1;
                    group_bytes += groups.bytes[s];
                    groups.view(s, &mut count)?
                } else {
                    RowsView {
                        rows: LentRows::flat(in_dim, &[]),
                        counts: &[],
                        records: 0,
                    }
                };
                max_group_bytes = max_group_bytes.max(group_bytes);
                let mut ctx = PhaseCtx::default();
                kernel(&mut ctx, k, &mut values, view, &mut sink, &mut out)?;
                metrics.flops += ctx.flops;
            }
            Ok(PhaseOut::finish(
                &params,
                w,
                &sizes,
                metrics,
                out,
                sink,
                max_group_bytes,
                task_retries,
            ))
        });
        // Every reducer has read its rows: the senders' shards go before
        // this phase's own are merged.
        drop(rows);
        self.merge_phase(name, RoundKind::Reduce, out_dim, row_agg, &sizes, results)
    }

    /// Barrier: surface the first failure in ascending worker order, check
    /// the memory model, and hand the routed shards — both planes — to the
    /// shuffle [`Transport`]. Under a byte-moving backend every non-empty
    /// (mapper, destination) shard is a bucket — its slots widened to the
    /// bucket's `u64` keys, a materialized row counting 1 — and the typed
    /// legacy records cross the wire through their codec, and the
    /// transport concatenates both per destination in mapper order (the
    /// serial delivery order). In process, nothing is copied: each
    /// destination keeps its senders' shards, and the typed records are
    /// concatenated in-engine.
    fn merge_phase<V: Shuffled<'l>>(
        &mut self,
        name: String,
        kind: RoundKind,
        row_dim: usize,
        agg: Option<AggKind>,
        sizes: &Sizes<'_>,
        results: Vec<Result<PhaseOut<V>>>,
    ) -> Result<(KeyedData<V>, KeyedRows)> {
        let n = self.spec.workers;
        let mut metrics = Vec::with_capacity(n);
        let mut round_bytes = MessagePlaneBytes::default();
        let mut round_retries = 0u64;
        let mut routed_by_mapper: Vec<Vec<Vec<(u64, V)>>> = Vec::with_capacity(n);
        let mut cells_by_mapper: Vec<Cells> = Vec::with_capacity(n);
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
            cells_by_mapper.push(o.cells);
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
        rows.kind = agg.filter(|_| row_dim > 0);
        let fused = rows.kind.is_some();
        rows.planned = sizes.cells.map(|c| {
            (0..n)
                .map(|d| {
                    let bound = (0..n).map(|s| sizes.cell(fused, s, d).unwrap_or(0)).sum();
                    (c.receivers(d), bound)
                })
                .collect()
        });
        // Per (mapper, destination): the shard's slots as bucket keys, when
        // the transport moves bytes.
        let keys: Vec<Vec<Vec<u64>>> = match needs_bytes {
            true => cells_by_mapper
                .iter()
                .map(|cells| {
                    let widened = |d| cells.slots(d).iter().map(|&s| u64::from(s)).collect();
                    (0..n).map(widened).collect()
                })
                .collect(),
            false => Vec::new(),
        };
        let longest = keys.iter().flatten().map(Vec::len).max().unwrap_or(0);
        let ones = vec![1u32; if fused { 0 } else { longest }];
        let dests = encoded_legacy
            .iter_mut()
            .enumerate()
            .map(|(dst, legacy)| {
                // A byte-moving transport gets, per destination, the shard
                // of every mapper that sent it rows, ascending; a
                // destination no mapper sent rows to moves no row plane.
                let buckets: Vec<BucketRef<'_>> = cells_by_mapper
                    .iter()
                    .zip(&keys)
                    .filter(|(_, keys)| !keys[dst].is_empty())
                    .map(|(cells, keys)| match cells.fused.get(dst) {
                        Some(sh) => BucketRef {
                            keys: &keys[dst],
                            counts: &sh.counts,
                            rows: &sh.rows,
                        },
                        None => BucketRef {
                            keys: &keys[dst],
                            counts: &ones[..keys[dst].len()],
                            rows: &cells.rows[dst].rows,
                        },
                    })
                    .collect();
                ConcatDest {
                    dim: row_dim,
                    buckets: (!buckets.is_empty()).then_some(buckets),
                    legacy: legacy.take(),
                }
            })
            .collect();
        let exchanged = transport
            .exchange_concat(ConcatExchange { dests })
            .map_err(|e| e.in_phase(&name))?;
        self.report.wire_bytes += exchanged.wire_bytes;
        drop(keys);
        if needs_bytes {
            drop(cells_by_mapper);
        } else {
            // In process the shards stay as they are, each destination
            // keeping its senders' in ascending order.
            for cells in cells_by_mapper {
                cells.deal(&mut rows.per_worker);
            }
        }
        let mut routed: Vec<Vec<(u64, V)>> = Vec::with_capacity(n);
        for (dst, merged) in exchanged.dests.into_iter().enumerate() {
            if let Some(b) = merged.bucket {
                // What crossed the wire is one shard of its own, its keys
                // narrowed back to the destination's slots.
                let slots =
                    narrow(b.keys, self.layout.n_slots(dst)).map_err(|e| e.in_phase(&name))?;
                let cells = &mut rows.per_worker[dst];
                match fused {
                    true => cells.fused.push(partials(row_dim, slots, b.counts, b.rows)),
                    false => cells.rows.push(RowShard {
                        slots,
                        rows: b.rows,
                    }),
                }
            }
            let typed = match merged.legacy {
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
        Ok((KeyedData { per_worker: routed }, rows))
    }
}

/// A bucket's keys back to the slots of a destination holding `n_slots`,
/// each checked: a key that names no slot is a codec error.
fn narrow(keys: Vec<u64>, n_slots: usize) -> Result<Vec<u32>> {
    keys.into_iter()
        .map(|k| {
            u32::try_from(k)
                .ok()
                .filter(|&s| (s as usize) < n_slots)
                .ok_or_else(|| {
                    Error::Codec(format!("bucket key {k} names none of {n_slots} slots"))
                })
        })
        .collect()
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
    use inferturbo_cluster::transport::{ConcatOut, Exchange, ExchangeOut, InProcess};
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
                  view: RowsView<'_>,
                  _sink: &mut RowSink<'_>,
                  out: &mut Vec<(u64, O)>| {
                assert!(view.is_empty(), "typed-only chain");
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

    /// A fused sink folds every row bound for one slot into that slot's
    /// one partial, copy-on-first — a lone `-0.0` survives, which folding
    /// into the identity would not keep — each destination's cell in
    /// first-touch order; an unfused sink appends every row.
    #[test]
    fn a_fused_sink_folds_each_slot_copy_on_first() {
        let layout = Layout::planned(2, (0..6u64).map(|k| (k, &[][..]))).unwrap();
        let at = |k: u64| layout.resolve(k).unwrap();
        for fused in [true, false] {
            let agg = fused.then_some(AggKind::Sum);
            let mut sink = RowSink::new(2, agg, &layout, 0, &Sizes::default());
            sink.scatter_row(&[at(4), at(1)], &[1.0, 2.0]);
            sink.scatter_row(&[at(5)], &[-0.0, 1.0]);
            sink.scatter_row(&[at(1), at(4)], &[3.0, 4.0]);
            // Per destination worker: (slot, count, row bits) in cell order.
            let mut expected: Vec<Vec<(u64, u32, [u32; 2])>> = vec![Vec::new(); 2];
            let bits = |r: [f32; 2]| r.map(f32::to_bits);
            let emitted: [(u64, [f32; 2]); 5] = [
                (4, [1.0, 2.0]),
                (1, [1.0, 2.0]),
                (5, [-0.0, 1.0]),
                (1, [3.0, 4.0]),
                (4, [3.0, 4.0]),
            ];
            for (k, row) in emitted {
                let (d, slot) = layout.unpack(at(k));
                let cell = &mut expected[d];
                match cell.iter_mut().find(|e| fused && e.0 == slot as u64) {
                    Some(e) => {
                        e.1 += 1;
                        let acc = e.2.map(f32::from_bits);
                        e.2 = bits([acc[0] + row[0], acc[1] + row[1]]);
                    }
                    None => cell.push((slot as u64, 1, bits(row))),
                }
            }
            let (cells, _) = sink.flush(
                &engine(&layout).params(),
                0,
                &Sizes::default(),
                &mut WorkerPhase::default(),
            );
            for (d, expected) in expected.iter().enumerate() {
                let rows = match fused {
                    true => &cells.fused[d].rows,
                    false => &cells.rows[d].rows,
                };
                let counts = cells.fused.get(d).map(|sh| &sh.counts[..]);
                let got: Vec<(u64, u32, [u32; 2])> = (cells.slots(d).iter().enumerate())
                    .map(|(i, &slot)| {
                        let row = rows.row(i);
                        let count = counts.map_or(1, |c| c[i]);
                        (slot as u64, count, bits([row[0], row[1]]))
                    })
                    .collect();
                assert_eq!(&got, expected, "fused={fused} destination {d}");
            }
        }
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
